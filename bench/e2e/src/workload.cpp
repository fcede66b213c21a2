#include "workload.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "common/bits.hpp"
#include "proto/build.hpp"
#include "proto/headers.hpp"
#include "usecases/usecases.hpp"

namespace e2e {

using esw::flow::Action;
using esw::flow::FieldId;
using esw::flow::FlowMod;
using esw::net::FlowSpec;

namespace {

// Offsets in an untagged IPv4/TCP frame (the fresh-SYN template).
constexpr uint32_t kIpCsumOff = 14 + 10;
constexpr uint32_t kIpSrcOff = 14 + 12;
constexpr uint32_t kTcpSportOff = 14 + 20;
constexpr uint32_t kTcpCsumOff = 14 + 20 + 16;

/// RFC 1624 incremental checksum update for one rewritten 16-bit word.
uint16_t csum_update(uint16_t hc, uint16_t old_word, uint16_t new_word) {
  uint32_t s = static_cast<uint16_t>(~hc);
  s += static_cast<uint16_t>(~old_word);
  s += new_word;
  s = (s & 0xFFFF) + (s >> 16);
  s = (s & 0xFFFF) + (s >> 16);
  return static_cast<uint16_t>(~s);
}

/// Hash of a flow's direction-free 5-tuple: a connection's forward packets,
/// replies and probes share it.
uint64_t connection_key(const FlowSpec& f) {
  uint64_t a = (uint64_t{f.pkt.ip_src} << 16) | f.pkt.sport;
  uint64_t b = (uint64_t{f.pkt.ip_dst} << 16) | f.pkt.dport;
  if (a > b) std::swap(a, b);
  return esw::mix64(esw::mix64(a) ^ b);
}

bool is_ct_reply(const FlowSpec& f) {
  return f.in_port == esw::uc::kCtOutsidePort &&
         f.pkt.tcp_flags == (esw::proto::kTcpFlagSyn | esw::proto::kTcpFlagAck);
}

/// Drops flows that reuse an earlier connection's tuple (and the reply
/// following a dropped forward flow): a probe or a second connection on a
/// live tuple would get a verdict that depends on arrival order.
std::vector<FlowSpec> unique_connections(const std::vector<FlowSpec>& flows) {
  std::unordered_set<uint64_t> seen;
  std::vector<FlowSpec> kept;
  bool drop_reply = false;
  for (const FlowSpec& f : flows) {
    if (is_ct_reply(f)) {
      if (!drop_reply) kept.push_back(f);
      drop_reply = false;
      continue;
    }
    drop_reply = !seen.insert(connection_key(f)).second;
    if (!drop_reply) kept.push_back(f);
  }
  return kept;
}

FlowMod delete_of(const FlowMod& add) {
  FlowMod del = add;
  del.command = FlowMod::Cmd::kDelete;
  del.actions.clear();
  del.goto_table = esw::flow::kNoGoto;
  return del;
}

uint32_t max_output_port(const Workload& wl) {
  uint32_t max_port = 0;
  const auto scan = [&](const esw::flow::ActionList& actions) {
    for (const Action& a : actions)
      if (a.type == esw::flow::ActionType::kOutput)
        max_port = std::max(max_port, static_cast<uint32_t>(a.value));
  };
  for (const auto& t : wl.pipeline.tables())
    for (const auto& e : t.entries()) scan(e.actions);
  for (uint64_t k = 0; k < 256; ++k)
    for (const FlowMod& fm : wl.batch(k)) scan(fm.actions);
  return max_port;
}

}  // namespace

Workload make_workload(const std::string& name, uint64_t seed, const Faults& faults) {
  namespace uc = esw::uc;
  Workload wl;
  wl.name = name;
  std::vector<FlowSpec> flows;

  if (name == "gateway") {
    // Fig. 13: 10 CEs x 20 users, 10K-prefix RIB.  Each batch adds and
    // deletes one user beyond the 20 the traffic uses, rotating over the
    // per-CE tables: a compound-hash clone-and-swap plus a fusion republish.
    uc::UseCase u = uc::make_gateway(10, 20, 10000, seed);
    wl.pipeline = std::move(u.pipeline);
    flows = u.traffic(100000, seed);
    wl.batches_per_s = 100;
    wl.batch = [](uint64_t k) {
      const uint32_t ce = static_cast<uint32_t>(k % 10);
      const uint32_t user = 20 + static_cast<uint32_t>((k / 10) % 200);
      FlowMod add;
      add.table_id = static_cast<uint8_t>(1 + ce);
      add.priority = 10;
      add.match.set(FieldId::kIpSrc, 0x0A000002u + user);
      add.actions = {Action::pop_vlan(),
                     Action::set_field(FieldId::kIpSrc, 0x64400000u | (ce << 8) | user)};
      add.goto_table = uc::kGatewayRoutingTable;
      return std::vector<FlowMod>{add, delete_of(add)};
    };
  } else if (name == "l2_1m") {
    // One million-entry cuckoo table; 20k mods/s as 64-mod add/delete
    // batches under their own OUI (make_l2 populates 02:...), applied in
    // place under the running workers.
    uc::UseCase u = uc::make_l2(1'000'000, seed);
    wl.pipeline = std::move(u.pipeline);
    flows = u.traffic(1'000'000, seed);
    wl.batches_per_s = 20000.0 / 64;
    wl.batch = [](uint64_t k) {
      std::vector<FlowMod> mods;
      for (uint64_t j = 0; j < 32; ++j) {
        const uint64_t n = k * 32 + j;
        FlowMod add;
        add.table_id = 0;
        add.priority = 10;
        add.match.set(FieldId::kEthDst, 0x04'00'00'00'00'00ULL | (n % 4096));
        add.actions = {Action::output(static_cast<uint32_t>(1 + n % 4))};
        mods.push_back(add);
        mods.push_back(delete_of(add));
      }
      return mods;
    };
  } else if (name == "lb") {
    // Fig. 12 at 16 services, decomposed.  Each batch adds and deletes a VIP
    // above the 16 the traffic targets (the junk half never carries 10.1/16
    // with port 80), re-decomposing the table.
    uc::UseCase u = uc::make_load_balancer(16, seed);
    wl.pipeline = std::move(u.pipeline);
    wl.cfg.enable_decomposition = true;
    flows = u.traffic(100000, seed);
    wl.batches_per_s = 100;
    wl.batch = [](uint64_t k) {
      FlowMod add;
      add.table_id = 0;
      add.priority = 20;
      add.match.set(FieldId::kInPort, 1);
      add.match.set(FieldId::kIpDst, 0x0A010000u | static_cast<uint32_t>(16 + k % 200));
      add.match.set(FieldId::kTcpDst, 80);
      add.match.set(FieldId::kIpSrc, 0, 0x80000000);
      add.actions = {Action::output(static_cast<uint32_t>(10 + 2 * (k % 16)))};
      return std::vector<FlowMod>{add, delete_of(add)};
    };
  } else if (name == "ct_fw") {
    // Stateful firewall over a 2^20-entry conntrack: ~200K long-lived
    // connections plus fresh SYNs that commit and expire after the 1 s SYN
    // timeout.  The FLOW_MOD stream adds and deletes a drop rule for a
    // TEST-NET-2 source the traffic never uses.
    uc::CtUseCase u = uc::make_ct_firewall(1u << 20, seed);
    wl.pipeline = std::move(u.pipeline);
    wl.cfg.ct = u.ct;
    wl.cfg.ct.tcp_syn_timeout_ms = 1000;
    flows = unique_connections(u.traffic(272000, seed));  // ~0.74 connections per packet
    wl.fresh_syn_every = 16;
    wl.batches_per_s = 100;
    wl.batch = [](uint64_t k) {
      FlowMod add;
      add.table_id = 0;
      add.priority = 250;
      add.match.set(FieldId::kInPort, uc::kCtOutsidePort);
      add.match.set(FieldId::kIpSrc, 0xC6336400u | static_cast<uint32_t>(k % 250));
      add.actions = {Action::drop()};
      return std::vector<FlowMod>{add, delete_of(add)};
    };
    esw::proto::PacketSpec syn;
    syn.kind = esw::proto::PacketKind::kTcp;
    syn.ip_src = 0x0A800000u;  // 10.128/9: disjoint from the 10.0/16 clients
    syn.ip_dst = 0xCB007101u;
    syn.sport = 1024;
    syn.dport = 443;
    syn.tcp_flags = esw::proto::kTcpFlagSyn;
    uint8_t buf[esw::net::Packet::kMaxFrame];
    const uint32_t len = esw::proto::build_packet(syn, buf, sizeof buf);
    wl.syn_template_.assign(buf, buf + len);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }

  // Pre-flight sample and projection.  The OVS leg's install grows
  // quadratically with table size (25 s at 100K entries), so l2_1m checks a
  // projection: the sampled flows' entries plus every 256th, compiled into
  // the same cuckoo template by lowering cuckoo_min_entries.
  wl.diff_cfg = wl.cfg;
  if (name == "l2_1m") {
    std::unordered_set<uint64_t> macs;
    const size_t stride = flows.size() / 1024;
    for (size_t i = 0; i < 1024; ++i) {
      wl.diff_sample.push_back(flows[i * stride]);
      macs.insert(flows[i * stride].pkt.eth_dst);
    }
    const auto& entries = wl.pipeline.table(0).entries();
    std::vector<esw::flow::FlowEntry> kept;
    for (size_t i = 0; i < entries.size(); ++i)
      if (i % 256 == 0 || macs.count(entries[i].match.value(FieldId::kEthDst)) != 0)
        kept.push_back(entries[i]);
    wl.diff_pipeline.table(0).replace_all(std::move(kept));
    wl.diff_cfg.cuckoo_min_entries = 16;
  } else {
    // ct_fw's replies are admitted by ct_state, which the conntrack-free OVS
    // leg cannot see; the latency phase's verdict accounting covers them.
    for (const FlowSpec& f : flows) {
      if (wl.diff_sample.size() == 1024) break;
      if (!(wl.cfg.ct.enabled && is_ct_reply(f))) wl.diff_sample.push_back(f);
    }
    wl.diff_pipeline = wl.pipeline;
  }

  std::vector<std::vector<FlowSpec>> parts(kWorkers);
  for (const FlowSpec& f : flows) parts[connection_key(f) % kWorkers].push_back(f);
  flows.clear();
  flows.shrink_to_fit();
  for (const auto& p : parts) wl.shards.push_back(esw::net::TrafficSet::from_flows(p));

  const uint32_t max_port = max_output_port(wl);
  wl.n_ports = std::max(max_port, kWorkers);
  if (faults.too_few_ports) wl.n_ports = max_port - 1;
  if (faults.table_capacity) wl.cfg.table_capacity = 1;
  return wl;
}

void Workload::fresh_syn(uint64_t n, uint32_t w, esw::net::Packet& pkt) const {
  const uint64_t t = n * kWorkers + w;
  const uint32_t ip_src = 0x0A800000u | static_cast<uint32_t>((t / 64000) & 0x7FFFFF);
  const uint16_t sport = static_cast<uint16_t>(1024 + t % 64000);
  pkt.assign(syn_template_.data(), static_cast<uint32_t>(syn_template_.size()));
  pkt.set_in_port(esw::uc::kCtInsidePort);
  uint8_t* p = pkt.data();
  const uint8_t* tpl = syn_template_.data();
  uint16_t ip_csum = esw::load_be16(tpl + kIpCsumOff);
  uint16_t tcp_csum = esw::load_be16(tpl + kTcpCsumOff);
  const uint16_t new_words[2] = {static_cast<uint16_t>(ip_src >> 16),
                                 static_cast<uint16_t>(ip_src)};
  for (int i = 0; i < 2; ++i) {
    const uint16_t old_word = esw::load_be16(tpl + kIpSrcOff + 2 * i);
    ip_csum = csum_update(ip_csum, old_word, new_words[i]);
    tcp_csum = csum_update(tcp_csum, old_word, new_words[i]);  // pseudo-header
  }
  tcp_csum = csum_update(tcp_csum, esw::load_be16(tpl + kTcpSportOff), sport);
  esw::store_be32(p + kIpSrcOff, ip_src);
  esw::store_be16(p + kTcpSportOff, sport);
  esw::store_be16(p + kIpCsumOff, ip_csum);
  esw::store_be16(p + kTcpCsumOff, tcp_csum);
}

ShardFeed::ShardFeed(const Workload& wl, uint32_t worker)
    : wl_(&wl),
      ts_(&wl.shards[worker]),
      worker_(worker),
      until_fresh_(wl.fresh_syn_every) {}

uint32_t ShardFeed::next(esw::net::Packet& pkt) {
  if (until_fresh_ != 0 && --until_fresh_ == 0) {
    until_fresh_ = wl_->fresh_syn_every;
    wl_->fresh_syn(fresh_n_++, worker_, pkt);
    return kFresh;
  }
  const uint32_t idx = static_cast<uint32_t>(cursor_);
  ts_->load_next(cursor_, pkt);
  return idx;
}

}  // namespace e2e
