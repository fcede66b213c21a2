// The OpenFlow 1.3 agent session — the control-channel half of a user-space
// switch (the shape BOFUSS standardizes): a framed message stream over an
// AF_UNIX socketpair with a session state machine on the switch side.
//
//   * handshake: the agent sends HELLO at connect; the session opens when the
//     controller's HELLO arrives.  Before that, anything but HELLO/ECHO is
//     answered with OFPET_BAD_REQUEST and dropped.
//   * xid tracking: replies echo the request's xid; the agent stamps its
//     async events (PACKET_IN, FLOW_REMOVED) from its own xid counter.  The
//     controller helper keeps the outstanding-request set and rejects replies
//     with unknown xids.
//   * barrier semantics: messages are dispatched strictly in arrival order.
//     Consecutive FLOW_MODs coalesce into one best-effort datapath batch per
//     run, flushed before any other message type is acted on, so by the time
//     BARRIER_REQUEST is answered every earlier flow-mod has taken effect in
//     the datapath while a churn burst costs one recompile instead of one
//     per mod.  A delete carrying OFPFF_SEND_FLOW_REM flushes the run ahead
//     of it first, so the flows it reports are the ones it removes.
//
// The agent is backend-agnostic: it talks to the switch through callbacks.
// `make_dataplane_callbacks()` wires those callbacks to any `core::Dataplane`
// backend (flow-mod runs land through apply_batch_partial, multipart stats
// walk the rule store, flagged deletes collect FLOW_REMOVED notifications).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/dataplane.hpp"
#include "flow/wire.hpp"

namespace esw::uc {

class OfAgent {
 public:
  struct Callbacks {
    /// Best-effort batch apply (required): the agent accumulates consecutive
    /// FLOW_MODs within a poll and hands each run over in one call — one
    /// datapath recompile/fusion/reclaim pass per run instead of per mod.
    /// Must return one ModStatus per mod, in order; the agent answers each
    /// refused mod with its own ERROR while the rest of the batch stands.
    std::function<std::vector<core::ModStatus>(const std::vector<flow::FlowMod>&)>
        on_flow_mod_batch;
    /// Executes a controller-originated packet (optional).
    std::function<void(const flow::PacketOut&)> on_packet_out;
    /// Serves OFPMP_FLOW (optional; empty reply when absent).
    std::function<std::vector<flow::FlowStatsEntry>(const flow::FlowStatsRequest&)>
        on_flow_stats;
    /// Serves OFPMP_TABLE (optional; empty reply when absent).
    std::function<std::vector<flow::TableStatsEntry>()> on_table_stats;
    /// Called for a delete carrying OFPFF_SEND_FLOW_REM *before* it is
    /// applied (every earlier mod has landed); returns the to-be-removed
    /// flows so the agent can emit FLOW_REMOVED for each (optional).
    std::function<std::vector<flow::FlowRemoved>(const flow::FlowMod&)>
        on_collect_removed;
  };

  struct SessionStats {
    uint64_t messages_rx = 0;
    uint64_t messages_tx = 0;
    uint64_t bytes_rx = 0;
    uint64_t bytes_tx = 0;
    uint64_t flow_mods = 0;
    uint64_t packet_outs = 0;
    uint64_t barriers = 0;
    uint64_t echoes = 0;
    uint64_t packet_ins_sent = 0;
    uint64_t flow_removed_sent = 0;
    uint64_t errors_sent = 0;
    uint64_t tx_dropped = 0;   // async events dropped on a full channel
    uint64_t io_retries = 0;   // EINTR/partial-write continuations absorbed
    uint64_t reconnects = 0;   // channel re-opens after a peer loss
  };

  /// Opens the socketpair and sends the agent's HELLO.
  explicit OfAgent(Callbacks cbs, uint64_t datapath_id = 0xE5'0000'0001ULL);
  ~OfAgent();
  OfAgent(const OfAgent&) = delete;
  OfAgent& operator=(const OfAgent&) = delete;

  /// The controller end of the channel (drive it with OfController).  A
  /// reconnect replaces the socketpair, so re-fetch this (and rebuild any
  /// OfController around it) after stats().reconnects changes.
  int controller_fd() const { return ctrl_fd_; }

  /// True once the controller's HELLO has arrived.
  bool session_open() const { return peer_hello_seen_; }
  /// True while the channel is severed and a reconnect is pending backoff.
  bool channel_down() const { return channel_down_; }

  /// Drains the channel and dispatches every complete frame, in order.
  /// Returns the number of messages handled.
  uint32_t poll();

  /// Emits a PACKET_IN for a controller-bound frame (reactive path).  Never
  /// blocks: if the channel is full the event is dropped and counted in
  /// stats().tx_dropped — the punt path is lossy by design.
  void send_packet_in(const uint8_t* frame, size_t len, uint32_t in_port,
                      uint8_t table_id = 0,
                      flow::PacketIn::Reason reason = flow::PacketIn::Reason::kNoMatch);

  const SessionStats& stats() const { return stats_; }
  uint64_t datapath_id() const { return datapath_id_; }

 private:
  /// A FLOW_MOD parked for the next batch flush: the decoded mod, the frame
  /// prefix an ERROR must echo (spec: first ≤64 bytes), and the FLOW_REMOVED
  /// notifications collected at enqueue time, after the run ahead of a
  /// flagged delete was flushed (sent only if the mod lands).
  struct PendingMod {
    flow::FlowMod fm;
    std::vector<uint8_t> frame_head;
    std::vector<flow::FlowRemoved> removed;
  };

  void dispatch(const uint8_t* frame, size_t len);
  void handle(const flow::OfMsg& msg, const uint8_t* frame, size_t len);
  void flush_flow_mods();
  void send(const std::vector<uint8_t>& bytes);
  bool try_send(const std::vector<uint8_t>& bytes);
  void send_error(uint32_t xid, uint16_t type, uint16_t code, const uint8_t* frame,
                  size_t len);
  uint32_t next_xid() { return xid_++; }
  void open_channel();
  void mark_channel_down();
  void reconnect();
  bool send_all(const uint8_t* data, size_t len);
  size_t drain_rx();

  Callbacks cbs_;
  uint64_t datapath_id_;
  int switch_fd_ = -1;
  int ctrl_fd_ = -1;
  bool peer_hello_seen_ = false;
  bool channel_down_ = false;
  uint32_t reconnect_backoff_ = 1;  // polls to wait before the next re-open
  uint32_t reconnect_wait_ = 0;     // countdown while channel_down_
  uint32_t xid_ = 1;
  std::vector<uint8_t> rxbuf_;
  std::vector<PendingMod> pending_mods_;  // current FLOW_MOD run
  SessionStats stats_;
};

/// The controller end of an agent channel (tests, examples, benches — the
/// Ryu/ODL stand-in).  Owns nothing; borrows the fd from the agent.
class OfController {
 public:
  explicit OfController(int fd) : fd_(fd) {}

  // --- senders (each stamps and returns a tracked xid) ---
  uint32_t send_hello();
  uint32_t send_echo(std::vector<uint8_t> payload = {});
  uint32_t send_features_request();
  uint32_t send_barrier();
  uint32_t send_flow_mod(flow::FlowMod fm);
  uint32_t send_packet_out(flow::PacketOut po);
  uint32_t send_flow_stats_request(flow::FlowStatsRequest req = {});
  uint32_t send_table_stats_request();

  /// Drains the channel; replies must carry an outstanding xid (CheckError
  /// otherwise — the session's xid discipline).  Async events (PACKET_IN,
  /// FLOW_REMOVED) queue up for the caller.  Returns messages received.
  uint32_t poll();

  // --- received state ---
  bool hello_seen() const { return hello_seen_; }
  const std::optional<flow::FeaturesReply>& features() const { return features_; }
  std::vector<flow::PacketIn> take_packet_ins();
  std::vector<flow::FlowRemoved> take_flow_removed();
  std::vector<flow::FlowStatsReply> take_flow_stats();
  std::vector<flow::TableStatsReply> take_table_stats();
  std::vector<flow::Error> take_errors();
  /// Xids of barrier replies since the last take.
  std::vector<uint32_t> take_barrier_replies();

  uint64_t messages() const { return messages_; }
  uint64_t bytes() const { return bytes_; }
  size_t outstanding() const { return outstanding_.size(); }

 private:
  uint32_t send_tracked(std::vector<uint8_t> bytes, uint32_t xid, bool expect_reply);
  void settle(uint32_t xid);

  int fd_;
  uint32_t next_xid_ = 0x1000;
  std::vector<uint32_t> outstanding_;  // request xids awaiting a reply
  std::vector<uint8_t> rxbuf_;
  bool hello_seen_ = false;
  std::optional<flow::FeaturesReply> features_;
  std::vector<flow::PacketIn> packet_ins_;
  std::vector<flow::FlowRemoved> flow_removed_;
  std::vector<flow::FlowStatsReply> flow_stats_;
  std::vector<flow::TableStatsReply> table_stats_;
  std::vector<flow::Error> errors_;
  std::vector<uint32_t> barrier_replies_;
  uint64_t messages_ = 0;
  uint64_t bytes_ = 0;
};

/// HELLO + FEATURES exchange, pumped to completion (in-process convenience).
void run_handshake(OfAgent& agent, OfController& ctrl);

/// Wires an agent's callbacks to a Dataplane backend: flow-mod runs land
/// through apply_batch_partial, flow/table stats walk the backend's rule
/// store, and deletes with OFPFF_SEND_FLOW_REM collect per-entry
/// FLOW_REMOVED data.
///
/// Packet/byte counts come from the rule store's per-entry counters, which
/// the reference interpreter maintains; the compiled fast path counts at
/// table granularity (CompiledDatapath::table_stats), so reactive flows
/// served entirely by compiled templates report zero per-entry packets.
template <core::Dataplane Backend>
OfAgent::Callbacks make_dataplane_callbacks(Backend& sw) {
  OfAgent::Callbacks cbs;
  cbs.on_flow_mod_batch = [&sw](const std::vector<flow::FlowMod>& fms) {
    return sw.apply_batch_partial(fms);
  };
  cbs.on_flow_stats = [&sw](const flow::FlowStatsRequest& req) {
    std::vector<flow::FlowStatsEntry> out;
    for (const flow::FlowTable& t : sw.pipeline().tables()) {
      if (req.table_id != flow::kAllTables && t.id() != req.table_id) continue;
      for (const flow::FlowEntry& e : t.entries()) {
        if (!req.match.is_catch_all() && !e.match.subsumed_by(req.match)) continue;
        flow::FlowStatsEntry fs;
        fs.table_id = t.id();
        fs.priority = e.priority;
        fs.cookie = e.cookie;
        fs.packet_count = e.n_packets;
        fs.byte_count = e.n_bytes;
        fs.match = e.match;
        fs.actions = e.actions;
        fs.goto_table = e.goto_table;
        out.push_back(std::move(fs));
      }
    }
    return out;
  };
  cbs.on_table_stats = [&sw]() {
    std::vector<flow::TableStatsEntry> out;
    for (const flow::FlowTable& t : sw.pipeline().tables()) {
      flow::TableStatsEntry ts;
      ts.table_id = t.id();
      ts.active_count = static_cast<uint32_t>(t.size());
      for (const flow::FlowEntry& e : t.entries()) ts.matched_count += e.n_packets;
      // The rule store does not see per-table miss counts; report the matched
      // total as the lookup floor.
      ts.lookup_count = ts.matched_count;
      out.push_back(ts);
    }
    return out;
  };
  cbs.on_collect_removed = [&sw](const flow::FlowMod& fm) {
    std::vector<flow::FlowRemoved> out;
    if (const flow::FlowTable* t = sw.pipeline().find_table(fm.table_id)) {
      for (const flow::FlowEntry& e : t->entries()) {
        if (e.priority != fm.priority || !(e.match == fm.match)) continue;
        flow::FlowRemoved r;
        r.cookie = e.cookie;
        r.priority = e.priority;
        r.reason = flow::FlowRemoved::Reason::kDelete;
        r.table_id = fm.table_id;
        r.packet_count = e.n_packets;
        r.byte_count = e.n_bytes;
        r.match = e.match;
        out.push_back(std::move(r));
      }
    }
    return out;
  };
  return cbs;
}

}  // namespace esw::uc
