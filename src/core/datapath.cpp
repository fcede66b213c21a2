#include "core/datapath.hpp"

#include <algorithm>
#include <iterator>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "common/counters.hpp"
#include "common/failpoint.hpp"
#include "state/conntrack.hpp"

namespace esw::core {

namespace {

using common::counter_add;   // multi-writer per-slot stats, once per burst
using common::counter_bump;  // single-writer worker stat blocks

/// Global-stat outcome of a verdict.  A controller verdict covers both the
/// miss-policy punt and an explicit controller action; flood counts as
/// output.  Folding the bookkeeping over the verdict keeps every exit path
/// (miss, action set, loop guard, empty datapath) on one counting rule.
void count_verdict(const flow::Verdict& v, CompiledDatapath::Stats& st) {
  switch (v.kind) {
    case flow::Verdict::Kind::kOutput:
    case flow::Verdict::Kind::kFlood:
      ++st.outputs;
      break;
    case flow::Verdict::Kind::kController:
      ++st.to_controller;
      break;
    case flow::Verdict::Kind::kDrop:
      ++st.drops;
      break;
  }
}

}  // namespace

CompiledDatapath::CompiledDatapath()
    : slots_(new Slot[kMaxSlots]), workers_(new Worker[kMaxWorkers + 1]) {
  for (uint32_t i = 0; i <= kMaxWorkers; ++i) workers_[i].id_ = i;
}

// --- control plane -----------------------------------------------------------

int32_t CompiledDatapath::add_slot(flow::FlowTable::MissPolicy miss) {
  int32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = n_slots_.load(std::memory_order_relaxed);
    ESW_CHECK_MSG(slot < kMaxSlots, "out of trampoline slots");
    n_slots_.store(slot + 1, std::memory_order_release);
  }
  slots_[slot].miss.store(miss, std::memory_order_relaxed);
  return slot;
}

std::unique_ptr<CompiledTable> CompiledDatapath::take_live(CompiledTable* old) {
  for (auto it = live_.begin(); it != live_.end(); ++it) {
    if (it->get() == old) {
      std::unique_ptr<CompiledTable> taken = std::move(*it);
      live_.erase(it);
      return taken;
    }
  }
  ESW_CHECK_MSG(false, "retiring an implementation the datapath does not own");
  return nullptr;
}

void CompiledDatapath::retire_impl(CompiledTable* old) {
  retired_impls_.retire(take_live(old), domain_.current_epoch());
}

void CompiledDatapath::set_impl(int32_t slot, std::unique_ptr<CompiledTable> impl) {
  CompiledTable* fresh = impl.get();
  // Templates that retire internal memory (cuckoo) ride this domain from the
  // moment they are published under readers.
  fresh->attach_epoch_domain(&domain_);
  live_.push_back(std::move(impl));
  CompiledTable* old = slots_[slot].impl.exchange(fresh, std::memory_order_acq_rel);
  if (old != nullptr) retire_impl(old);
}

void CompiledDatapath::retire_slot(int32_t slot) {
  // The impl stays *published*: a reader mid-burst on the pre-swap root may
  // still jump here and must find the old table, not a nullptr miss (the
  // old-or-new verdict guarantee).  The slot only becomes unreachable for
  // bursts that start after the swap, so pointer, object and slot id are all
  // reclaimed together once the grace period ends (recycle_slot).
  retired_slots_.retire(slot, domain_.current_epoch());
}

void CompiledDatapath::recycle_slot(int32_t slot) {
  // Grace period over: no worker can reach this slot anymore (every burst
  // started after the root swap), so unpublishing, destroying the impl and
  // zeroing the counters cannot race anything.
  CompiledTable* old = slots_[slot].impl.exchange(nullptr, std::memory_order_relaxed);
  if (old != nullptr) take_live(old);  // destroyed here — grace already served
  slots_[slot].lookups.store(0, std::memory_order_relaxed);
  slots_[slot].hits.store(0, std::memory_order_relaxed);
  slots_[slot].misses.store(0, std::memory_order_relaxed);
  free_slots_.push_back(slot);
}

uint64_t CompiledDatapath::reclaim() {
  // Injectable stall: skip this pass as if no grace period had elapsed.
  // Retirements stay pending (bounded growth, audited by the soak's reclaim
  // check) until a later pass runs with the point disarmed.
  if (ESW_FAILPOINT("epoch.reclaim")) return 0;
  size_t internal_pending = 0;
  for (const auto& t : live_) internal_pending += t->retired_pending();
  if (retired_impls_.pending() == 0 && retired_slots_.pending() == 0 &&
      retired_fused_.pending() == 0 && internal_pending == 0)
    return 0;
  const uint64_t horizon = domain_.advance_and_horizon();
  uint64_t n = retired_impls_.reclaim(horizon);
  n += retired_slots_.reclaim_into(horizon,
                                   [this](int32_t slot) { recycle_slot(slot); });
  n += retired_fused_.reclaim(horizon);
  // Drain template-internal retire lists (cuckoo entries/views) on the same
  // horizon.
  for (const auto& t : live_) n += t->epoch_reclaim(horizon);
  return n;
}

void CompiledDatapath::set_fused(std::unique_ptr<FusedPipeline> fused) {
  fused_.store(fused.get(), std::memory_order_release);
  if (fused_live_ != nullptr)
    retired_fused_.retire(std::move(fused_live_), domain_.current_epoch());
  fused_live_ = std::move(fused);
}

void CompiledDatapath::set_miss_policy(int32_t slot, flow::FlowTable::MissPolicy miss) {
  slots_[slot].miss.store(miss, std::memory_order_relaxed);
}

void CompiledDatapath::reset() {
  ESW_CHECK_MSG(!domain_.has_workers(),
                "reset()/install() is stop-the-world: unregister workers first");
  const int32_t n = n_slots_.load(std::memory_order_relaxed);
  for (int32_t i = 0; i < n; ++i) {
    slots_[i].impl.store(nullptr, std::memory_order_relaxed);
    slots_[i].miss.store(flow::FlowTable::MissPolicy::kDrop, std::memory_order_relaxed);
    slots_[i].lookups.store(0, std::memory_order_relaxed);
    slots_[i].hits.store(0, std::memory_order_relaxed);
    slots_[i].misses.store(0, std::memory_order_relaxed);
  }
  n_slots_.store(0, std::memory_order_release);
  free_slots_.clear();
  live_.clear();
  fused_.store(nullptr, std::memory_order_release);
  fused_live_.reset();
  retired_impls_.clear();   // no workers: immediate free is safe
  retired_slots_.clear();
  retired_fused_.clear();
  start_.store(-1, std::memory_order_release);
  clear_stats();
}

// --- worker management -------------------------------------------------------

CompiledDatapath::Worker* CompiledDatapath::register_worker() {
  for (uint32_t i = 1; i <= kMaxWorkers; ++i) {
    Worker& w = workers_[i];
    if (w.in_use_) continue;
    w.epoch_ = domain_.register_worker();
    ESW_CHECK(w.epoch_ != nullptr);
    w.snap_gen_ = 0;
    w.snap_.clear();
    w.snap_touched_.clear();
    w.in_use_ = true;
    return &w;
  }
  return nullptr;
}

void CompiledDatapath::unregister_worker(Worker* w) {
  ESW_CHECK(w != nullptr && w->in_use_ && w->epoch_ != nullptr);
  domain_.unregister_worker(w->epoch_);
  w->epoch_ = nullptr;
  w->in_use_ = false;
}

// --- datapath ----------------------------------------------------------------

flow::Verdict CompiledDatapath::process(Worker& w, net::Packet& pkt, MemTrace* trace) {
  // Entry is a quiescent point: nothing from a previous packet survives here.
  if (w.epoch_ != nullptr) domain_.quiescent(*w.epoch_);

  Stats local;
  local.packets = 1;
  const int32_t start = start_.load(std::memory_order_acquire);
  if (ESW_UNLIKELY(start < 0)) {
    counter_bump(w.stats_.packets, 1);
    counter_bump(w.stats_.drops, 1);
    return flow::Verdict::drop();
  }

  proto::ParseInfo pi;
  proto::parse(pkt.data(), pkt.len(), plan_.load(std::memory_order_acquire), pi);
  pi.in_port = pkt.in_port();
  if (trace != nullptr) trace->touch(pkt.data(), 64);  // header cache line(s)

  // Conntrack pre-stage: stamp pi.ct_state before any table can match it.
  state::Conntrack* const ct = ct_.load(std::memory_order_acquire);
  state::Conntrack::Hit ct_hit;
  uint64_t ct_now = 0;
  if (ESW_UNLIKELY(ct != nullptr)) {
    ct_now = ct->now_ms();
    ct_hit = ct->pre(pkt.data(), pi, ct_now);
  }

  // Hot-loop discipline: per-table counters accumulate in a local window and
  // flush on return instead of read-modify-writing the shared slot counters
  // two or three times per hop.  The window-full check lives at the outer
  // loop seam, not inside the per-hop walk — real pipelines finish within
  // one window and never pay the guard branch; only pathological goto
  // chains (bounded by kMaxHops, the policy every walk flavor shares) take
  // another lap.
  struct Visit {
    int32_t slot;
    bool hit;
  };
  Visit visited[16];
  uint32_t nv = 0;
  const auto flush_visits = [&] {
    for (uint32_t i = 0; i < nv; ++i) {
      Slot& s = slots_[visited[i].slot];
      counter_add(s.lookups, 1);
      counter_add(visited[i].hit ? s.hits : s.misses, 1);
    }
    nv = 0;
  };
  const auto finish = [&](flow::Verdict v) {
    flush_visits();
    count_verdict(v, local);
    counter_bump(w.stats_.packets, local.packets);
    counter_bump(w.stats_.outputs, local.outputs);
    counter_bump(w.stats_.drops, local.drops);
    counter_bump(w.stats_.to_controller, local.to_controller);
    return v;
  };

  flow::ActionSetBuilder action_set;
  int32_t slot = start;
  for (int hops = 0; hops < kMaxHops;) {
    // One stats window per lap; the flush sits between laps.
    const int lap_end =
        std::min(hops + static_cast<int>(std::size(visited)), kMaxHops);
    for (; hops < lap_end; ++hops) {
      Slot& s = slots_[slot];
      const CompiledTable* impl = s.impl.load(std::memory_order_acquire);
      const uint64_t r =
          impl != nullptr ? impl->lookup(pkt.data(), pi, trace) : jit::kMissResult;
      if (ESW_UNLIKELY(r == jit::kMissResult)) {
        visited[nv++] = {slot, false};
        return finish(s.miss.load(std::memory_order_relaxed) ==
                              flow::FlowTable::MissPolicy::kController
                          ? flow::Verdict::controller()
                          : flow::Verdict::drop());
      }
      visited[nv++] = {slot, true};
      int32_t action = -1, next = -1;
      jit::unpack_result(r, action, next);
      if (action >= 0) action_set.merge(actions_.get(static_cast<uint32_t>(action)));
      if (next < 0) {
        // Conntrack post-stage: commit + NAT rewrite before the action set
        // runs, so set-fields and output see the translated packet.
        if (ESW_UNLIKELY(ct != nullptr))
          ct->post(ct_hit, action_set.ct_commit(), action_set.ct_profile(),
                   pkt.data(), pi, ct_now);
        return finish(action_set.execute(pkt, pi));
      }
      ESW_DCHECK(next < num_slots());
      slot = next;
    }
    flush_visits();
  }
  return finish(flow::Verdict::drop());  // pathological loop guard
}

CompiledDatapath::SlotSnapshot& CompiledDatapath::snapshot(Worker& w, int32_t slot) {
  // The scratch is sized at chunk start, but a swap landing *mid-chunk* can
  // publish an impl whose goto targets are slots allocated after that — grow
  // on demand (worker-private, so the resize races nothing).
  if (ESW_UNLIKELY(static_cast<size_t>(slot) >= w.snap_.size()))
    w.snap_.resize(static_cast<size_t>(slot) + 1);
  SlotSnapshot& s = w.snap_[slot];
  if (s.gen != w.snap_gen_) {
    s.gen = w.snap_gen_;
    s.impl = slots_[slot].impl.load(std::memory_order_acquire);
    s.miss = slots_[slot].miss.load(std::memory_order_relaxed);
    s.want_prefetch =
        s.impl != nullptr && s.impl->memory_bytes() >= kPrefetchMinBytes;
    s.delta = TableStats{};
    w.snap_touched_.push_back(slot);
  }
  return s;
}

/// Burst-shared state threaded from process_chunk into the fused walk: the
/// parse results and the conntrack pre-stage outputs (both stamped in stage 1
/// for every packet, identically in the fused and staged flavors).
struct CompiledDatapath::BurstCtx {
  proto::ParseInfo* pis;
  state::Conntrack* ct;
  state::Conntrack::Hit* ct_hits;
  uint64_t ct_now;
};

void CompiledDatapath::process_burst(Worker& w, net::Packet* const* pkts, uint32_t n,
                                     flow::Verdict* out) {
  while (n > net::kBurstSize) {
    process_chunk(w, pkts, net::kBurstSize, out);
    pkts += net::kBurstSize;
    out += net::kBurstSize;
    n -= net::kBurstSize;
  }
  if (n > 0) process_chunk(w, pkts, n, out);
}

void CompiledDatapath::process_chunk(Worker& w, net::Packet* const* pkts, uint32_t n,
                                     flow::Verdict* out) {
  // Chunk entry is the worker's quiescent point: every pointer from the
  // previous chunk's snapshots is dead, and the fresh snapshots below
  // re-read the trampolines (acquire) — so anything retired before the
  // writer observed this tick can never be loaded again.
  if (w.epoch_ != nullptr) domain_.quiescent(*w.epoch_);

  Stats local;
  local.packets = n;
  // The fused plan is loaded once per chunk: the whole chunk runs against
  // that consistent graph (its impl pointers, not the trampolines), so a
  // concurrent republish only lands at the next chunk — the same staleness
  // bound as the staged snapshots.
  const FusedPipeline* const fp = fused_.load(std::memory_order_acquire);
  const int32_t start = start_.load(std::memory_order_acquire);
  if (ESW_UNLIKELY(start < 0 && fp == nullptr)) {
    local.drops = n;
    for (uint32_t i = 0; i < n; ++i) out[i] = flow::Verdict::drop();
    counter_bump(w.stats_.packets, local.packets);
    counter_bump(w.stats_.drops, local.drops);
    return;
  }

  // Conntrack maintenance rides the chunk boundary: this is a quiescent
  // point, so no Hit pointer from a previous chunk can survive into the
  // expiry/reclaim work poll() does.
  state::Conntrack* const ct = ct_.load(std::memory_order_acquire);
  state::Conntrack::Hit ct_hits[net::kBurstSize];
  uint64_t ct_now = 0;
  if (ESW_UNLIKELY(ct != nullptr)) {
    ct_now = ct->now_ms();
    ct->poll(ct_now);
  }

  // Stage 1: parse the whole burst, the next frame's header line in flight
  // while the current one parses.  Then the conntrack pre-stage runs over
  // the parsed burst — ct_state must be stamped before any lookup can match
  // it.
  const proto::ParserPlan plan = plan_.load(std::memory_order_acquire);
  proto::ParseInfo pis[net::kBurstSize];
  for (uint32_t i = 0; i < n; ++i) {
    if (i + 1 < n) esw_prefetch(pkts[i + 1]->data());
    proto::parse(pkts[i]->data(), pkts[i]->len(), plan, pis[i]);
    pis[i].in_port = pkts[i]->in_port();
  }
  if (ESW_UNLIKELY(ct != nullptr)) {
    const uint8_t* frames[net::kBurstSize] = {};
    for (uint32_t i = 0; i < n; ++i) frames[i] = pkts[i]->data();
    ct->pre_burst(frames, pis, n, ct_hits, ct_now);
  }

  // Fused fast path: the whole goto graph as one plan (machine code where
  // members are direct-code, pinned impls elsewhere).  Falls back to the
  // staged walk below whenever no plan is published.
  if (fp != nullptr) {
    const BurstCtx ctx{pis, ct, ct_hits, ct_now};
    process_chunk_fused(w, *fp, pkts, n, out, ctx);
    return;
  }

  // Stage 2: hoist the per-slot acquire loads and miss policies to once per
  // burst.  Safe under epoch reclamation: a snapshot taken here stays valid
  // for the whole chunk because the writer frees a displaced impl only after
  // this worker's *next* tick.
  ++w.snap_gen_;
  const size_t n_slots = static_cast<size_t>(n_slots_.load(std::memory_order_acquire));
  if (w.snap_.size() < n_slots) w.snap_.resize(n_slots);
  // By value: a mid-chunk goto into a just-allocated slot can grow w.snap_
  // (see snapshot()), which would invalidate a reference held across the loop.
  const SlotSnapshot start_snap = snapshot(w, start);

  // Stage 3: walk each packet with packet i+1's first table lookup lines in
  // flight (software pipelining within the burst), stats in locals.
  if (start_snap.want_prefetch)
    start_snap.impl->prefetch(pkts[0]->data(), pis[0]);
  for (uint32_t i = 0; i < n; ++i) {
    if (i + 1 < n && start_snap.want_prefetch)
      start_snap.impl->prefetch(pkts[i + 1]->data(), pis[i + 1]);

    net::Packet& pkt = *pkts[i];
    proto::ParseInfo& pi = pis[i];
    flow::ActionSetBuilder action_set;
    flow::Verdict v = flow::Verdict::drop();
    int32_t slot = start;
    for (int hops = 0; hops < kMaxHops; ++hops) {
      SlotSnapshot& s = snapshot(w, slot);
      ++s.delta.lookups;
      const uint64_t r =
          s.impl != nullptr ? s.impl->lookup(pkt.data(), pi) : jit::kMissResult;
      if (ESW_UNLIKELY(r == jit::kMissResult)) {
        ++s.delta.misses;
        v = s.miss == flow::FlowTable::MissPolicy::kController
                ? flow::Verdict::controller()
                : flow::Verdict::drop();
        break;
      }
      ++s.delta.hits;
      int32_t action = -1, next = -1;
      jit::unpack_result(r, action, next);
      if (action >= 0) action_set.merge(actions_.get(static_cast<uint32_t>(action)));
      if (next < 0) {
        if (ESW_UNLIKELY(ct != nullptr))
          ct->post(ct_hits[i], action_set.ct_commit(), action_set.ct_profile(),
                   pkt.data(), pi, ct_now);
        v = action_set.execute(pkt, pi);
        break;
      }
      ESW_DCHECK(next < num_slots());
      slot = next;
    }
    count_verdict(v, local);  // the loop-guard fallthrough drop counts too
    out[i] = v;
  }

  // Stage 4: flush the burst's stat deltas in one pass.
  for (const int32_t slot : w.snap_touched_) {
    Slot& s = slots_[slot];
    const TableStats& d = w.snap_[slot].delta;
    counter_add(s.lookups, d.lookups);
    counter_add(s.hits, d.hits);
    counter_add(s.misses, d.misses);
  }
  w.snap_touched_.clear();
  counter_bump(w.stats_.packets, local.packets);
  counter_bump(w.stats_.outputs, local.outputs);
  counter_bump(w.stats_.drops, local.drops);
  counter_bump(w.stats_.to_controller, local.to_controller);
}

void CompiledDatapath::process_chunk_fused(Worker& w, const FusedPipeline& fp,
                                           net::Packet* const* pkts, uint32_t n,
                                           flow::Verdict* out, const BurstCtx& ctx) {
  Stats local;
  local.packets = n;
  const uint32_t n_stages = static_cast<uint32_t>(fp.stages.size());
  if (ESW_UNLIKELY(n_stages == 0)) {  // defensive: never published empty
    local.drops = n;
    for (uint32_t i = 0; i < n; ++i) out[i] = flow::Verdict::drop();
    counter_bump(w.stats_.packets, local.packets);
    counter_bump(w.stats_.drops, local.drops);
    return;
  }
  ESW_DCHECK(fp.start_stage < n_stages);

  // The per-stage stat delta block the machine code increments directly
  // (jit/fusion.hpp layout) and the staged stages share.
  const size_t n_counters = static_cast<size_t>(n_stages) * jit::kFusedStatStride;
  if (w.fused_delta_.size() < n_counters) w.fused_delta_.resize(n_counters);
  std::fill_n(w.fused_delta_.begin(), n_counters, uint64_t{0});
  if (w.fused_actions_.size() < n_stages) w.fused_actions_.resize(n_stages);
  uint64_t* const delta = w.fused_delta_.data();

  // Walk state: cur >= 0 is the packet's stage; -1 = path end reached
  // (finalized in packet order below); -2 = verdict already in vd.
  flow::ActionSetBuilder asb[net::kBurstSize];
  int32_t cur[net::kBurstSize];
  flow::Verdict vd[net::kBurstSize];
  uint32_t live = n;
  for (uint32_t i = 0; i < n; ++i) cur[i] = static_cast<int32_t>(fp.start_stage);

  // Round 0 keeps the staged walk's one-ahead start-stage prefetch.
  const FusedPipeline::Stage& ss = fp.stages[fp.start_stage];
  const bool ahead = ss.want_prefetch && !ss.batched;
  if (ahead) ss.impl->prefetch(pkts[0]->data(), ctx.pis[0]);

  // Batched-stage results of the current round, by packet.  Lookups have no
  // side effects, so probing a round's group up front is observably the
  // same as probing each packet at its turn.
  uint64_t probed[net::kBurstSize];

  // Round-based walk: every live packet advances at least one stage per
  // round (gotos are forward-only in a fused plan), so n_stages rounds
  // finish every packet; anything still live after the clamp takes the
  // same drop the kMaxHops guard applies on the staged paths.
  for (uint32_t round = 0; round <= n_stages && live > 0; ++round) {
    for (const uint32_t bs : fp.batched) {
      uint32_t who[net::kBurstSize];
      const uint8_t* data[net::kBurstSize];
      const proto::ParseInfo* pip[net::kBurstSize];
      uint32_t m = 0;
      for (uint32_t i = 0; i < n; ++i) {
        if (cur[i] != static_cast<int32_t>(bs)) continue;
        who[m] = i;
        data[m] = pkts[i]->data();
        pip[m++] = &ctx.pis[i];
      }
      const FusedPipeline::Stage& st = fp.stages[bs];
      const CompiledTable* impl = st.impl;
      if (m == 1) {
        // A lone packet (the low-rate case) gains nothing from the
        // pipeline: take the scalar probe, primed as the unbatched walk
        // would (both candidate buckets in flight at once).
        if (st.want_prefetch) impl->prefetch(data[0], *pip[0]);
        probed[who[0]] = impl->lookup(data[0], *pip[0]);
      } else if (m > 1) {
        uint64_t res[net::kBurstSize];
        impl->lookup_burst(data, pip, m, res);
        for (uint32_t j = 0; j < m; ++j) probed[who[j]] = res[j];
      }
    }
    for (uint32_t i = 0; i < n; ++i) {
      const int32_t cs = cur[i];
      if (cs < 0) continue;
      if (round == 0 && i + 1 < n && ahead)
        ss.impl->prefetch(pkts[i + 1]->data(), ctx.pis[i + 1]);
      net::Packet& pkt = *pkts[i];
      proto::ParseInfo& pi = ctx.pis[i];
      const FusedPipeline::Stage& s = fp.stages[cs];
      int32_t ts;  // next stage
      if (s.entry != nullptr) {
        // Machine subgraph: runs fused members until the walk completes,
        // misses, or exits toward a staged stage.  Per-stage counters are
        // bumped by the generated code itself.
        const uint64_t word =
            s.entry(pkt.data(), &pi, w.fused_actions_.data(), delta);
        const uint32_t nact = jit::fused_exit_actions(word);
        for (uint32_t k = 0; k < nact; ++k)
          asb[i].merge(actions_.get(static_cast<uint32_t>(w.fused_actions_[k])));
        if (word & jit::kFusedCompleted) {
          cur[i] = -1;
          --live;
          continue;
        }
        if (word & jit::kFusedMiss) {
          const uint32_t ms = jit::fused_exit_stage(word);
          vd[i] = fp.stages[ms].miss == flow::FlowTable::MissPolicy::kController
                      ? flow::Verdict::controller()
                      : flow::Verdict::drop();
          cur[i] = -2;
          --live;
          continue;
        }
        ts = static_cast<int32_t>(jit::fused_exit_stage(word));
      } else {
        // Staged stage inside the plan: pinned impl (or this round's bulk
        // probe), same decode as the slot walk, stats into the shared delta
        // block.
        ++delta[cs * jit::kFusedStatStride + jit::kFusedStatLookups];
        const uint64_t r = s.batched ? probed[i] : s.impl->lookup(pkt.data(), pi);
        if (ESW_UNLIKELY(r == jit::kMissResult)) {
          ++delta[cs * jit::kFusedStatStride + jit::kFusedStatMisses];
          vd[i] = s.miss == flow::FlowTable::MissPolicy::kController
                      ? flow::Verdict::controller()
                      : flow::Verdict::drop();
          cur[i] = -2;
          --live;
          continue;
        }
        ++delta[cs * jit::kFusedStatStride + jit::kFusedStatHits];
        int32_t action = -1, next = -1;
        jit::unpack_result(r, action, next);
        if (action >= 0) asb[i].merge(actions_.get(static_cast<uint32_t>(action)));
        if (next < 0) {
          cur[i] = -1;
          --live;
          continue;
        }
        ts = static_cast<size_t>(next) < fp.stage_of_slot.size()
                 ? fp.stage_of_slot[next]
                 : -1;
      }
      if (ESW_UNLIKELY(ts <= cs || static_cast<uint32_t>(ts) >= n_stages)) {
        vd[i] = flow::Verdict::drop();  // unresolvable/backward: guard drop
        cur[i] = -2;
        --live;
        continue;
      }
      // Transition: issue the next stage's lookup prefetch now, consume it
      // next round — the cross-table extension of the one-ahead pipelining
      // (off for batched stages, whose bulk probe pipelines itself).
      const FusedPipeline::Stage& nx = fp.stages[ts];
      if (nx.want_prefetch && !nx.batched) nx.impl->prefetch(pkt.data(), pi);
      cur[i] = ts;
    }
  }

  // Finalize in packet order: conntrack post-stage + action execution for
  // completed packets — identical ordering and side effects to the staged
  // walk, which finishes packet i before touching packet i+1.
  for (uint32_t i = 0; i < n; ++i) {
    flow::Verdict v = flow::Verdict::drop();
    if (cur[i] == -1) {
      if (ESW_UNLIKELY(ctx.ct != nullptr))
        ctx.ct->post(ctx.ct_hits[i], asb[i].ct_commit(), asb[i].ct_profile(),
                     pkts[i]->data(), ctx.pis[i], ctx.ct_now);
      v = asb[i].execute(*pkts[i], ctx.pis[i]);
    } else if (cur[i] == -2) {
      v = vd[i];
    }
    count_verdict(v, local);
    out[i] = v;
  }

  // Flush the chunk's stat deltas into the owning slots' shared counters.
  for (uint32_t cs = 0; cs < n_stages; ++cs) {
    Slot& s = slots_[fp.stages[cs].slot];
    const uint64_t* d = delta + cs * jit::kFusedStatStride;
    if (d[jit::kFusedStatLookups] != 0)
      counter_add(s.lookups, d[jit::kFusedStatLookups]);
    if (d[jit::kFusedStatHits] != 0) counter_add(s.hits, d[jit::kFusedStatHits]);
    if (d[jit::kFusedStatMisses] != 0)
      counter_add(s.misses, d[jit::kFusedStatMisses]);
  }
  counter_bump(w.stats_.packets, local.packets);
  counter_bump(w.stats_.outputs, local.outputs);
  counter_bump(w.stats_.drops, local.drops);
  counter_bump(w.stats_.to_controller, local.to_controller);
}

// --- introspection -----------------------------------------------------------

CompiledDatapath::TableStats CompiledDatapath::table_stats(int32_t slot) const {
  const Slot& s = slots_[slot];
  return {s.lookups.load(std::memory_order_relaxed),
          s.hits.load(std::memory_order_relaxed),
          s.misses.load(std::memory_order_relaxed)};
}

CompiledDatapath::Stats CompiledDatapath::stats() const {
  Stats out;
  for (uint32_t i = 0; i <= kMaxWorkers; ++i) {
    const Worker::StatBlock& b = workers_[i].stats_;
    out.packets += b.packets.load(std::memory_order_relaxed);
    out.outputs += b.outputs.load(std::memory_order_relaxed);
    out.drops += b.drops.load(std::memory_order_relaxed);
    out.to_controller += b.to_controller.load(std::memory_order_relaxed);
  }
  return out;
}

void CompiledDatapath::clear_stats() {
  for (uint32_t i = 0; i <= kMaxWorkers; ++i) {
    Worker::StatBlock& b = workers_[i].stats_;
    b.packets.store(0, std::memory_order_relaxed);
    b.outputs.store(0, std::memory_order_relaxed);
    b.drops.store(0, std::memory_order_relaxed);
    b.to_controller.store(0, std::memory_order_relaxed);
  }
  const int32_t n = n_slots_.load(std::memory_order_relaxed);
  for (int32_t i = 0; i < n; ++i) {
    slots_[i].lookups.store(0, std::memory_order_relaxed);
    slots_[i].hits.store(0, std::memory_order_relaxed);
    slots_[i].misses.store(0, std::memory_order_relaxed);
  }
}

CompiledDatapath::ReclaimStats CompiledDatapath::reclaim_stats() const {
  uint64_t internal_pending = 0;
  for (const auto& t : live_) internal_pending += t->retired_pending();
  return {retired_impls_.retired_total() + retired_slots_.retired_total() +
              retired_fused_.retired_total(),
          retired_impls_.reclaimed_total() + retired_slots_.reclaimed_total() +
              retired_fused_.reclaimed_total(),
          retired_impls_.pending() + retired_slots_.pending() +
              retired_fused_.pending(),
          internal_pending};
}

size_t CompiledDatapath::memory_bytes() const {
  size_t n = 0;
  for (const auto& t : live_) n += t->memory_bytes();
  return n;
}

}  // namespace esw::core
