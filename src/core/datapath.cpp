#include "core/datapath.hpp"

#include "common/bits.hpp"
#include "common/check.hpp"
#include "common/failpoint.hpp"
#include "core/dataplane.hpp"
#include "state/conntrack.hpp"

namespace esw::core {

CompiledDatapath::CompiledDatapath()
    : slots_(new Slot[kMaxSlots]), workers_(new Worker[kMaxWorkers + 1]) {
  for (uint32_t i = 0; i <= kMaxWorkers; ++i) workers_[i].id_ = i;
}

// --- control plane -----------------------------------------------------------

int32_t CompiledDatapath::add_slot() {
  int32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = n_slots_.load(std::memory_order_relaxed);
    ESW_CHECK_MSG(slot < kMaxSlots, "out of trampoline slots");
    n_slots_.store(slot + 1, std::memory_order_release);
  }
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
  unpublished_.impls.push_back(take_live(old));
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
  // bursts that start after the swap, so the impl goes to the domain's queue
  // and the slot id is recycled on the same grace period (stamp_unpublished,
  // recycle_slot).
  unpublished_.slots.push_back(slot);
}

void CompiledDatapath::recycle_slot(int32_t slot) {
  // Grace period over: no worker can reach this slot anymore (every burst
  // started after the root swap), so unpublishing it and zeroing the
  // counters cannot race anything.  Its impl went to the domain's queue
  // with a stamp no earlier than the slot's.
  slots_[slot].impl.store(nullptr, std::memory_order_relaxed);
  slots_[slot].stats.clear();
  free_slots_.push_back(slot);
}

// Stamps everything displaced since the last pass.  Not at the swap: the
// published plan pins impls and slots until the writer republishes it, and
// packet workers advance the epoch too (conntrack expiry and eviction), so a
// stamp taken at the swap can fall behind the epoch a worker ticks in while
// it still loads the old plan, and that worker's impl would be freed under
// it.  The stamps are read after an advance of the writer's own, after the
// republish: a worker that ticks in any later epoch has synchronized with it
// and loads the new plan.
void CompiledDatapath::stamp_unpublished() {
  Unpublished& u = unpublished_;
  if (u.impls.empty() && u.slots.empty() && u.plans.empty()) return;
  domain_.advance();
  for (auto& t : u.impls) domain_.retire(std::move(t));
  for (const int32_t slot : u.slots) {
    // The id is stamped no later than its impl, so the pass that frees the
    // impl (still published in the slot) also recycles the slot.
    retired_slots_.push_back({domain_.current_epoch(), slot});
    if (CompiledTable* t = slots_[slot].impl.load(std::memory_order_relaxed))
      domain_.retire(take_live(t));
  }
  for (auto& p : u.plans) domain_.retire(std::move(p));
  u = {};
}

void CompiledDatapath::reclaim() {
  // Injectable stall: skip this pass as if no grace period had elapsed.
  // Retirements stay pending, unstamped (bounded growth, audited by the
  // soak's reclaim check), until a later pass runs with the point disarmed.
  if (ESW_FAILPOINT("epoch.reclaim")) return;
  stamp_unpublished();
  if (domain_.pending() == 0 && retired_slots_.empty()) return;
  const uint64_t horizon = domain_.reclaim();
  auto it = retired_slots_.begin();
  for (; it != retired_slots_.end() && it->epoch < horizon; ++it) recycle_slot(it->slot);
  retired_slots_.erase(retired_slots_.begin(), it);
}

void CompiledDatapath::set_fused(std::unique_ptr<FusedPipeline> fused) {
  fused_.store(fused.get(), std::memory_order_release);
  if (fused_live_ != nullptr) unpublished_.plans.push_back(std::move(fused_live_));
  fused_live_ = std::move(fused);
}

void CompiledDatapath::reset() {
  ESW_CHECK_MSG(!domain_.has_workers(),
                "reset()/install() is stop-the-world: unregister workers first");
  stamp_unpublished();  // no workers: every retiree is freed now
  domain_.reclaim();
  retired_slots_.clear();
  const int32_t n = n_slots_.load(std::memory_order_relaxed);
  for (int32_t i = 0; i < n; ++i) {
    slots_[i].impl.store(nullptr, std::memory_order_relaxed);
    slots_[i].stats.clear();
  }
  n_slots_.store(0, std::memory_order_release);
  free_slots_.clear();
  live_.clear();
  fused_.store(nullptr, std::memory_order_release);
  fused_live_.reset();
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
  net::Packet* p = &pkt;
  flow::Verdict v;
  process_chunk<1>(w, &p, 1, &v, trace);
  return v;
}

void CompiledDatapath::process_burst(Worker& w, net::Packet* const* pkts, uint32_t n,
                                     flow::Verdict* out) {
  while (n > net::kBurstSize) {
    process_chunk<net::kBurstSize>(w, pkts, net::kBurstSize, out, nullptr);
    pkts += net::kBurstSize;
    out += net::kBurstSize;
    n -= net::kBurstSize;
  }
  if (n > 0) process_chunk<net::kBurstSize>(w, pkts, n, out, nullptr);
}

/// The one packet walk.  `kCap` bounds `n` and sizes the per-packet scratch,
/// so a burst of one (process()) builds one packet's parse, action-set and
/// verdict state instead of a full burst's.
template <uint32_t kCap>
void CompiledDatapath::process_chunk(Worker& w, net::Packet* const* pkts, uint32_t n,
                                     flow::Verdict* out, MemTrace* trace) {
  ESW_DCHECK(n <= kCap);
  // Chunk entry is the worker's quiescent point: nothing from the previous
  // chunk survives, and the plan loaded below pins impls that stay alive
  // until this worker's next tick.
  if (w.epoch_ != nullptr) domain_.quiescent(*w.epoch_);

  Stats local;
  local.packets = n;
  // The plan is loaded once per chunk: the whole chunk runs against that
  // consistent graph (its impl pointers, not the trampolines), so a
  // concurrent republish only lands at the next chunk.
  const FusedPipeline* const fp = fused_.load(std::memory_order_acquire);
  if (ESW_UNLIKELY(fp == nullptr)) {  // empty datapath: drop everything
    local.drops = n;
    for (uint32_t i = 0; i < n; ++i) out[i] = flow::Verdict::drop();
    w.stats_.bump(local);
    return;
  }
  const uint32_t n_stages = static_cast<uint32_t>(fp->stages.size());

  // Conntrack maintenance rides the chunk boundary: this is a quiescent
  // point, so no Hit pointer from a previous chunk can survive into the
  // expiry/reclaim work poll() does.
  state::Conntrack* const ct = ct_.load(std::memory_order_acquire);
  state::Conntrack::Hit ct_hits[kCap];
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
  proto::ParseInfo pis[kCap];
  for (uint32_t i = 0; i < n; ++i) {
    if (i + 1 < n) esw_prefetch(pkts[i + 1]->data());
    proto::parse(pkts[i]->data(), pkts[i]->len(), plan, pis[i]);
    pis[i].in_port = pkts[i]->in_port();
    if (ESW_UNLIKELY(trace != nullptr)) trace->touch(pkts[i]->data(), 64);
  }
  if (ESW_UNLIKELY(ct != nullptr)) {
    const uint8_t* frames[kCap] = {};
    for (uint32_t i = 0; i < n; ++i) frames[i] = pkts[i]->data();
    ct->pre_burst(frames, pis, n, ct_hits, ct_now);
  }

  // Stage 2: walk the plan.  The delta block the machine code increments
  // (jit/fusion.hpp layout) is all zero between chunks; only the stages this
  // chunk touches are recorded, flushed and re-zeroed below, so the cost of
  // a chunk scales with the stages it visits, not with the plan's size.
  const size_t n_counters = static_cast<size_t>(n_stages) * jit::kFusedStatStride;
  if (w.delta_.size() < n_counters) w.delta_.resize(n_counters);
  if (w.actions_.size() < n_stages) w.actions_.resize(n_stages);
  uint64_t* const delta = w.delta_.data();
  // A stage enters the touched list, with the rest of its region, at its
  // first lookup of the chunk: a machine call may bump any stage of its
  // entry stage's region (a pinned-impl stage is a region of one).
  // Duplicates are harmless — the flush skips a stage whose lookups it
  // already zeroed.
  const auto touch = [&](uint32_t cs) {
    if (delta[cs * jit::kFusedStatStride + jit::kFusedStatLookups] != 0) return;
    uint32_t k = cs;
    do {
      w.touched_.push_back(k);
      k = fp->stages[k].region_next;
    } while (k != cs);
  };

  // Walk state: cur >= 0 is the packet's stage; -1 = path end reached
  // (finalized in packet order below); -2 = verdict already in vd.
  flow::ActionSetBuilder asb[kCap];
  int32_t cur[kCap];
  flow::Verdict vd[kCap];
  uint32_t live = n;
  for (uint32_t i = 0; i < n; ++i) cur[i] = 0;  // every walk starts at stage 0

  // Round 0 runs a one-ahead start-stage prefetch across the burst.
  const FusedPipeline::Stage& ss = fp->stages[0];
  const bool ahead = ss.want_prefetch && !ss.batched;
  if (ahead) ss.impl->prefetch(pkts[0]->data(), pis[0]);

  // Batched-stage results of the current round, by packet.  Lookups have no
  // side effects, so probing a round's group up front is observably the
  // same as probing each packet at its turn.  A traced walk probes every
  // stage through lookup(…, trace) instead.
  uint64_t probed[kCap] = {};
  const bool bulk = trace == nullptr;

  // Round-based walk: every live packet advances at least one stage per
  // round (gotos only go forward in a plan), so n_stages rounds finish every
  // packet; anything still live after the clamp is dropped.
  for (uint32_t round = 0; round <= n_stages && live > 0; ++round) {
    if (bulk) {
      for (const uint32_t bs : fp->batched) {
        uint32_t who[kCap];
        const uint8_t* data[kCap];
        const proto::ParseInfo* pip[kCap];
        uint32_t m = 0;
        for (uint32_t i = 0; i < n; ++i) {
          if (cur[i] != static_cast<int32_t>(bs)) continue;
          who[m] = i;
          data[m] = pkts[i]->data();
          pip[m++] = &pis[i];
        }
        const FusedPipeline::Stage& st = fp->stages[bs];
        const CompiledTable* impl = st.impl;
        if (m == 1) {
          // A lone packet (the low-rate case) gains nothing from the
          // pipeline: take the scalar probe, primed (both candidate buckets
          // in flight at once).
          if (st.want_prefetch) impl->prefetch(data[0], *pip[0]);
          probed[who[0]] = impl->lookup(data[0], *pip[0]);
        } else if (m > 1) {
          uint64_t res[kCap];
          impl->lookup_burst(data, pip, m, res);
          for (uint32_t j = 0; j < m; ++j) probed[who[j]] = res[j];
        }
      }
    }
    for (uint32_t i = 0; i < n; ++i) {
      const int32_t cs = cur[i];
      if (cs < 0) continue;
      if (round == 0 && i + 1 < n && ahead)
        ss.impl->prefetch(pkts[i + 1]->data(), pis[i + 1]);
      net::Packet& pkt = *pkts[i];
      proto::ParseInfo& pi = pis[i];
      const FusedPipeline::Stage& s = fp->stages[cs];
      touch(static_cast<uint32_t>(cs));
      int32_t ts;  // next stage
      if (s.entry != nullptr && bulk) {
        // Machine subgraph: runs fused members until the walk completes,
        // misses, or exits toward a pinned-impl stage.  Per-stage counters
        // are bumped by the generated code itself.
        const uint64_t word = s.entry(pkt.data(), &pi, w.actions_.data(), delta);
        const uint32_t nact = jit::fused_exit_actions(word);
        for (uint32_t k = 0; k < nact; ++k)
          asb[i].merge(actions_.get(static_cast<uint32_t>(w.actions_[k])));
        if (word & jit::kFusedCompleted) {
          cur[i] = -1;
          --live;
          continue;
        }
        if (word & jit::kFusedMiss) {
          const uint32_t ms = jit::fused_exit_stage(word);
          vd[i] = fp->stages[ms].miss == flow::FlowTable::MissPolicy::kController
                      ? flow::Verdict::controller()
                      : flow::Verdict::drop();
          cur[i] = -2;
          --live;
          continue;
        }
        ts = static_cast<int32_t>(jit::fused_exit_stage(word));
      } else {
        // Pinned-impl stage: this round's bulk probe or one lookup, stats
        // into the same delta block.
        ++delta[cs * jit::kFusedStatStride + jit::kFusedStatLookups];
        const uint64_t r = s.batched && bulk ? probed[i]
                                             : s.impl->lookup(pkt.data(), pi, trace);
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
        ts = static_cast<size_t>(next) < fp->stage_of_slot.size()
                 ? fp->stage_of_slot[next]
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
      const FusedPipeline::Stage& nx = fp->stages[ts];
      if (nx.want_prefetch && !nx.batched) nx.impl->prefetch(pkt.data(), pi);
      cur[i] = ts;
    }
  }

  // Stage 3: finalize in packet order — conntrack post-stage + action
  // execution for completed packets, packet i before packet i+1.
  for (uint32_t i = 0; i < n; ++i) {
    flow::Verdict v = flow::Verdict::drop();
    if (cur[i] == -1) {
      if (ESW_UNLIKELY(ct != nullptr))
        ct->post(ct_hits[i], asb[i].ct_commit(), asb[i].ct_profile(),
                 pkts[i]->data(), pis[i], ct_now);
      v = asb[i].execute(*pkts[i], pis[i]);
    } else if (cur[i] == -2) {
      v = vd[i];
    }
    count_verdict(v, local);
    out[i] = v;
  }

  // Stage 4: flush the touched stages' deltas into their slots' shared
  // counters and re-zero them.
  for (const uint32_t cs : w.touched_) {
    uint64_t* d = delta + cs * jit::kFusedStatStride;
    if (d[jit::kFusedStatLookups] == 0) continue;
    slots_[fp->stages[cs].slot].stats.add(
        {d[jit::kFusedStatLookups], d[jit::kFusedStatHits], d[jit::kFusedStatMisses]});
    d[jit::kFusedStatLookups] = d[jit::kFusedStatHits] = d[jit::kFusedStatMisses] = 0;
  }
  w.touched_.clear();
  w.stats_.bump(local);
}

// --- introspection -----------------------------------------------------------

CompiledDatapath::TableStats CompiledDatapath::table_stats(int32_t slot) const {
  return slots_[slot].stats.load();
}

CompiledDatapath::Stats CompiledDatapath::stats() const {
  Stats out;
  for (uint32_t i = 0; i <= kMaxWorkers; ++i) workers_[i].stats_.add_to(out);
  return out;
}

void CompiledDatapath::clear_stats() {
  for (uint32_t i = 0; i <= kMaxWorkers; ++i) workers_[i].stats_.clear();
  const int32_t n = n_slots_.load(std::memory_order_relaxed);
  for (int32_t i = 0; i < n; ++i) slots_[i].stats.clear();
}

CompiledDatapath::ReclaimStats CompiledDatapath::reclaim_stats() const {
  // Displaced but not yet stamped counts as retired and pending.
  const uint64_t unstamped =
      unpublished_.impls.size() + unpublished_.slots.size() + unpublished_.plans.size();
  return {domain_.retired() + unstamped, domain_.reclaimed(), domain_.pending() + unstamped};
}

size_t CompiledDatapath::memory_bytes() const {
  size_t n = 0;
  for (const auto& t : live_) n += t->memory_bytes();
  return n;
}

}  // namespace esw::core
