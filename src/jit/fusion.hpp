// Whole-pipeline fusion (ROADMAP item 3): the goto graph's direct-code
// members compiled into ONE function, with inter-table dispatch resolved at
// compile time.  This is the switch's only machine code.
//
// Each member renders the paper's direct-code shape (§3.1): its entry chain
// of per-flow compare-and-branch blocks, keys patched into the instruction
// stream (§3.3).  The members share one code buffer, and a hit whose goto
// targets another fused stage becomes a plain `jmp` to that stage's first
// entry — no packed-result round trip, no slot lookup, no indirect call.
// Action-set ids are *sunk into the match code* (the hit site appends the
// constant id to a caller array), and per-stage lookup/hit/miss counters
// are bumped directly in machine code so machine stages keep table-stats
// parity with pinned-impl stages.
//
// Fused functions use this SysV signature:
//
//   uint64_t fn(const uint8_t* pkt,            // rdi
//               const proto::ParseInfo* pi,    // rsi
//               int32_t* actions,              // rdx -> parked in r8
//               uint64_t* stats);              // rcx -> parked in r9
//
// `actions` receives the action-set ids of every hit on the walk (append
// order = table order); `stats` is a per-worker delta block laid out as
// stats[stage * 3 + {lookups,hits,misses}].  The return value encodes where
// the walk left the fused subgraph:
//
//   bit 63          walk completed (last hit had no goto) — verdict is the
//                   accumulated action set
//   bit 62          table miss at stage = low 32 bits — caller applies that
//                   stage's miss policy
//   neither         external goto: the walk must continue at stage = low
//                   32 bits (a stage outside the program) on its pinned impl
//   bits 32..61     number of action ids appended to `actions`
//
// Non-direct-code stages (hash / LPM / range / linked-list) stay in the
// datapath's C++ walk; the fused program exposes one entry point per member so
// the walk can re-enter machine code whenever control returns to a fused
// stage.  Everything here is immutable after compile — churn publishes a new
// FusedProgram through the epoch domain exactly like a table impl.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "jit/exec_mem.hpp"
#include "jit/ir.hpp"

namespace esw::jit {

/// Exit-word markers (see the file comment for the full encoding).
inline constexpr uint64_t kFusedCompleted = uint64_t{1} << 63;
inline constexpr uint64_t kFusedMiss = uint64_t{1} << 62;

/// Stage index the exit word points at (miss stage or external-goto target).
inline uint32_t fused_exit_stage(uint64_t w) {
  return static_cast<uint32_t>(w & 0xFFFFFFFFu);
}

/// How many action-set ids the walk appended to the `actions` array.
inline uint32_t fused_exit_actions(uint64_t w) {
  return static_cast<uint32_t>((w >> 32) & 0x3FFFFFFFu);
}

/// Per-stage stat layout inside the caller's delta block.
inline constexpr uint32_t kFusedStatStride = 3;
inline constexpr uint32_t kFusedStatLookups = 0;
inline constexpr uint32_t kFusedStatHits = 1;
inline constexpr uint32_t kFusedStatMisses = 2;

/// One compiled function covering every direct-code member of a pipeline.
class FusedProgram {
 public:
  using Fn = uint64_t (*)(const uint8_t* pkt, const proto::ParseInfo* pi,
                          int32_t* actions, uint64_t* stats);

  /// One fusable stage: its position in the pipeline walk order and its
  /// lowered entry chain (borrowed only for the duration of compile()).
  struct Member {
    uint32_t stage = 0;
    const std::vector<LoweredEntry>* entries = nullptr;
  };

  /// Compiles the members (sorted ascending by stage) into one buffer.
  /// `stage_of_slot[slot]` maps a packed-result goto slot to its stage index
  /// (-1 = unknown); `n_stages` bounds both maps.  Returns nullptr when
  /// executable memory is unavailable, linking fails, or a goto target
  /// cannot be resolved to a forward stage — the caller publishes the plan
  /// without a program (and may retry per the jit fallback policy).
  static std::shared_ptr<const FusedProgram> compile(
      const std::vector<Member>& members, const std::vector<int32_t>& stage_of_slot,
      uint32_t n_stages);

  /// Entry point for a member stage; nullptr for non-member stages.
  Fn entry(uint32_t stage) const {
    return stage < entries_.size() ? entries_[stage] : nullptr;
  }

  size_t code_size() const { return buf_->code_size(); }
  uint32_t n_members() const { return n_members_; }

 private:
  FusedProgram() = default;

  std::unique_ptr<ExecBuffer> buf_;
  std::vector<Fn> entries_;  // indexed by stage, nullptr = not fused
  uint32_t n_members_ = 0;
};

}  // namespace esw::jit
