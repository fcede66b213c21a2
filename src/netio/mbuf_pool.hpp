// Fixed-size packet-buffer pool with a freelist, modeled on DPDK mempools.
//
// Allocation never touches the system allocator after construction; the
// datapath allocates and frees buffers in O(1).  The buffers live in one
// common::HugeArray, on 2 MB pages where the kernel allows them, as DPDK
// mempools live in hugepage memory: a pool is a few dozen page faults at
// construction whether its storage is a fresh mapping or reused heap, and
// workers cycling through thousands of buffers stay within a few TLB entries.
//
// Threading: the shared freelist is mutex-protected (any thread may
// alloc/free), and workers are expected to go through a per-worker MbufCache
// — DPDK's per-lcore cache — which trades bulk transfers against the shared
// list for lock-free per-packet alloc/free on the hot path.  Single-threaded
// users keep calling the pool directly; the uncontended mutex costs a couple
// of atomic operations.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/huge_array.hpp"
#include "netio/packet.hpp"

namespace esw::net {

class MbufPool {
 public:
  explicit MbufPool(uint32_t capacity);

  /// Takes a buffer from the pool, or nullptr when exhausted.
  Packet* alloc();

  /// Returns a buffer to the pool.  Must have come from this pool.
  void free(Packet* pkt);

  /// Bulk variants (one lock per burst; what MbufCache refills with).
  uint32_t alloc_bulk(Packet** out, uint32_t n);
  void free_bulk(Packet* const* pkts, uint32_t n);

  uint32_t capacity() const { return capacity_; }
  uint32_t available() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<uint32_t>(free_.size());
  }
  uint64_t alloc_failures() const {
    return alloc_failures_.load(std::memory_order_relaxed);
  }

 private:
  uint32_t capacity_;
  common::HugeArray<Packet> storage_;
  mutable std::mutex mu_;
  std::vector<Packet*> free_;
  std::atomic<uint64_t> alloc_failures_{0};
};

/// Per-worker buffer cache in front of a shared MbufPool (DPDK's per-lcore
/// mempool cache).  Not thread-safe itself — exactly one worker drives it.
/// alloc()/free() run lock-free against the local array; only a refill or a
/// spill takes the pool lock, moving kBulk buffers at once.
class MbufCache {
 public:
  static constexpr uint32_t kBulk = 32;

  explicit MbufCache(MbufPool& pool, uint32_t cache_size = 128)
      : pool_(&pool), cap_(cache_size < kBulk ? kBulk : cache_size) {
    local_.reserve(cap_ + kBulk);
  }
  ~MbufCache() { flush(); }

  MbufCache(const MbufCache&) = delete;
  MbufCache& operator=(const MbufCache&) = delete;

  Packet* alloc() {
    if (local_.empty()) {
      local_.resize(kBulk);
      const uint32_t got = pool_->alloc_bulk(local_.data(), kBulk);
      local_.resize(got);
      if (got == 0) return nullptr;
    }
    Packet* p = local_.back();
    local_.pop_back();
    return p;
  }

  void free(Packet* pkt) {
    local_.push_back(pkt);
    if (local_.size() > cap_) {
      pool_->free_bulk(local_.data() + local_.size() - kBulk, kBulk);
      local_.resize(local_.size() - kBulk);
    }
  }

  /// Returns every cached buffer to the shared pool.
  void flush() {
    if (!local_.empty()) {
      pool_->free_bulk(local_.data(), static_cast<uint32_t>(local_.size()));
      local_.clear();
    }
  }

  MbufPool& pool() { return *pool_; }

 private:
  MbufPool* pool_;
  uint32_t cap_;
  std::vector<Packet*> local_;
};

}  // namespace esw::net
