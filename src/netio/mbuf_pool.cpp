#include "netio/mbuf_pool.hpp"

#include "common/check.hpp"
#include "common/failpoint.hpp"

namespace esw::net {

MbufPool::MbufPool(uint32_t capacity) : capacity_(capacity) {
  ESW_CHECK(capacity > 0);
  storage_ = common::HugeArray<Packet>(capacity);
  free_.reserve(capacity);
  for (uint32_t i = 0; i < capacity; ++i) free_.push_back(&storage_[i]);
}

Packet* MbufPool::alloc() {
  // Injectable exhaustion: the caller sees the same nullptr it would on a
  // genuinely empty pool, so every degradation path downstream is reachable.
  if (ESW_FAILPOINT("mbuf.alloc")) {
    alloc_failures_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (free_.empty()) {
    alloc_failures_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  Packet* p = free_.back();
  free_.pop_back();
  return p;
}

void MbufPool::free(Packet* pkt) {
  ESW_DCHECK(pkt >= storage_.data() && pkt < storage_.data() + capacity_);
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(pkt);
}

uint32_t MbufPool::alloc_bulk(Packet** out, uint32_t n) {
  if (ESW_FAILPOINT("mbuf.alloc")) {
    alloc_failures_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  std::lock_guard<std::mutex> lock(mu_);
  const uint32_t got = n < free_.size() ? n : static_cast<uint32_t>(free_.size());
  for (uint32_t i = 0; i < got; ++i) {
    out[i] = free_.back();
    free_.pop_back();
  }
  if (got < n) alloc_failures_.fetch_add(1, std::memory_order_relaxed);
  return got;
}

void MbufPool::free_bulk(Packet* const* pkts, uint32_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  for (uint32_t i = 0; i < n; ++i) {
    ESW_DCHECK(pkts[i] >= storage_.data() && pkts[i] < storage_.data() + capacity_);
    free_.push_back(pkts[i]);
  }
}

}  // namespace esw::net
