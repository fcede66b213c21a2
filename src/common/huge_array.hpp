// Fixed-size, owning, move-only array whose large instances live on 2 MB
// pages — the storage under the tables the packet path probes at random
// (LPM tbl24/tbl8, cuckoo slot words, the conntrack slab and bucket heads)
// and the packet buffers of net::MbufPool.
//
// A random probe into a multi-megabyte array on 4 KB pages misses the TLB
// almost every time, and inside a VM each miss is a two-level (guest plus
// host) page walk.  DPDK keeps rte_lpm and its hash tables in hugepage
// memory for this reason (§3.1's LPM template comes from rte_lpm).  Here an
// array of 2 MB or more is allocated 2 MB-aligned, its size rounded up to
// whole 2 MB pages, and advised MADV_HUGEPAGE before its first touch, so
// transparent huge pages back it when the kernel allows them (THP mode
// `always` or `madvise`).  A refused advice (THP `never`, no kernel support)
// leaves the array on 4 KB pages: same contents, no error, no option.
// Smaller arrays are only cache-line aligned.
//
// Every element is value-constructed in the constructor, so every page is
// faulted at build time on the constructing (control) thread and never on
// the packet path.  Storage comes from std::aligned_alloc rather than mmap so
// the sanitizers keep seeing these arrays.
#pragma once

#include <sys/mman.h>

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace esw::common {

/// Size and alignment of one transparent huge page on x86-64.
inline constexpr size_t kHugePageBytes = size_t{2} << 20;

template <typename T>
class HugeArray {
 public:
  HugeArray() = default;

  explicit HugeArray(size_t n) : n_(n) {
    static_assert(std::is_nothrow_default_constructible_v<T>,
                  "construction must not throw between allocation and use");
    if (n == 0) return;
    const size_t bytes = n * sizeof(T);
    const bool huge = bytes >= kHugePageBytes;
    const size_t align = huge ? kHugePageBytes : std::max<size_t>(alignof(T), 64);
    const size_t rounded = (bytes + align - 1) / align * align;  // aligned_alloc's rule
    void* p = std::aligned_alloc(align, rounded);
    if (p == nullptr) throw std::bad_alloc();
    if (huge) (void)::madvise(p, rounded, MADV_HUGEPAGE);  // refused: 4 KB pages
    data_ = static_cast<T*>(p);
    std::uninitialized_value_construct_n(data_, n);
  }

  HugeArray(HugeArray&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)), n_(std::exchange(o.n_, 0)) {}
  HugeArray& operator=(HugeArray&& o) noexcept {
    if (this != &o) {
      release();
      data_ = std::exchange(o.data_, nullptr);
      n_ = std::exchange(o.n_, 0);
    }
    return *this;
  }
  HugeArray(const HugeArray&) = delete;
  HugeArray& operator=(const HugeArray&) = delete;
  ~HugeArray() { release(); }

  /// Like unique_ptr<T[]>: the array's constness does not reach its elements.
  T& operator[](size_t i) const { return data_[i]; }
  T* data() const { return data_; }
  size_t size() const { return n_; }
  T* begin() const { return data_; }
  T* end() const { return data_ + n_; }

 private:
  void release() {
    if (data_ == nullptr) return;
    std::destroy_n(data_, n_);
    std::free(data_);
  }

  T* data_ = nullptr;
  size_t n_ = 0;
};

}  // namespace esw::common
