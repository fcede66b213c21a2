// common::HugeArray: 2 MB alignment for arrays of 2 MB or more, cache-line
// alignment below, value-constructed elements, move semantics, and storage
// that goes back to the system when an array is destroyed.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>

#include "common/huge_array.hpp"
#include "state/conntrack.hpp"

namespace esw {
namespace {

using common::HugeArray;
using common::kHugePageBytes;

// ASan holds freed blocks in its quarantine (256 MB by default) before it
// returns them, so under ASan that much more may stay resident by design;
// a leak of the arrays below would still leave about 1 GB.
#if defined(__SANITIZE_ADDRESS__)
constexpr long kFreeLagMb = 256;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr long kFreeLagMb = 256;
#else
constexpr long kFreeLagMb = 0;
#endif
#else
constexpr long kFreeLagMb = 0;
#endif

bool aligned_to(const void* p, size_t a) { return reinterpret_cast<uintptr_t>(p) % a == 0; }

/// Resident set of this process in kB (VmRSS in /proc/self/status).
long vm_rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmRSS:", 0) == 0) return std::strtol(line.c_str() + 6, nullptr, 10);
  return -1;
}

TEST(HugeArray, LargeArrayIsHugePageAlignedAndZeroed) {
  const size_t n = (kHugePageBytes / sizeof(uint32_t)) * 3 + 17;  // not a page multiple
  HugeArray<std::atomic<uint32_t>> a(n);
  ASSERT_EQ(a.size(), n);
  EXPECT_TRUE(aligned_to(a.data(), kHugePageBytes));
  size_t nonzero = 0;
  for (const auto& x : a) nonzero += x.load(std::memory_order_relaxed) != 0;
  EXPECT_EQ(nonzero, 0u);
  a[n - 1].store(7, std::memory_order_relaxed);
  EXPECT_EQ(a[n - 1].load(std::memory_order_relaxed), 7u);
}

TEST(HugeArray, SmallEntryArrayIsLineAlignedAndDefaultConstructed) {
  using Entry = state::Conntrack::Entry;
  HugeArray<Entry> a(5);
  ASSERT_EQ(a.size(), 5u);
  EXPECT_TRUE(aligned_to(a.data(), 64));
  for (const Entry& e : a) {
    EXPECT_EQ(e.next[0].load(), state::Conntrack::kNil);
    EXPECT_EQ(e.next[1].load(), state::Conntrack::kNil);
    EXPECT_TRUE(e.dead.load());
    EXPECT_EQ(e.gen.load(), 0u);
  }
  HugeArray<uint8_t> bytes(3);  // alignof 1 still gets a whole line
  EXPECT_TRUE(aligned_to(bytes.data(), 64));
}

TEST(HugeArray, MoveLeavesSourceEmpty) {
  HugeArray<uint64_t> a(1000);
  a[999] = 42;
  uint64_t* const storage = a.data();

  HugeArray<uint64_t> b(std::move(a));
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(a.begin(), a.end());
  EXPECT_EQ(b.data(), storage);
  EXPECT_EQ(b.size(), 1000u);
  EXPECT_EQ(b[999], 42u);

  HugeArray<uint64_t> c(10);
  c = std::move(b);  // frees c's old storage
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.data(), nullptr);
  EXPECT_EQ(c.data(), storage);
  EXPECT_EQ(c[999], 42u);

  HugeArray<uint64_t> empty;
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.data(), nullptr);
}

TEST(HugeArray, DestroyedArraysReturnTheirMemory) {
  // Sixteen tbl24-sized arrays one after another: if destruction leaked
  // storage, the process would keep about 1 GB resident.
  const long before = vm_rss_kb();
  ASSERT_GT(before, 0);
  for (int i = 0; i < 16; ++i) {
    HugeArray<std::atomic<uint32_t>> a(size_t{1} << 24);  // 64 MB
    a[i].store(1, std::memory_order_relaxed);
  }
  const long grown_mb = (vm_rss_kb() - before) / 1024;
  EXPECT_LT(grown_mb, 128 + kFreeLagMb) << "VmRSS grew by " << grown_mb << " MB";
}

}  // namespace
}  // namespace esw
