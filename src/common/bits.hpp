// Byte-order and bit-manipulation helpers shared by the packet parser, the
// matcher lowering and the classifier substrates.
//
// All packet fields are big-endian on the wire.  The lowered matcher IR and
// the JIT compare raw little-endian loads against pre-swizzled constants, so
// the helpers here are the single place where the two conventions meet.
#pragma once

#include <cstdint>
#include <cstring>

// Branch-layout and software-prefetch hints used by the burst-mode datapath.
// No-ops on compilers without the GNU builtins so the tree stays portable.
#if defined(__GNUC__) || defined(__clang__)
#define ESW_LIKELY(x) __builtin_expect(!!(x), 1)
#define ESW_UNLIKELY(x) __builtin_expect(!!(x), 0)
#else
#define ESW_LIKELY(x) (x)
#define ESW_UNLIKELY(x) (x)
#endif

namespace esw {

/// Software prefetch into all cache levels (read intent).  `p` may be any
/// address, valid or not — prefetches never fault.
inline void esw_prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

/// Loads a big-endian 16-bit value.
inline uint16_t load_be16(const uint8_t* p) {
  return static_cast<uint16_t>((uint16_t{p[0]} << 8) | uint16_t{p[1]});
}

/// Loads a big-endian 32-bit value.
inline uint32_t load_be32(const uint8_t* p) {
  return (uint32_t{p[0]} << 24) | (uint32_t{p[1]} << 16) | (uint32_t{p[2]} << 8) |
         uint32_t{p[3]};
}

/// Loads a big-endian value of `width` bytes (1..8) into the low bits.
inline uint64_t load_be(const uint8_t* p, unsigned width) {
  uint64_t v = 0;
  for (unsigned i = 0; i < width; ++i) v = (v << 8) | p[i];
  return v;
}

inline void store_be16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v >> 8);
  p[1] = static_cast<uint8_t>(v);
}

inline void store_be32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}

/// Stores the low `width` bytes of `v` big-endian.
inline void store_be(uint8_t* p, uint64_t v, unsigned width) {
  for (unsigned i = 0; i < width; ++i)
    p[i] = static_cast<uint8_t>(v >> (8 * (width - 1 - i)));
}

/// Converts a host-order field value of `width` bytes into the constant a
/// little-endian raw load of those bytes would produce.  Used to pre-swizzle
/// match keys into the lowered IR ("template specialization" in the paper).
inline uint64_t host_to_wire_le(uint64_t value, unsigned width) {
  uint8_t buf[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  store_be(buf, value, width);
  uint64_t v = 0;
  std::memcpy(&v, buf, sizeof buf);
  return v;
}

/// All-ones mask covering `bits` low bits (bits in [0, 64]).
inline uint64_t low_bits(unsigned bits) {
  return bits >= 64 ? ~uint64_t{0} : ((uint64_t{1} << bits) - 1);
}

/// True when `mask` is a prefix mask within a `width_bits` field: some number
/// of leading ones followed only by zeros (e.g. 0xFFFFFF00 for /24 in 32 bits).
inline bool is_prefix_mask(uint64_t mask, unsigned width_bits) {
  const uint64_t full = low_bits(width_bits);
  if ((mask & ~full) != 0) return false;
  const uint64_t inv = (~mask) & full;  // trailing zeros of the mask
  return (inv & (inv + 1)) == 0;        // inv must be of the form 0…01…1
}

/// Number of leading one-bits of a prefix mask within `width_bits`.
inline unsigned prefix_len(uint64_t mask, unsigned width_bits) {
  unsigned len = 0;
  for (unsigned i = 0; i < width_bits; ++i)
    if (mask & (uint64_t{1} << (width_bits - 1 - i)))
      ++len;
    else
      break;
  return len;
}

/// 64-bit mix function (splitmix64 finalizer); used as the hash for all
/// open-addressing tables.  Good avalanche, cheap, seedable.
inline uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Hashes an arbitrary byte string with a seed (FNV-ish accumulate + mix).
inline uint64_t hash_bytes(const uint8_t* p, size_t n, uint64_t seed) {
  uint64_t h = seed ^ 0xcbf29ce484222325ULL;
  while (n >= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    h = mix64(h ^ w);
    p += 8;
    n -= 8;
  }
  uint64_t tail = 0;
  if (n > 0) std::memcpy(&tail, p, n);
  return mix64(h ^ tail ^ (uint64_t{n} << 56));
}

}  // namespace esw
