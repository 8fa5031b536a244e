#pragma once
// Deterministic, seedable PRNGs.
//
// The simulator must be bit-reproducible across runs and platforms, so we do
// not use std::mt19937 through std::uniform_* distributions (whose outputs are
// implementation-defined). SplitMix64 drives seeding; Pcg32 is the workhorse
// generator used by workloads and the network jitter model.

#include <cstdint>

namespace spbc::util {

/// SplitMix64: used to expand a single user seed into independent streams.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

/// PCG32 (pcg_xsh_rr_64_32). Small, fast, statistically solid, and fully
/// deterministic given (seed, stream).
class Pcg32 {
 public:
  Pcg32() : Pcg32(0x853c49e6748fea9bULL, 0xda3e39cb94b95bdbULL) {}

  Pcg32(uint64_t seed, uint64_t stream) {
    state_ = 0u;
    inc_ = (stream << 1u) | 1u;
    next_u32();
    state_ += seed;
    next_u32();
  }

  uint32_t next_u32() {
    uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    uint32_t xorshifted = static_cast<uint32_t>(((old >> 18u) ^ old) >> 27u);
    uint32_t rot = static_cast<uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((~rot + 1u) & 31u));
  }

  uint64_t next_u64() {
    const uint64_t hi = next_u32();  // separate statements fix the draw order
    return (hi << 32) | next_u32();
  }

  /// Uniform in [0, bound) without modulo bias.
  uint32_t next_bounded(uint32_t bound) {
    if (bound == 0) return 0;
    uint32_t threshold = (~bound + 1u) % bound;
    for (;;) {
      uint32_t r = next_u32();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform double in [0, 1): 27 + 26 random bits form a 53-bit mantissa.
  double next_double() {
    const uint32_t a = next_u32() >> 5;
    const uint32_t b = next_u32() >> 6;
    return (static_cast<double>(a) * 67108864.0 + static_cast<double>(b)) *
           (1.0 / 9007199254740992.0);
  }

  /// Uniform double in [lo, hi).
  double next_range(double lo, double hi) { return lo + (hi - lo) * next_double(); }

 private:
  uint64_t state_;
  uint64_t inc_;
};

/// 64-bit FNV-1a, used for payload/trace hashing in the determinism checker.
class Fnv1a64 {
 public:
  static constexpr uint64_t kOffset = 14695981039346656037ULL;
  static constexpr uint64_t kPrime = 1099511628211ULL;

  void update(const void* data, uint64_t len) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (uint64_t i = 0; i < len; ++i) {
      hash_ ^= p[i];
      hash_ *= kPrime;
    }
  }

  void update_u64(uint64_t v) { update(&v, sizeof(v)); }

  uint64_t digest() const { return hash_; }

 private:
  uint64_t hash_ = kOffset;
};

}  // namespace spbc::util
