// Data-parallel scalar/SSE4.2/AVX2 primitives with runtime CPU dispatch —
// the instruction-level substrate under the cola kernel layer
// (cola/kernels.hpp) and the snapshot read path (common/snapshot.hpp).
//
// Three tiers, selected once per process:
//
//   kScalar  plain C++ loops — always compiled, the correctness reference
//            every vector variant is differentially tested against
//            (tests/kernel_test.cpp). Forced with COSTREAM_SIMD=scalar.
//   kSse42   branchless binary search and 2-wide 64-bit compares (PCMPGTQ
//            is an SSE4.2 instruction, which is why this tier exists at
//            all — SSE2 cannot compare packed 64-bit integers).
//   kAvx2    4-wide 64-bit compares + movemask: vectorized lower-bound
//            tails, bulk-advance prefix scans for the merge kernels, and
//            adjacent-duplicate detection for the dedup kernel.
//
// The AVX2/SSE4.2 bodies are compiled via function target attributes, so
// no build flags change and the binary stays runnable on any x86-64: the
// vector bodies are only ever CALLED when cpuid says the ISA exists.
// active_isa() probes cpuid once and honors the COSTREAM_SIMD environment
// override (scalar | sse42 | avx2 | native), clamped to what the CPU
// actually supports — the CI force-scalar leg runs the whole test suite
// with COSTREAM_SIMD=scalar to keep the fallback from rotting.
//
// Only unsigned 64-bit keys (the library default) take the vector paths;
// any other key type transparently falls back to the scalar reference,
// dispatch included — callers never need to care.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define COSTREAM_SIMD_X86 1
#include <immintrin.h>
#endif

namespace costream::simd {

enum class Isa : int { kScalar = 0, kSse42 = 1, kAvx2 = 2 };

inline const char* isa_name(Isa isa) noexcept {
  switch (isa) {
    case Isa::kAvx2: return "avx2";
    case Isa::kSse42: return "sse42";
    default: return "scalar";
  }
}

namespace detail {

inline Isa detect_isa() noexcept {
#if COSTREAM_SIMD_X86
  if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
  if (__builtin_cpu_supports("sse4.2")) return Isa::kSse42;
#endif
  return Isa::kScalar;
}

inline Isa resolve_isa() noexcept {
  const Isa hw = detect_isa();
  const char* env = std::getenv("COSTREAM_SIMD");
  if (env == nullptr || std::strcmp(env, "native") == 0) return hw;
  if (std::strcmp(env, "scalar") == 0) return Isa::kScalar;
  // Requested tiers are clamped to the hardware: asking for avx2 on a
  // machine without it must not crash, it just gives what exists.
  if (std::strcmp(env, "sse42") == 0 || std::strcmp(env, "sse4.2") == 0) {
    return hw < Isa::kSse42 ? hw : Isa::kSse42;
  }
  if (std::strcmp(env, "avx2") == 0) return hw;
  return hw;  // unrecognized value: native behavior
}

}  // namespace detail

/// The process-wide dispatch tier: cpuid, clamped by COSTREAM_SIMD.
/// Resolved once (first call) and constant afterwards.
inline Isa active_isa() noexcept {
  static const Isa isa = detail::resolve_isa();
  return isa;
}

// -- scalar reference kernels (always compiled, any key type) -----------------

/// First index i in [0, n) with !(keys[i] < key) — the textbook branching
/// binary search, kept deliberately plain: this is the reference the
/// vector variants are differentially tested against.
template <class K>
inline std::size_t lower_bound_ref(const K* keys, std::size_t n, const K& key) noexcept {
  std::size_t lo = 0, hi = n;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (keys[mid] < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Count of LEADING elements strictly less than `bound` (stops at the
/// first element >= bound). Scalar reference for the merge kernels'
/// bulk-advance scans.
template <class K>
inline std::size_t prefix_less_ref(const K* keys, std::size_t n, const K& bound) noexcept {
  std::size_t i = 0;
  while (i < n && keys[i] < bound) ++i;
  return i;
}

/// Count of LEADING elements with no adjacent duplicate: the largest m
/// such that keys[i] != keys[i+1] for all i < m (so m <= n - 1 when a
/// duplicate pair exists, n otherwise — the last element never has a
/// successor to collide with). Scalar reference for the dedup kernel.
template <class K>
inline std::size_t prefix_distinct_ref(const K* keys, std::size_t n) noexcept {
  if (n == 0) return 0;
  std::size_t i = 0;
  while (i + 1 < n && !(keys[i] == keys[i + 1])) ++i;
  return i + 1 < n ? i : n;
}

#if COSTREAM_SIMD_X86

// -- vector kernels (u64 keys) ------------------------------------------------
//
// 64-bit unsigned compares: x86 has only SIGNED packed-64 compares, so both
// operands are sign-flipped (xor with 2^63) first — the standard trick.

namespace detail {

inline constexpr std::uint64_t kSignFlip = 0x8000000000000000ull;

__attribute__((target("avx2"))) inline std::size_t
prefix_less_avx2(const std::uint64_t* keys, std::size_t n, std::uint64_t bound) noexcept {
  const __m256i flip = _mm256_set1_epi64x(static_cast<long long>(kSignFlip));
  const __m256i vb =
      _mm256_xor_si256(_mm256_set1_epi64x(static_cast<long long>(bound)), flip);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i vk = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i)), flip);
    // ge mask: keys[i] >= bound  <=>  NOT (keys[i] < bound)
    const __m256i lt = _mm256_cmpgt_epi64(vb, vk);
    const unsigned mask = static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(lt)));
    if (mask != 0xfu) {
      // First zero bit = first element not less than bound.
      return i + static_cast<std::size_t>(__builtin_ctz(~mask & 0xfu));
    }
  }
  for (; i < n && keys[i] < bound; ++i) {
  }
  return i;
}

__attribute__((target("sse4.2"))) inline std::size_t
prefix_less_sse42(const std::uint64_t* keys, std::size_t n, std::uint64_t bound) noexcept {
  const __m128i flip = _mm_set1_epi64x(static_cast<long long>(kSignFlip));
  const __m128i vb =
      _mm_xor_si128(_mm_set1_epi64x(static_cast<long long>(bound)), flip);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i vk = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(keys + i)), flip);
    const __m128i lt = _mm_cmpgt_epi64(vb, vk);
    const unsigned mask = static_cast<unsigned>(_mm_movemask_pd(_mm_castsi128_pd(lt)));
    if (mask != 0x3u) {
      return i + static_cast<std::size_t>(__builtin_ctz(~mask & 0x3u));
    }
  }
  if (i < n && keys[i] < bound) ++i;
  return i;
}

/// Branchless binary search narrowed to a vector linear scan: halving with
/// conditional-move steps (no mispredicts on random probes) keeps the
/// invariant "answer lies in [base, base+len]" until the window fits one
/// scan chunk, then the prefix scan above finishes inside it. Each step
/// prefetches BOTH candidate midpoints of the next level before this
/// level's compare resolves — a cold probe is a serial chain of dependent
/// cache misses (one per halving), and overlapping level d+1's miss with
/// level d's load roughly halves the chain on out-of-cache segments.
__attribute__((target("avx2"))) inline std::size_t
lower_bound_avx2(const std::uint64_t* keys, std::size_t n, std::uint64_t key) noexcept {
  const std::uint64_t* base = keys;
  std::size_t len = n;
  while (len > 32) {
    const std::size_t half = len / 2;
    __builtin_prefetch(base + half / 2 - 1);
    __builtin_prefetch(base + half + (len - half) / 2 - 1);
    base += base[half - 1] < key ? half : 0;  // cmov, no mispredict
    len -= half;
  }
  return static_cast<std::size_t>(base - keys) +
         prefix_less_avx2(base, len, key);
}

__attribute__((target("sse4.2"))) inline std::size_t
lower_bound_sse42(const std::uint64_t* keys, std::size_t n, std::uint64_t key) noexcept {
  const std::uint64_t* base = keys;
  std::size_t len = n;
  while (len > 8) {
    const std::size_t half = len / 2;
    __builtin_prefetch(base + half / 2 - 1);
    __builtin_prefetch(base + half + (len - half) / 2 - 1);
    base += base[half - 1] < key ? half : 0;
    len -= half;
  }
  return static_cast<std::size_t>(base - keys) +
         prefix_less_sse42(base, len, key);
}

/// AVX2 adjacent-duplicate scan: compares keys[i..i+3] against
/// keys[i+1..i+4] four pairs at a time.
__attribute__((target("avx2"))) inline std::size_t
prefix_distinct_avx2(const std::uint64_t* keys, std::size_t n) noexcept {
  if (n == 0) return 0;
  std::size_t i = 0;
  while (i + 5 <= n) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i + 1));
    const __m256i eq = _mm256_cmpeq_epi64(a, b);
    const unsigned mask = static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(eq)));
    if (mask != 0) return i + static_cast<std::size_t>(__builtin_ctz(mask));
    i += 4;
  }
  while (i + 1 < n && keys[i] != keys[i + 1]) ++i;
  return i + 1 < n ? i : n;
}

}  // namespace detail

#endif  // COSTREAM_SIMD_X86

// -- dispatch front ends ------------------------------------------------------
//
// u64 keys route to the tier `isa` selects; every other key type takes the
// scalar reference regardless. All variants return bit-identical results —
// that equivalence is what tests/kernel_test.cpp pins down.

template <class K>
inline std::size_t lower_bound_keys(const K* keys, std::size_t n, const K& key,
                                    Isa isa) noexcept {
#if COSTREAM_SIMD_X86
  if constexpr (sizeof(K) == 8 && std::is_integral_v<K> && std::is_unsigned_v<K>) {
    if (isa == Isa::kAvx2) {
      return detail::lower_bound_avx2(reinterpret_cast<const std::uint64_t*>(keys), n,
                                      static_cast<std::uint64_t>(key));
    }
    if (isa == Isa::kSse42) {
      return detail::lower_bound_sse42(reinterpret_cast<const std::uint64_t*>(keys), n,
                                       static_cast<std::uint64_t>(key));
    }
  }
#endif
  (void)isa;
  return lower_bound_ref(keys, n, key);
}

template <class K>
inline std::size_t prefix_less_keys(const K* keys, std::size_t n, const K& bound,
                                    Isa isa) noexcept {
#if COSTREAM_SIMD_X86
  if constexpr (sizeof(K) == 8 && std::is_integral_v<K> && std::is_unsigned_v<K>) {
    if (isa == Isa::kAvx2) {
      return detail::prefix_less_avx2(reinterpret_cast<const std::uint64_t*>(keys), n,
                                      static_cast<std::uint64_t>(bound));
    }
    if (isa == Isa::kSse42) {
      return detail::prefix_less_sse42(reinterpret_cast<const std::uint64_t*>(keys), n,
                                       static_cast<std::uint64_t>(bound));
    }
  }
#endif
  (void)isa;
  return prefix_less_ref(keys, n, bound);
}

template <class K>
inline std::size_t prefix_distinct_keys(const K* keys, std::size_t n,
                                        Isa isa) noexcept {
#if COSTREAM_SIMD_X86
  if constexpr (sizeof(K) == 8 && std::is_integral_v<K> && std::is_unsigned_v<K>) {
    if (isa == Isa::kAvx2) {
      return detail::prefix_distinct_avx2(
          reinterpret_cast<const std::uint64_t*>(keys), n);
    }
  }
#endif
  (void)isa;
  return prefix_distinct_ref(keys, n);
}

}  // namespace costream::simd
