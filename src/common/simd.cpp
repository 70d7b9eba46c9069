#include "common/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/check.hpp"
#include "common/crc32.hpp"

// The vector variants are x86-only and can be compiled out wholesale
// (cmake -DDMLFP_DISABLE_SIMD=ON, or any non-x86 target).
#if !defined(DMLFP_DISABLE_SIMD) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define DMLFP_SIMD_X86 1
#include <immintrin.h>
#else
#define DMLFP_SIMD_X86 0
#endif

namespace dml::simd {

std::string_view to_string(Variant variant) {
  switch (variant) {
    case Variant::kScalar: return "scalar";
    case Variant::kAvx2: return "avx2";
    case Variant::kAvx512: return "avx512";
  }
  return "unknown";
}

// ---- Scalar reference kernels ------------------------------------------

std::uint64_t DML_HOT and_popcount_scalar(const std::uint64_t* a,
                                  const std::uint64_t* b,
                                  std::size_t words) {
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < words; ++w) {
    total += static_cast<std::uint64_t>(std::popcount(a[w] & b[w]));
  }
  return total;
}

std::uint32_t DML_HOT subset_count_scalar(const std::uint64_t* rows,
                                  std::size_t n_rows, std::size_t stride,
                                  const std::uint64_t* mask,
                                  std::size_t words) {
  std::uint32_t count = 0;
  const std::uint64_t* row = rows;
  for (std::size_t r = 0; r < n_rows; ++r, row += stride) {
    bool all = true;
    for (std::size_t w = 0; w < words; ++w) {
      if ((row[w] & mask[w]) != mask[w]) {
        all = false;
        break;
      }
    }
    count += all ? 1u : 0u;
  }
  return count;
}

#if DMLFP_SIMD_X86

// ---- AVX2 kernels ------------------------------------------------------
// 256-bit AND + the pshufb nibble-LUT popcount (Mula); every
// AVX2-capable part also has the scalar POPCNT used for tails.

__attribute__((target("avx2,popcnt"))) static std::uint64_t DML_HOT
and_popcount_avx2(const std::uint64_t* a, const std::uint64_t* b,
                  std::size_t words) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  __m256i acc = _mm256_setzero_si256();
  std::size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    const __m256i v = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w)));
    const __m256i lo = _mm256_and_si256(v, low_mask);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
    const __m256i nib = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                        _mm256_shuffle_epi8(lut, hi));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(nib, _mm256_setzero_si256()));
  }
  std::uint64_t total =
      static_cast<std::uint64_t>(_mm256_extract_epi64(acc, 0)) +
      static_cast<std::uint64_t>(_mm256_extract_epi64(acc, 1)) +
      static_cast<std::uint64_t>(_mm256_extract_epi64(acc, 2)) +
      static_cast<std::uint64_t>(_mm256_extract_epi64(acc, 3));
  for (; w < words; ++w) {
    total += static_cast<std::uint64_t>(__builtin_popcountll(a[w] & b[w]));
  }
  return total;
}

__attribute__((target("avx2,popcnt"))) static std::uint32_t DML_HOT
subset_count_avx2(const std::uint64_t* rows, std::size_t n_rows,
                  std::size_t stride, const std::uint64_t* mask,
                  std::size_t words) {
  std::uint32_t count = 0;
  std::size_t r = 0;
  if (words == 1 && stride == 1) {
    // Four rows per 256-bit lane; a row passes iff (row & m) == m.
    const __m256i m = _mm256_set1_epi64x(static_cast<long long>(mask[0]));
    for (; r + 4 <= n_rows; r += 4) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows + r));
      const __m256i eq = _mm256_cmpeq_epi64(_mm256_and_si256(v, m), m);
      count += static_cast<std::uint32_t>(__builtin_popcount(
          static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(eq)))));
    }
  } else if (words == 2 && stride == 2) {
    // Two rows per lane; both 64-bit halves of a row must pass.
    const __m256i m = _mm256_setr_epi64x(
        static_cast<long long>(mask[0]), static_cast<long long>(mask[1]),
        static_cast<long long>(mask[0]), static_cast<long long>(mask[1]));
    for (; r + 2 <= n_rows; r += 2) {
      const __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(rows + r * 2));
      const __m256i eq = _mm256_cmpeq_epi64(_mm256_and_si256(v, m), m);
      const unsigned k = static_cast<unsigned>(
          _mm256_movemask_pd(_mm256_castsi256_pd(eq)));
      count += (k & (k >> 1)) & 1u;
      count += (k >> 2) & (k >> 3) & 1u;
    }
  } else if (words == 4 && stride == 4) {
    // One row per lane; all four words must pass.
    const __m256i m =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask));
    for (; r < n_rows; ++r) {
      const __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(rows + r * 4));
      const __m256i eq = _mm256_cmpeq_epi64(_mm256_and_si256(v, m), m);
      count += _mm256_movemask_pd(_mm256_castsi256_pd(eq)) == 0xf ? 1u : 0u;
    }
  }
  if (r < n_rows) {
    count += subset_count_scalar(rows + r * stride, n_rows - r, stride, mask,
                                 words);
  }
  return count;
}

// ---- AVX-512 kernels ---------------------------------------------------
// 512-bit AND + VPOPCNTDQ for intersections; lane-mask subset tests
// packing 8/4/2 rows per register for the narrow transaction rows.

__attribute__((target("avx512f,avx512vpopcntdq,popcnt"))) static std::uint64_t
    DML_HOT and_popcount_avx512(const std::uint64_t* a, const std::uint64_t* b,
                    std::size_t words) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t w = 0;
  for (; w + 8 <= words; w += 8) {
    const __m512i v = _mm512_and_si512(_mm512_loadu_si512(a + w),
                                       _mm512_loadu_si512(b + w));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  // Manual lane sum: _mm512_reduce_add_epi64 trips a gcc 12
  // -Wuninitialized false positive via _mm256_undefined_si256.
  alignas(64) std::uint64_t lanes[8];
  _mm512_store_si512(lanes, acc);
  std::uint64_t total = 0;
  for (const std::uint64_t lane : lanes) total += lane;
  for (; w < words; ++w) {
    total += static_cast<std::uint64_t>(__builtin_popcountll(a[w] & b[w]));
  }
  return total;
}

__attribute__((target("avx512f,popcnt"))) static std::uint32_t DML_HOT
subset_count_avx512(const std::uint64_t* rows, std::size_t n_rows,
                    std::size_t stride, const std::uint64_t* mask,
                    std::size_t words) {
  std::uint32_t count = 0;
  std::size_t r = 0;
  if (words == 1 && stride == 1) {
    const __m512i m = _mm512_set1_epi64(static_cast<long long>(mask[0]));
    for (; r + 8 <= n_rows; r += 8) {
      const __m512i v = _mm512_loadu_si512(rows + r);
      const __mmask8 k =
          _mm512_cmpeq_epi64_mask(_mm512_and_si512(v, m), m);
      count += static_cast<std::uint32_t>(
          __builtin_popcount(static_cast<unsigned>(k)));
    }
  } else if (words == 2 && stride == 2) {
    // Four rows per register; adjacent lane pairs must both pass.
    // (set4 instead of broadcast_i32x4: the broadcast intrinsic trips
    // the same gcc 12 undefined-vector -Wuninitialized false positive
    // as reduce_add.)
    const __m512i m = _mm512_set4_epi64(
        static_cast<long long>(mask[1]), static_cast<long long>(mask[0]),
        static_cast<long long>(mask[1]), static_cast<long long>(mask[0]));
    for (; r + 4 <= n_rows; r += 4) {
      const __m512i v = _mm512_loadu_si512(rows + r * 2);
      const unsigned k = static_cast<unsigned>(
          _mm512_cmpeq_epi64_mask(_mm512_and_si512(v, m), m));
      count += static_cast<std::uint32_t>(
          __builtin_popcount(k & (k >> 1) & 0x55u));
    }
  } else if (words == 4 && stride == 4) {
    // Two rows per register; each 4-lane group must fully pass.
    const __m512i m = _mm512_set4_epi64(
        static_cast<long long>(mask[3]), static_cast<long long>(mask[2]),
        static_cast<long long>(mask[1]), static_cast<long long>(mask[0]));
    for (; r + 2 <= n_rows; r += 2) {
      const __m512i v = _mm512_loadu_si512(rows + r * 4);
      const unsigned k = static_cast<unsigned>(
          _mm512_cmpeq_epi64_mask(_mm512_and_si512(v, m), m));
      count += static_cast<std::uint32_t>(
          __builtin_popcount(k & (k >> 1) & (k >> 2) & (k >> 3) & 0x11u));
    }
  }
  if (r < n_rows) {
    count += subset_count_scalar(rows + r * stride, n_rows - r, stride, mask,
                                 words);
  }
  return count;
}

// ---- CRC-32 by carry-less multiply -------------------------------------
// Folding as in Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), for the
// bit-reflected CRC-32: four 128-bit lanes fold 64 bytes per step, fold
// into one lane, fold 16 bytes per step, then reduce 128 -> 64 -> 32
// bits, the last step by Barrett reduction.  Every constant is derived
// from the polynomial below at compile time.

namespace crc_fold {

/// P(x) of CRC-32, x^32 term included, in normal (unreflected) order.
constexpr std::uint64_t kPoly = 0x104C11DB7ULL;

/// x^k mod P(x), normal order.
constexpr std::uint64_t x_pow_mod(unsigned k) {
  std::uint64_t r = 1;
  for (unsigned i = 0; i < k; ++i) {
    r <<= 1;
    if ((r >> 32) != 0) r ^= kPoly;
  }
  return r;
}

/// The low `bits` bits of v in reverse order.
constexpr std::uint64_t reflect(std::uint64_t v, unsigned bits) {
  std::uint64_t out = 0;
  for (unsigned i = 0; i < bits; ++i) {
    if (((v >> i) & 1) != 0) out |= std::uint64_t{1} << (bits - 1 - i);
  }
  return out;
}

/// The multiplier that moves a 64-bit half `k` bits along the message,
/// in the reflected domain: reflect32(x^k mod P) << 1, 33 bits wide.
constexpr std::uint64_t fold(unsigned k) {
  return reflect(x_pow_mod(k), 32) << 1;
}

/// floor(x^64 / P(x)), normal order (33 bits): the Barrett quotient.
constexpr std::uint64_t barrett_quotient() {
  std::uint64_t q = 0;
  std::uint64_t r = 0;
  for (int i = 64; i >= 0; --i) {
    r = (r << 1) | (i == 64 ? 1 : 0);
    q <<= 1;
    if ((r >> 32) != 0) {
      r ^= kPoly;
      q |= 1;
    }
  }
  return q;
}

// Fold distances: 4 lanes of 128 bits, then one lane of 128 bits, each
// split into the half that moves 32 bits further and the half that moves
// 32 bits less; then 64 bits.
constexpr std::uint64_t kFold512Lo = fold(4 * 128 + 32);
constexpr std::uint64_t kFold512Hi = fold(4 * 128 - 32);
constexpr std::uint64_t kFold128Lo = fold(128 + 32);
constexpr std::uint64_t kFold128Hi = fold(128 - 32);
constexpr std::uint64_t kFold64 = fold(64);
constexpr std::uint64_t kPolyReflected = reflect(kPoly, 33);
constexpr std::uint64_t kMuReflected = reflect(barrett_quotient(), 33);
static_assert((kPolyReflected >> 1) == 0xEDB88320u,
              "the reflected polynomial of common::crc32_slicing8's tables");

}  // namespace crc_fold

#define DMLFP_CRC_TARGET __attribute__((target("pclmul,sse4.1")))

DMLFP_CRC_TARGET static inline __m128i load_block(const unsigned char* p,
                                                  std::size_t block) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16 * block));
}

/// One lane moved forward by the distance `k` encodes, merged with the
/// data it lands on.
DMLFP_CRC_TARGET static inline __m128i fold_into(__m128i lane, __m128i k,
                                                 __m128i data) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(lane, k, 0x00),
                                     _mm_clmulepi64_si128(lane, k, 0x11)),
                       data);
}

/// The internal (inverted) CRC state after `blocks16` 16-byte blocks,
/// at least four of them.
DMLFP_CRC_TARGET static std::uint32_t DML_HOT
crc32_fold_blocks(const unsigned char* p, std::size_t blocks16,
                  std::uint32_t state) {
  using namespace crc_fold;
  __m128i x1 = _mm_xor_si128(load_block(p, 0),
                             _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x2 = load_block(p, 1);
  __m128i x3 = load_block(p, 2);
  __m128i x4 = load_block(p, 3);
  std::size_t block = 4;
  const __m128i k512 = _mm_set_epi64x(static_cast<long long>(kFold512Hi),
                                      static_cast<long long>(kFold512Lo));
  for (; block + 4 <= blocks16; block += 4) {
    x1 = fold_into(x1, k512, load_block(p, block));
    x2 = fold_into(x2, k512, load_block(p, block + 1));
    x3 = fold_into(x3, k512, load_block(p, block + 2));
    x4 = fold_into(x4, k512, load_block(p, block + 3));
  }
  const __m128i k128 = _mm_set_epi64x(static_cast<long long>(kFold128Hi),
                                      static_cast<long long>(kFold128Lo));
  x1 = fold_into(x1, k128, x2);
  x1 = fold_into(x1, k128, x3);
  x1 = fold_into(x1, k128, x4);
  for (; block < blocks16; ++block) {
    x1 = fold_into(x1, k128, load_block(p, block));
  }

  // 128 -> 64 bits, then 64 -> 32 by Barrett reduction.
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k128, 0x10));
  const __m128i k64 = _mm_set_epi64x(0, static_cast<long long>(kFold64));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k64, 0x00));
  const __m128i barrett =
      _mm_set_epi64x(static_cast<long long>(kMuReflected),
                     static_cast<long long>(kPolyReflected));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

#undef DMLFP_CRC_TARGET

/// Folds every whole 16-byte block; the tail (under 16 bytes) and
/// inputs too short to fill four lanes take slicing-by-8.
static std::uint32_t DML_HOT crc32_clmul(const void* data, std::size_t size,
                                         std::uint32_t crc) {
  if (size < common::kCrc32FoldMin) {
    return common::crc32_slicing8(data, size, crc);
  }
  const auto* bytes = static_cast<const unsigned char*>(data);
  const std::size_t blocks16 = size / 16;
  crc = ~crc32_fold_blocks(bytes, blocks16, ~crc);
  return common::crc32_slicing8(bytes + 16 * blocks16, size % 16, crc);
}

#endif  // DMLFP_SIMD_X86

namespace {

const Kernels kScalarKernels{Variant::kScalar, &and_popcount_scalar,
                             &subset_count_scalar, &common::crc32_slicing8};
#if DMLFP_SIMD_X86
const Kernels kAvx2Kernels{Variant::kAvx2, &and_popcount_avx2,
                           &subset_count_avx2, &crc32_clmul};
const Kernels kAvx512Kernels{Variant::kAvx512, &and_popcount_avx512,
                             &subset_count_avx512, &crc32_clmul};
#endif

bool cpu_supports(Variant variant) {
  switch (variant) {
    case Variant::kScalar:
      return true;
#if DMLFP_SIMD_X86
    case Variant::kAvx2:
      return __builtin_cpu_supports("avx2") != 0 &&
             __builtin_cpu_supports("popcnt") != 0 &&
             __builtin_cpu_supports("pclmul") != 0;
    case Variant::kAvx512:
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512vpopcntdq") != 0 &&
             __builtin_cpu_supports("popcnt") != 0 &&
             __builtin_cpu_supports("pclmul") != 0;
#else
    default:
      return false;
#endif
  }
  return false;
}

/// DMLFP_SIMD=scalar|avx2|avx512 pins dispatch; DMLFP_DISABLE_SIMD=1 is
/// an alias for scalar (mirrors the cmake option).  Unknown or
/// unsupported requests fall back to auto detection — a portable build
/// must not fail because a CI lane exported the knob.
std::atomic<const Kernels*> g_active{nullptr};

Variant detect_best() {
  // Read once, before any worker thread touches the kernels.
  const char* disable =
      std::getenv("DMLFP_DISABLE_SIMD");  // NOLINT(concurrency-mt-unsafe)
  if (disable != nullptr && disable[0] != '\0' &&
      std::strcmp(disable, "0") != 0) {
    return Variant::kScalar;
  }
  const char* env = std::getenv("DMLFP_SIMD");  // NOLINT(concurrency-mt-unsafe)
  if (env != nullptr) {
    if (std::strcmp(env, "scalar") == 0) return Variant::kScalar;
    if (std::strcmp(env, "avx2") == 0 && cpu_supports(Variant::kAvx2)) {
      return Variant::kAvx2;
    }
    if (std::strcmp(env, "avx512") == 0 && cpu_supports(Variant::kAvx512)) {
      return Variant::kAvx512;
    }
  }
  if (cpu_supports(Variant::kAvx512)) return Variant::kAvx512;
  if (cpu_supports(Variant::kAvx2)) return Variant::kAvx2;
  return Variant::kScalar;
}

}  // namespace

bool supported(Variant variant) { return cpu_supports(variant); }

Variant best_variant() {
  static const Variant best = detect_best();
  return best;
}

const Kernels& kernels(Variant variant) {
  DML_CHECK_MSG(supported(variant), "SIMD variant not supported here");
  switch (variant) {
    case Variant::kScalar:
      return kScalarKernels;
#if DMLFP_SIMD_X86
    case Variant::kAvx2:
      return kAvx2Kernels;
    case Variant::kAvx512:
      return kAvx512Kernels;
#else
    default:
      return kScalarKernels;
#endif
  }
  return kScalarKernels;
}

const Kernels& active() {
  const Kernels* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) {
    // First use (benign if two threads race: both resolve identically).
    table = &kernels(best_variant());
    g_active.store(table, std::memory_order_release);
  }
  return *table;
}

void force_variant(Variant variant) {
  g_active.store(&kernels(variant), std::memory_order_release);
}

}  // namespace dml::simd
