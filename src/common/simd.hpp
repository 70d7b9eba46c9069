// Runtime-dispatched SIMD kernels (DESIGN.md §13): tidset
// intersection-and-popcount (the vertical Apriori L2 counter), masked
// subset counting (the L3+ candidate counter) and CRC-32 (every wire
// frame and storage block; common/crc32.hpp).
//
// Three variants of each kernel are compiled into every build:
//   kScalar  — portable std::popcount word loop and slicing-by-8 CRC;
//              always available and the reference the other variants
//              must match bit for bit.
//   kAvx2    — 256-bit AND + the pshufb nibble-LUT popcount.
//   kAvx512  — 512-bit AND + VPOPCNTDQ (and 8-rows-per-register subset
//              tests for narrow transaction rows).
// Both vector rungs checksum by PCLMULQDQ folding (Gopal et al., Intel
// 2009), so each also needs the CPU's pclmul.
// Variants are emitted with per-function target attributes, so the
// translation unit builds with the default (baseline) architecture
// flags; which one runs is decided once, at first use, from CPUID —
// never from compile flags — and can be overridden:
//   - cmake -DDMLFP_DISABLE_SIMD=ON compiles the vector variants out
//     entirely (portable-fallback builds for foreign architectures);
//   - DMLFP_SIMD=scalar|avx2|avx512 pins dispatch at process start
//     (the forced-scalar CI lane, A/B benchmarking);
//   - force_variant() pins it programmatically (benches, fuzz tests).
// Every kernel is a pure integer reduction, so all variants are
// bit-exact by construction; tests/common/test_simd.cpp fuzzes them
// against each other on awkward widths to keep it that way.
#pragma once

#include <bit>

#include "common/annotations.hpp"
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace dml::simd {

enum class Variant : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

std::string_view to_string(Variant variant);

/// Popcount of (a[i] & b[i]) over `words` words — tidset intersection
/// support.
using AndPopcountFn = std::uint64_t (*)(const std::uint64_t* a,
                                        const std::uint64_t* b,
                                        std::size_t words);

/// Number of rows (each `stride` words apart, `words` words wide) that
/// cover `mask`: (row & mask) == mask — candidate support counting.
using SubsetCountFn = std::uint32_t (*)(const std::uint64_t* rows,
                                        std::size_t n_rows,
                                        std::size_t stride,
                                        const std::uint64_t* mask,
                                        std::size_t words);

/// CRC-32 with common::crc32's contract (any length, incremental).
using Crc32Fn = std::uint32_t (*)(const void* data, std::size_t size,
                                  std::uint32_t crc);

struct Kernels {
  Variant variant = Variant::kScalar;
  AndPopcountFn and_popcount = nullptr;
  SubsetCountFn subset_count = nullptr;
  Crc32Fn crc32 = nullptr;
};

/// The portable reference kernels (always compiled, never dispatched
/// away — the bit-identity anchor for tests and golden benches).
std::uint64_t and_popcount_scalar(const std::uint64_t* a,
                                  const std::uint64_t* b, std::size_t words);
std::uint32_t subset_count_scalar(const std::uint64_t* rows,
                                  std::size_t n_rows, std::size_t stride,
                                  const std::uint64_t* mask,
                                  std::size_t words);

/// True if `variant` is both compiled in and supported by this CPU.
/// kScalar is always available.
bool supported(Variant variant);

/// The best supported variant (after the DMLFP_SIMD override, if set).
Variant best_variant();

/// Kernel table for an explicit variant; DML_CHECKs supported().
const Kernels& kernels(Variant variant);

/// The dispatched kernel table: resolved once, at first call, to
/// best_variant().  All hot paths go through this.
const Kernels& active();

/// Pins dispatch to `variant` (DML_CHECKs supported()).  For benches
/// and tests; call before or between timed regions, not concurrently
/// with kernel users.
void force_variant(Variant variant);

// ---- Convenience wrappers over the dispatched table --------------------

inline std::uint64_t DML_HOT and_popcount(const std::uint64_t* a,
                                  const std::uint64_t* b, std::size_t words) {
  return active().and_popcount(a, b, words);
}

inline std::uint32_t DML_HOT subset_count(const std::uint64_t* rows,
                                  std::size_t n_rows, std::size_t stride,
                                  const std::uint64_t* mask,
                                  std::size_t words) {
  return active().subset_count(rows, n_rows, stride, mask, words);
}

}  // namespace dml::simd
