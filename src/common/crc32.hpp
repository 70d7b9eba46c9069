// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the integrity
// check stamped on every on-disk record and index block and on every
// wire frame.  Two implementations, both byte-order independent, so
// checksums written on one host verify on any other:
//   - slicing-by-8 (eight table lookups per eight input bytes): portable,
//     and what every input under kCrc32FoldMin bytes runs, in line and
//     without a dispatch (24-byte event records, segment headers);
//   - the SIMD dispatch ladder's kernel (common/simd.hpp) for longer
//     inputs: PCLMULQDQ folding where the CPU has it, slicing-by-8 on
//     the scalar rung (DMLFP_SIMD=scalar, -DDMLFP_DISABLE_SIMD).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/simd.hpp"

namespace dml::common {

/// Inputs at least this long go through the dispatched kernel: below it
/// the fold's set-up costs more than the table loop.
inline constexpr std::size_t kCrc32FoldMin = 64;

/// The slicing-by-8 loop, with crc32()'s contract.
std::uint32_t crc32_slicing8(const void* data, std::size_t size,
                             std::uint32_t crc = 0);

/// Incremental update: feed `crc32(data, len, prev)` the previous return
/// value to checksum a discontiguous buffer.  Seed with the default to
/// checksum a single span.
inline std::uint32_t crc32(const void* data, std::size_t size,
                           std::uint32_t crc = 0) {
  return size < kCrc32FoldMin ? crc32_slicing8(data, size, crc)
                              : simd::active().crc32(data, size, crc);
}

}  // namespace dml::common
