// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the integrity
// check stamped on every on-disk record and index block and on every
// wire frame.  Slicing-by-8 software implementation (eight table
// lookups per eight input bytes); byte-order independent, so checksums
// written on one host verify on any other.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dml::common {

/// Incremental update: feed `crc32(data, len, prev)` the previous return
/// value to checksum a discontiguous buffer.  Seed with the default to
/// checksum a single span.
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t crc = 0);

}  // namespace dml::common
