#include "common/crc32.hpp"

#include <array>

namespace dml::common {
namespace {

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// kTables[0] is the bytewise table; kTables[k][b] is the CRC of byte b
/// followed by k zero bytes, so eight lookups advance the CRC by eight
/// bytes at once.
constexpr Tables make_tables() {
  Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr Tables kTables = make_tables();

/// Little-endian load, whatever the host order.
std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32_slicing8(const void* data, std::size_t size,
                             std::uint32_t crc) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (; size >= 8; size -= 8, bytes += 8) {
    const std::uint32_t lo = crc ^ load_le32(bytes);
    const std::uint32_t hi = load_le32(bytes + 4);
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
          kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; size > 0; --size, ++bytes) {
    crc = kTables[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace dml::common
