// CRC-32 pinned directly: the standard check value, incremental ==
// one-shot at every split, and the slicing-by-8 loop == the bytewise
// reference over every length, alignment and seed the loop's tail and
// 8-byte blocks can meet.  Every frame, segment and golden vector in
// the repository rests on this function returning these values.
#include "common/crc32.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "reference_impl.hpp"
#include "support/test_fixtures.hpp"

namespace dml::common {
namespace {

TEST(Crc32, StandardCheckValue) {
  constexpr std::string_view kCheck = "123456789";
  EXPECT_EQ(crc32(kCheck.data(), kCheck.size()), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
  EXPECT_EQ(crc32(kCheck.data(), 0, 0xCBF43926u), 0xCBF43926u);
}

TEST(Crc32, IncrementalEqualsOneShotAtEverySplit) {
  Rng rng(testing::fuzz_seed(9001));
  std::vector<unsigned char> bytes(200);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng.next_u64());
  const std::uint32_t whole = crc32(bytes.data(), bytes.size());
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    const std::uint32_t head = crc32(bytes.data(), split);
    EXPECT_EQ(crc32(bytes.data() + split, bytes.size() - split, head), whole)
        << "split " << split;
  }
}

TEST(Crc32, SlicingBy8MatchesBytewiseReference) {
  Rng rng(testing::fuzz_seed(9002));
  std::vector<unsigned char> buffer(600 + 64);
  for (auto& b : buffer) b = static_cast<unsigned char>(rng.next_u64());
  for (std::size_t length = 0; length <= 600; ++length) {
    for (std::size_t offset = 0; offset < 64; ++offset) {
      const auto seed = static_cast<std::uint32_t>(rng.next_u64());
      const unsigned char* data = buffer.data() + offset;
      ASSERT_EQ(crc32(data, length, seed),
                reference::crc32_bytewise(data, length, seed))
          << "length " << length << " offset " << offset;
    }
  }
}

}  // namespace
}  // namespace dml::common
