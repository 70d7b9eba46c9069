// CRC-32 pinned directly: the standard check value, incremental ==
// one-shot at every split, and every kernel a build can run (slicing-by-8,
// the dispatched entry and each supported SIMD rung's kernel) == the
// bytewise reference over every length, alignment and seed the fold's
// lanes, blocks and tails can meet.  Every frame, segment and golden
// vector in the repository rests on these functions returning these
// values.
#include "common/crc32.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "reference_impl.hpp"
#include "support/test_fixtures.hpp"

namespace dml::common {
namespace {

struct Kernel {
  std::string name;
  simd::Crc32Fn fn;
};

/// Slicing-by-8, the inline entry point, and each supported rung's
/// kernel (the scalar rung's is slicing-by-8 itself).
std::vector<Kernel> kernels() {
  std::vector<Kernel> out{
      {"slicing8", &crc32_slicing8},
      {"crc32", [](const void* data, std::size_t size, std::uint32_t crc) {
         return crc32(data, size, crc);
       }}};
  for (const simd::Variant variant :
       {simd::Variant::kAvx2, simd::Variant::kAvx512}) {
    if (simd::supported(variant)) {
      out.push_back({std::string(simd::to_string(variant)),
                     simd::kernels(variant).crc32});
    }
  }
  return out;
}

std::vector<unsigned char> random_bytes(std::size_t size, std::uint64_t seed) {
  Rng rng(testing::fuzz_seed(seed));
  std::vector<unsigned char> bytes(size);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng.next_u64());
  return bytes;
}

TEST(Crc32, StandardCheckValue) {
  constexpr std::string_view kCheck = "123456789";
  EXPECT_EQ(crc32(kCheck.data(), kCheck.size()), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
  EXPECT_EQ(crc32(kCheck.data(), 0, 0xCBF43926u), 0xCBF43926u);
  // The same value once the input is long enough for the fold.
  const std::string long_check = std::string(kCrc32FoldMin, '\0') + "123";
  for (const Kernel& kernel : kernels()) {
    EXPECT_EQ(kernel.fn(long_check.data(), long_check.size(), 0),
              reference::crc32_bytewise(long_check.data(), long_check.size()))
        << kernel.name;
  }
}

TEST(Crc32, IncrementalEqualsOneShotAtEverySplit) {
  const auto bytes = random_bytes(300, 9001);
  for (const Kernel& kernel : kernels()) {
    const std::uint32_t whole = kernel.fn(bytes.data(), bytes.size(), 0);
    EXPECT_EQ(whole, reference::crc32_bytewise(bytes.data(), bytes.size()))
        << kernel.name;
    for (std::size_t split = 0; split <= bytes.size(); ++split) {
      const std::uint32_t head = kernel.fn(bytes.data(), split, 0);
      EXPECT_EQ(kernel.fn(bytes.data() + split, bytes.size() - split, head),
                whole)
          << kernel.name << " split " << split;
    }
  }
}

TEST(Crc32, EveryKernelMatchesBytewiseReference) {
  Rng rng(testing::fuzz_seed(9002));
  const auto buffer = random_bytes(600 + 64, 9003);
  const auto all = kernels();
  for (std::size_t length = 0; length <= 600; ++length) {
    for (std::size_t offset = 0; offset < 64; ++offset) {
      const auto seed = static_cast<std::uint32_t>(rng.next_u64());
      const unsigned char* data = buffer.data() + offset;
      const std::uint32_t expected =
          reference::crc32_bytewise(data, length, seed);
      for (const Kernel& kernel : all) {
        ASSERT_EQ(kernel.fn(data, length, seed), expected)
            << kernel.name << " length " << length << " offset " << offset;
      }
    }
  }
}

TEST(Crc32, EveryKernelMatchesBytewiseReferenceOnAMebibyte) {
  const auto bytes = random_bytes(1u << 20, 9004);
  const std::uint32_t expected =
      reference::crc32_bytewise(bytes.data(), bytes.size(), 0x5EED5EEDu);
  for (const Kernel& kernel : kernels()) {
    EXPECT_EQ(kernel.fn(bytes.data(), bytes.size(), 0x5EED5EEDu), expected)
        << kernel.name;
  }
}

TEST(Crc32, ScalarRungRunsSlicingBy8) {
  EXPECT_EQ(simd::kernels(simd::Variant::kScalar).crc32, &crc32_slicing8);
  // The CI lane that exports DMLFP_SIMD=scalar (and the SIMD-less build)
  // must checksum with the table loop, whatever the CPU offers.
  const char* pin = std::getenv("DMLFP_SIMD");  // NOLINT(concurrency-mt-unsafe)
  if (pin != nullptr && std::strcmp(pin, "scalar") == 0) {
    EXPECT_EQ(simd::best_variant(), simd::Variant::kScalar);
    EXPECT_EQ(simd::active().crc32, &crc32_slicing8);
  }
#if defined(DMLFP_DISABLE_SIMD)
  EXPECT_EQ(simd::active().crc32, &crc32_slicing8);
#endif
}

}  // namespace
}  // namespace dml::common
