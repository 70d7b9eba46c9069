// FlatMap is the serving path's hash map; its open addressing and
// backward-shift deletion must behave exactly like a std::unordered_map
// under any interleaving of inserts, erases and lookups.
#include "common/flat_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "support/test_fixtures.hpp"

namespace dml::common {
namespace {

TEST(FlatMap, StartsEmpty) {
  FlatMap<std::uint64_t, std::uint32_t> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.find(42), nullptr);
  EXPECT_FALSE(map.contains(42));
  EXPECT_FALSE(map.erase(42));
}

TEST(FlatMap, InsertFindErase) {
  FlatMap<std::uint64_t, std::uint32_t> map;
  map[7] = 70;
  map[9] = 90;
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.find(7), nullptr);
  EXPECT_EQ(*map.find(7), 70u);
  map[7] = 71;  // overwrite, not a second entry
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(*map.find(7), 71u);
  EXPECT_TRUE(map.erase(7));
  EXPECT_FALSE(map.contains(7));
  EXPECT_TRUE(map.contains(9));
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, GrowsPastInitialCapacityWithoutLosingEntries) {
  FlatMap<std::uint32_t, std::uint32_t> map;
  for (std::uint32_t k = 0; k < 1000; ++k) map[k * 2654435761u] = k;
  EXPECT_EQ(map.size(), 1000u);
  for (std::uint32_t k = 0; k < 1000; ++k) {
    auto* v = map.find(k * 2654435761u);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, k);
  }
}

TEST(FlatMap, BackwardShiftKeepsCollidingProbeChainsReachable) {
  // Keys that collide modulo the table size exercise the backward-shift
  // displacement logic: erasing the head of a probe chain must not
  // orphan its tail.
  FlatMap<std::uint64_t, std::uint32_t> map;
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 12; ++k) keys.push_back(k << 40);
  for (std::uint32_t i = 0; i < keys.size(); ++i) map[keys[i]] = i;
  for (std::size_t victim = 0; victim < keys.size(); ++victim) {
    EXPECT_TRUE(map.erase(keys[victim]));
    for (std::size_t k = victim + 1; k < keys.size(); ++k) {
      auto* v = map.find(keys[k]);
      ASSERT_NE(v, nullptr) << "victim " << victim << " orphaned " << k;
      EXPECT_EQ(*v, static_cast<std::uint32_t>(k));
    }
  }
  EXPECT_TRUE(map.empty());
}

TEST(FlatMap, ForEachVisitsEveryLiveEntryOnce) {
  FlatMap<std::uint32_t, std::uint32_t> map;
  for (std::uint32_t k = 1; k <= 64; ++k) map[k] = k * 10;
  map.erase(13);
  map.erase(64);
  std::unordered_map<std::uint32_t, std::uint32_t> seen;
  map.for_each([&](std::uint32_t key, std::uint32_t value) {
    EXPECT_TRUE(seen.emplace(key, value).second) << "duplicate " << key;
  });
  EXPECT_EQ(seen.size(), 62u);
  for (const auto& [key, value] : seen) EXPECT_EQ(value, key * 10);
}

TEST(FlatMap, FuzzMatchesUnorderedMap) {
  Rng rng(testing::fuzz_seed(2203));
  FlatMap<std::uint64_t, std::uint32_t> map;
  std::unordered_map<std::uint64_t, std::uint32_t> oracle;
  // Small key universe keeps collisions and erase-reinsert cycles hot.
  for (int step = 0; step < 60000; ++step) {
    const std::uint64_t key = rng.uniform_index(512) << 32 | 7;
    switch (rng.uniform_index(5)) {
      case 0: {
        const auto value =
            static_cast<std::uint32_t>(rng.uniform_index(1u << 20));
        map[key] = value;
        oracle[key] = value;
        break;
      }
      case 1: {
        EXPECT_EQ(map.erase(key), oracle.erase(key) > 0);
        break;
      }
      case 2: {
        const auto value =
            static_cast<std::uint32_t>(rng.uniform_index(1u << 20));
        const auto [got, inserted] = map.try_emplace(key, value);
        const auto [it, oracle_inserted] = oracle.try_emplace(key, value);
        EXPECT_EQ(inserted, oracle_inserted);
        EXPECT_EQ(*got, it->second);
        break;
      }
      case 3: {
        // Rare bulk sweeps: drop every value below a random cut.
        if (rng.uniform_index(64) != 0) break;
        const auto cut =
            static_cast<std::uint32_t>(rng.uniform_index(1u << 20));
        const auto erased = map.erase_if(
            [&](std::uint64_t, std::uint32_t value) { return value < cut; });
        EXPECT_EQ(erased, std::erase_if(oracle, [&](const auto& entry) {
                    return entry.second < cut;
                  }));
        break;
      }
      default: {
        const auto* found = map.find(key);
        const auto it = oracle.find(key);
        if (it == oracle.end()) {
          EXPECT_EQ(found, nullptr);
        } else {
          ASSERT_NE(found, nullptr);
          EXPECT_EQ(*found, it->second);
        }
      }
    }
    EXPECT_EQ(map.size(), oracle.size());
  }
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(7), nullptr);
}

}  // namespace
}  // namespace dml::common
