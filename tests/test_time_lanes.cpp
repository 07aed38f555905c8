// TimeLanes: the one deterministic merge of per-producer, time-ordered
// lanes behind the simulator's deferred delivery records and the
// FlowLedger's staged ops (DESIGN.md §13).
#include "common/time_lanes.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

namespace dcpl {
namespace {

struct Item {
  std::uint64_t time = 0;
  std::uint32_t lane = 0;
  std::uint32_t idx = 0;  // append position within its lane

  bool operator==(const Item&) const = default;
};

constexpr std::uint64_t kAll = ~std::uint64_t{0};

std::vector<Item> commit(TimeLanes<Item>& lanes, std::uint64_t cutoff) {
  std::vector<Item> out;
  lanes.commit_before(cutoff, [&out](const Item& it) { out.push_back(it); });
  return out;
}

/// Appends `n` items with nondecreasing times (small steps, so lanes tie
/// often) to every lane, and returns them all.
std::vector<Item> fill(TimeLanes<Item>& lanes, std::uint32_t n,
                       std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Item> all;
  for (std::uint32_t l = 0; l < lanes.lanes(); ++l) {
    std::uint64_t t = rng() % 4;
    for (std::uint32_t i = 0; i < n; ++i) {
      t += rng() % 3;
      lanes.push(l, {t, l, i});
      all.push_back({t, l, i});
    }
  }
  return all;
}

/// The canonical order: (time, lane, append order).
std::vector<Item> canonical(std::vector<Item> items) {
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    return std::tie(a.time, a.lane, a.idx) < std::tie(b.time, b.lane, b.idx);
  });
  return items;
}

TEST(TimeLanes, EqualTimesCommitInLaneOrder) {
  TimeLanes<Item> lanes;
  lanes.reset(3);
  lanes.push(2, {5, 2, 0});
  lanes.push(0, {5, 0, 0});
  lanes.push(1, {5, 1, 0});
  lanes.push(0, {5, 0, 1});
  lanes.push(2, {6, 2, 1});
  EXPECT_EQ(commit(lanes, kAll),
            (std::vector<Item>{{5, 0, 0}, {5, 0, 1}, {5, 1, 0}, {5, 2, 0},
                               {6, 2, 1}}));
  EXPECT_TRUE(commit(lanes, kAll).empty());  // committed items are erased
}

TEST(TimeLanes, PrefixCommitsConcatenateToOneFullDrain) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    TimeLanes<Item> stepped;
    TimeLanes<Item> whole;
    stepped.reset(4);
    whole.reset(4);
    const std::vector<Item> all = fill(stepped, 200, seed);
    fill(whole, 200, seed);

    const std::vector<Item> want = canonical(all);
    const std::uint64_t t1 = want[want.size() / 3].time;
    const std::uint64_t t2 = want[want.size() / 2].time + 1;
    std::vector<Item> got = commit(stepped, t1);
    for (const Item& it : got) EXPECT_LT(it.time, t1);
    const std::vector<Item> mid = commit(stepped, t2);
    for (const Item& it : mid) {
      EXPECT_GE(it.time, t1);
      EXPECT_LT(it.time, t2);
    }
    got.insert(got.end(), mid.begin(), mid.end());
    const std::vector<Item> rest = commit(stepped, kAll);
    got.insert(got.end(), rest.begin(), rest.end());

    const std::vector<Item> drained = commit(whole, kAll);
    EXPECT_EQ(got, drained);
    EXPECT_EQ(drained, want);
  }
}

TEST(TimeLanes, ItemAtTheCutoffStays) {
  TimeLanes<Item> lanes;
  lanes.reset(2);
  lanes.push(0, {9, 0, 0});
  lanes.push(0, {10, 0, 1});
  lanes.push(1, {10, 1, 0});
  EXPECT_EQ(commit(lanes, 10), (std::vector<Item>{{9, 0, 0}}));
  EXPECT_TRUE(commit(lanes, 10).empty());
  EXPECT_EQ(commit(lanes, 11), (std::vector<Item>{{10, 0, 1}, {10, 1, 0}}));
  EXPECT_TRUE(commit(lanes, 0).empty());
}

TEST(TimeLanes, ZeroAndEmptyLanes) {
  TimeLanes<Item> lanes;
  EXPECT_EQ(lanes.lanes(), 0u);
  EXPECT_TRUE(commit(lanes, kAll).empty());

  lanes.reset(4);
  EXPECT_EQ(lanes.lanes(), 4u);
  EXPECT_TRUE(commit(lanes, kAll).empty());
  lanes.push(2, {3, 2, 0});  // lanes 0, 1 and 3 stay empty
  lanes.push(2, {8, 2, 1});
  EXPECT_EQ(commit(lanes, kAll), (std::vector<Item>{{3, 2, 0}, {8, 2, 1}}));

  lanes.push(1, {1, 1, 0});
  lanes.reset(0);  // drops what was pending
  EXPECT_EQ(lanes.lanes(), 0u);
  EXPECT_TRUE(commit(lanes, kAll).empty());
}

// Producers append to their own lanes at the same time (the TSan job runs
// this); the merged order depends only on what was appended.
TEST(TimeLanes, ConcurrentProducersMergeDeterministically) {
  constexpr std::uint32_t kProducers = 4;
  constexpr std::uint32_t kItems = 5000;
  TimeLanes<Item> lanes;
  lanes.reset(kProducers);
  std::vector<Item> all;
  for (std::uint32_t l = 0; l < kProducers; ++l) {
    for (std::uint32_t i = 0; i < kItems; ++i) {
      all.push_back({i / (l + 1), l, i});
    }
  }
  std::vector<std::thread> producers;
  for (std::uint32_t l = 0; l < kProducers; ++l) {
    producers.emplace_back([&lanes, l] {
      for (std::uint32_t i = 0; i < kItems; ++i) {
        lanes.push(l, {i / (l + 1), l, i});
      }
    });
  }
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(commit(lanes, kAll), canonical(all));
}

}  // namespace
}  // namespace dcpl
