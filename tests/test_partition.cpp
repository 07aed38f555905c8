// Unit tier for the traffic-aware shard partitioner.
//
// The contract under test (DESIGN.md §16): ShardPartitioner is a pure,
// deterministic function of the canonicalized graph — call order never
// matters, repeated runs agree bit-for-bit — and the returned placement
// respects the (1+epsilon)·mean load cap, keeps explicit pins authoritative
// over any refinement gain, and accounts cut/total edge weight exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "net/partition.hpp"

namespace dcpl::net {
namespace {

/// Recomputes cut/total/loads from scratch so the Result's own accounting
/// can be cross-checked instead of trusted.
struct Audit {
  std::uint64_t cut = 0;
  std::uint64_t total = 0;
  std::vector<std::uint64_t> loads;
};

Audit audit(const ShardPartitioner::Result& r, std::uint32_t shards,
            const std::vector<std::pair<std::uint32_t, std::uint64_t>>& verts,
            const std::vector<std::tuple<std::uint32_t, std::uint32_t,
                                         std::uint64_t>>& edges) {
  Audit a;
  a.loads.assign(shards, 0);
  for (const auto& [v, load] : verts) {
    EXPECT_LT(v, r.assignment.size());
    const std::uint32_t s = r.assignment[v];
    EXPECT_LT(s, shards) << "vertex " << v << " unassigned";
    a.loads[s] += load;
  }
  for (const auto& [u, v, w] : edges) {
    if (u == v) continue;  // self-edges are ignored by contract
    a.total += w;
    if (r.assignment[u] != r.assignment[v]) a.cut += w;
  }
  return a;
}

TEST(Partition, DegenerateSingleShardAndEmptyGraph) {
  {
    ShardPartitioner empty({.shards = 4});
    const auto r = empty.partition();
    EXPECT_TRUE(r.assignment.empty());
    EXPECT_EQ(r.cut_weight, 0u);
    EXPECT_EQ(r.total_weight, 0u);
    ASSERT_EQ(r.loads.size(), 4u);
    for (const auto l : r.loads) EXPECT_EQ(l, 0u);
  }
  {
    ShardPartitioner one({.shards = 1});
    for (std::uint32_t v = 0; v < 16; ++v) one.add_vertex(v);
    for (std::uint32_t v = 0; v < 16; ++v) one.add_edge(v, (v + 1) % 16, 5);
    const auto r = one.partition();
    ASSERT_EQ(r.assignment.size(), 16u);
    for (const auto s : r.assignment) EXPECT_EQ(s, 0u);
    EXPECT_EQ(r.cut_weight, 0u);  // nothing can be cut with one shard
    EXPECT_EQ(r.total_weight, 16u * 5u);
    ASSERT_EQ(r.loads.size(), 1u);
    EXPECT_EQ(r.loads[0], 16u);
  }
}

TEST(Partition, UnreferencedIdsStayUnassigned) {
  ShardPartitioner p({.shards = 2});
  p.add_vertex(0);
  p.add_vertex(7);  // leaves ids 1..6 as holes
  const auto r = p.partition();
  ASSERT_EQ(r.assignment.size(), 8u);
  EXPECT_NE(r.assignment[0], ShardPartitioner::kUnassigned);
  EXPECT_NE(r.assignment[7], ShardPartitioner::kUnassigned);
  for (std::uint32_t v = 1; v < 7; ++v)
    EXPECT_EQ(r.assignment[v], ShardPartitioner::kUnassigned);
}

TEST(Partition, DeterministicAcrossRepeatsAndInsertionOrder) {
  // A moderately tangled graph: four 8-cliques with a sprinkling of weak
  // cross-clique edges. Weights vary by index so ties are rare but real.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> verts;
  std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>> edges;
  for (std::uint32_t v = 0; v < 32; ++v) verts.emplace_back(v, 1 + v % 3);
  for (std::uint32_t c = 0; c < 4; ++c)
    for (std::uint32_t i = 0; i < 8; ++i)
      for (std::uint32_t j = i + 1; j < 8; ++j)
        edges.emplace_back(c * 8 + i, c * 8 + j, 10 + (i * j) % 7);
  for (std::uint32_t v = 0; v < 32; v += 5)
    edges.emplace_back(v, (v + 9) % 32, 1);

  auto build = [&](bool reversed) {
    ShardPartitioner p({.shards = 4, .epsilon = 0.1});
    auto vs = verts;
    auto es = edges;
    if (reversed) {
      std::reverse(vs.begin(), vs.end());
      std::reverse(es.begin(), es.end());
    }
    for (const auto& [v, load] : vs) p.add_vertex(v, load);
    for (const auto& [u, v, w] : es)
      reversed ? p.add_edge(v, u, w) : p.add_edge(u, v, w);
    return p.partition();
  };

  const auto a = build(false);
  const auto b = build(false);
  const auto c = build(true);
  EXPECT_EQ(a.assignment, b.assignment) << "same calls, different placement";
  EXPECT_EQ(a.assignment, c.assignment) << "insertion order leaked in";
  EXPECT_EQ(a.cut_weight, c.cut_weight);
  EXPECT_EQ(a.loads, c.loads);

  const auto chk = audit(a, 4, verts, edges);
  EXPECT_EQ(a.cut_weight, chk.cut);
  EXPECT_EQ(a.total_weight, chk.total);
  EXPECT_EQ(a.loads, chk.loads);
}

TEST(Partition, RespectsBalanceCap) {
  // A star graph is the adversarial case for greedy growth: every leaf
  // wants to sit with the hub. The cap must force spill to other shards.
  constexpr std::uint32_t kShards = 4;
  constexpr std::uint32_t kLeaves = 63;
  ShardPartitioner p({.shards = kShards, .epsilon = 0.05});
  p.add_vertex(0);
  for (std::uint32_t v = 1; v <= kLeaves; ++v) {
    p.add_vertex(v);
    p.add_edge(0, v, 100);
  }
  const auto r = p.partition();
  const std::uint64_t total = kLeaves + 1;
  const auto cap = static_cast<std::uint64_t>(
      (1.0 + 0.05) * static_cast<double>(total) / kShards + 1.0);
  for (std::uint32_t s = 0; s < kShards; ++s)
    EXPECT_LE(r.loads[s], cap) << "shard " << s << " over the balance cap";
  EXPECT_EQ(std::accumulate(r.loads.begin(), r.loads.end(), std::uint64_t{0}),
            total);
  // With 64 unit-load vertices over 4 shards, the cap forbids any shard
  // from holding more than 17, so most star edges are necessarily cut.
  EXPECT_GT(r.cut_weight, 0u);
}

TEST(Partition, AccumulatesRepeatedVerticesAndEdges) {
  ShardPartitioner p({.shards = 2});
  p.add_vertex(0, 2);
  p.add_vertex(0, 3);       // load accumulates to 5
  p.add_edge(0, 1, 4);
  p.add_edge(1, 0, 6);      // undirected: same edge, weight 10
  p.add_edge(2, 2, 1000);   // self-edge: dropped entirely, even the vertex
  const auto r = p.partition();
  EXPECT_EQ(r.total_weight, 10u);
  ASSERT_GE(r.assignment.size(), 2u);
  if (r.assignment.size() > 2) {
    EXPECT_EQ(r.assignment[2], ShardPartitioner::kUnassigned);
  }
  EXPECT_EQ(std::accumulate(r.loads.begin(), r.loads.end(), std::uint64_t{0}),
            5u + 1u);  // vertex 0 load 5, implicit vertex 1 load 1
  // Edge {0,1} is the only cuttable weight; whatever the placement, the
  // accounting must agree with it.
  const bool split = r.assignment[0] != r.assignment[1];
  EXPECT_EQ(r.cut_weight, split ? 10u : 0u);
}

TEST(Partition, PinsWinOverPolicy) {
  // Two 4-cliques joined by one weak edge; the policy alone would keep
  // each clique whole (the cap forbids both landing on one shard). Pin one
  // vertex of clique A into clique B's shard territory and verify the pin
  // survives refinement.
  ShardPartitioner p({.shards = 2, .epsilon = 0.2});
  for (std::uint32_t c = 0; c < 2; ++c)
    for (std::uint32_t i = 0; i < 4; ++i)
      for (std::uint32_t j = i + 1; j < 4; ++j)
        p.add_edge(c * 4 + i, c * 4 + j, 50);
  p.add_edge(3, 4, 1);
  const auto free_run = p.partition();
  // Sanity: unpinned, each clique lands whole (cut == the weak bridge).
  EXPECT_EQ(free_run.cut_weight, 1u);

  // Pin two members of the SAME clique to different shards. Any relabeling
  // still has to split them, and the pins name absolute shard indices.
  p.pin(0, 0);
  p.pin(1, 1);
  const auto pinned = p.partition();
  EXPECT_EQ(pinned.assignment[0], 0u) << "pin(0, 0) did not hold";
  EXPECT_EQ(pinned.assignment[1], 1u) << "pin(1, 1) did not hold";
  // Splitting a 4-clique cuts the pinned pair's edge plus one edge per
  // remaining member, whichever side they land on: >= 3 x 50.
  EXPECT_GE(pinned.cut_weight, 3u * 50u);
}

TEST(Partition, PinModuloShardCountAndPinnedLoadExempt) {
  ShardPartitioner p({.shards = 2});
  p.add_vertex(0);
  p.pin(0, 7);  // reduced modulo 2 -> shard 1
  const auto r = p.partition();
  EXPECT_EQ(r.assignment[0], 1u);

  // Pins may violate the cap: pile every vertex onto shard 0 by pin and
  // confirm the partitioner honors it rather than rebalancing.
  ShardPartitioner q({.shards = 4, .epsilon = 0.0});
  for (std::uint32_t v = 0; v < 12; ++v) {
    q.add_vertex(v);
    q.pin(v, 0);
  }
  const auto all0 = q.partition();
  for (std::uint32_t v = 0; v < 12; ++v) EXPECT_EQ(all0.assignment[v], 0u);
  EXPECT_EQ(all0.loads[0], 12u);
}

TEST(Partition, RefinementImprovesCommunityCut) {
  // Two 6-communities with strong internal edges and a few weak bridges.
  // The exact cut depends on the seeding pass, but a correct refinement
  // must land at the obvious optimum: one community per shard.
  ShardPartitioner p({.shards = 2, .epsilon = 0.2});
  for (std::uint32_t c = 0; c < 2; ++c)
    for (std::uint32_t i = 0; i < 6; ++i)
      for (std::uint32_t j = i + 1; j < 6; ++j)
        p.add_edge(c * 6 + i, c * 6 + j, 20);
  for (std::uint32_t k = 0; k < 3; ++k) p.add_edge(k, 6 + k, 1);
  const auto r = p.partition();
  EXPECT_EQ(r.cut_weight, 3u);  // only the three unit bridges cross
  ASSERT_EQ(r.loads.size(), 2u);
  EXPECT_EQ(r.loads[0], 6u);
  EXPECT_EQ(r.loads[1], 6u);
}

}  // namespace
}  // namespace dcpl::net
