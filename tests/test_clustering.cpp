// Unit tests: communication graph and the clustering tool (partitioner) —
// CSR storage, incremental cut accounting, the heap/delta pipeline's parity
// with the seed algorithm and with brute-force optima, and the flat traffic
// matrix that feeds the graph.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "clustering/comm_graph.hpp"
#include "clustering/partitioner.hpp"
#include "clustering/streaming.hpp"
#include "mpi/traffic.hpp"
#include "sim/topology.hpp"
#include "util/rng.hpp"

namespace spbc::clustering {
namespace {

TEST(CommGraph, TrafficAccumulates) {
  CommGraph g(4);
  g.add_traffic(0, 1, 100);
  g.add_traffic(0, 1, 50);
  g.add_traffic(1, 0, 25);
  EXPECT_EQ(g.traffic(0, 1), 150u);
  EXPECT_EQ(g.traffic(1, 0), 25u);
  EXPECT_EQ(g.weight(0, 1), 175u);
  EXPECT_EQ(g.total_bytes(), 175u);
}

TEST(CommGraph, LoggedBytesIsCutVolume) {
  CommGraph g(4);
  g.add_traffic(0, 1, 100);
  g.add_traffic(2, 3, 100);
  g.add_traffic(1, 2, 40);
  std::vector<int> part{0, 0, 1, 1};
  EXPECT_EQ(g.logged_bytes(part), 40u);
  auto per_rank = g.logged_bytes_per_rank(part);
  EXPECT_EQ(per_rank[1], 40u);  // sender logs
  EXPECT_EQ(per_rank[2], 0u);
}

// Ring of 8 nodes (1 rank per node): contiguous blocks are optimal.
TEST(Partitioner, RingGetsContiguousBlocks) {
  sim::Topology topo(8, 1);
  CommGraph g(8);
  for (int i = 0; i < 8; ++i) {
    g.add_traffic(i, (i + 1) % 8, 1000);
    g.add_traffic((i + 1) % 8, i, 1000);
  }
  Partitioner part(g, topo);
  PartitionResult res = part.partition(4);
  EXPECT_EQ(res.clusters, 4);
  // Optimal 4-way cut of a ring: 4 edges cut x 2 directions x 1000 = 8000.
  EXPECT_EQ(res.logged_bytes, 8000u);
}

TEST(Partitioner, NodeColocationRespected) {
  sim::Topology topo(4, 2);  // 8 ranks, 2 per node
  CommGraph g(8);
  for (int i = 0; i < 7; ++i) g.add_traffic(i, i + 1, 100);
  Partitioner part(g, topo);
  PartitionResult res = part.partition(2);
  for (int r = 0; r < 8; r += 2)
    EXPECT_EQ(res.cluster_of[static_cast<size_t>(r)],
              res.cluster_of[static_cast<size_t>(r + 1)])
        << "node pair " << r;
}

TEST(Partitioner, BeatsOrEqualsBlockPartitionOnClusteredTraffic) {
  sim::Topology topo(8, 1);
  CommGraph g(8);
  // Two "communities" interleaved in rank order: {0,2,4,6} and {1,3,5,7}.
  for (int a : {0, 2, 4, 6})
    for (int b : {0, 2, 4, 6})
      if (a < b) g.add_traffic(a, b, 1000);
  for (int a : {1, 3, 5, 7})
    for (int b : {1, 3, 5, 7})
      if (a < b) g.add_traffic(a, b, 1000);
  g.add_traffic(0, 1, 10);  // weak cross links
  g.add_traffic(2, 3, 10);
  Partitioner part(g, topo);
  PartitionResult tool = part.partition(2);
  PartitionResult block = part.block_partition(2);
  EXPECT_LE(tool.logged_bytes, block.logged_bytes);
  EXPECT_EQ(tool.logged_bytes, 20u);  // only the weak links crossed
}

TEST(Partitioner, KEqualsOneIsEverything) {
  sim::Topology topo(4, 1);
  CommGraph g(4);
  g.add_traffic(0, 3, 100);
  Partitioner part(g, topo);
  PartitionResult res = part.partition(1);
  EXPECT_EQ(res.logged_bytes, 0u);
  for (int c : res.cluster_of) EXPECT_EQ(c, 0);
}

TEST(Partitioner, KEqualsNodesIsPerNode) {
  sim::Topology topo(4, 2);
  CommGraph g(8);
  g.add_traffic(0, 2, 100);
  Partitioner part(g, topo);
  PartitionResult res = part.partition(4);
  // 4 clusters over 4 nodes: each node is its own cluster.
  EXPECT_EQ(res.clusters, 4);
  std::set<int> ids(res.cluster_of.begin(), res.cluster_of.end());
  EXPECT_EQ(ids.size(), 4u);
}

TEST(Partitioner, BalancedObjectiveLowersMaxRankLogged) {
  sim::Topology topo(8, 1);
  CommGraph g(8);
  // A "hot" pair (0,1) with massive mutual traffic plus a chain; the
  // min-total partition keeps 0 and 1 together no matter the imbalance
  // elsewhere; the balanced objective may split differently.
  for (int i = 0; i < 8; ++i)
    for (int j = i + 1; j < 8; ++j) g.add_traffic(i, j, 10);
  g.add_traffic(0, 7, 5000);
  g.add_traffic(0, 6, 5000);
  Partitioner part(g, topo);
  PartitionResult total = part.partition(4, Objective::kMinTotalLogged);
  PartitionResult bal = part.partition(4, Objective::kBalancedLogged);
  EXPECT_LE(bal.max_rank_logged, total.max_rank_logged);
}

TEST(Partitioner, DeterministicAcrossCalls) {
  sim::Topology topo(8, 1);
  CommGraph g(8);
  for (int i = 0; i < 8; ++i)
    for (int j = i + 1; j < 8; ++j) g.add_traffic(i, j, static_cast<uint64_t>(i * 13 + j * 7));
  Partitioner part(g, topo);
  EXPECT_EQ(part.partition(3).cluster_of, part.partition(3).cluster_of);
}

// ---------------------------------------------------------------------------
// Flat traffic matrix (the Machine's hot-path accumulator).
// ---------------------------------------------------------------------------

TEST(TrafficMatrix, AccumulatesAndGrows) {
  mpi::TrafficMatrix t(16);
  // More distinct destinations than the initial row capacity forces growth.
  for (int d = 1; d < 16; ++d) t.add(0, d, static_cast<uint64_t>(d));
  for (int d = 1; d < 16; ++d) t.add(0, d, static_cast<uint64_t>(d));
  for (int d = 1; d < 16; ++d)
    EXPECT_EQ(t.bytes(0, d), static_cast<uint64_t>(2 * d)) << "dst " << d;
  EXPECT_EQ(t.bytes(0, 0), 0u);
  EXPECT_EQ(t.bytes(3, 5), 0u);
  EXPECT_EQ(t.total_bytes(), static_cast<uint64_t>(2 * (15 * 16) / 2));
}

TEST(TrafficMatrix, MapViewAndGraphAgree) {
  mpi::TrafficMatrix t(6);
  util::Pcg32 rng(42, 1);
  for (int i = 0; i < 200; ++i) {
    int s = static_cast<int>(rng.next_bounded(6));
    int d = static_cast<int>(rng.next_bounded(6));
    t.add(s, d, 1 + rng.next_bounded(1000));
  }
  auto map = t.as_map();
  uint64_t map_total = 0;
  for (const auto& [key, b] : map) {
    EXPECT_EQ(t.bytes(key.first, key.second), b);
    map_total += b;
  }
  EXPECT_EQ(map_total, t.total_bytes());
  // Both construction paths yield the same graph.
  CommGraph from_flat = CommGraph::from_traffic(6, t);
  CommGraph from_map = CommGraph::from_traffic(6, map);
  for (int a = 0; a < 6; ++a)
    for (int b = 0; b < 6; ++b)
      EXPECT_EQ(from_flat.traffic(a, b), from_map.traffic(a, b))
          << a << "->" << b;
}

// ---------------------------------------------------------------------------
// CSR graph: incremental cut accounting.
// ---------------------------------------------------------------------------

TEST(CommGraph, CutDeltaMatchesRecompute) {
  const int n = 12;
  CommGraph g(n);
  util::Pcg32 rng(7, 3);
  for (int i = 0; i < 80; ++i) {
    int a = static_cast<int>(rng.next_bounded(n));
    int b = static_cast<int>(rng.next_bounded(n));
    if (a != b) g.add_traffic(a, b, 1 + rng.next_bounded(500));
  }
  std::vector<int> part(static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) part[static_cast<size_t>(r)] = r % 3;
  const uint64_t base = g.logged_bytes(part);
  for (int v = 0; v < n; ++v) {
    for (int to = 0; to < 3; ++to) {
      std::vector<int> moved = part;
      moved[static_cast<size_t>(v)] = to;
      const int64_t expect = static_cast<int64_t>(g.logged_bytes(moved)) -
                             static_cast<int64_t>(base);
      EXPECT_EQ(g.cut_delta(part, v, to), expect) << "v=" << v << " to=" << to;
    }
  }
}

// ---------------------------------------------------------------------------
// Pipeline parity: brute-force optima, seed equivalence, delta validation,
// and determinism.
// ---------------------------------------------------------------------------

CommGraph random_graph(int nranks, uint64_t seed, int edges, uint64_t wmax) {
  CommGraph g(nranks);
  util::Pcg32 rng(seed, 11);
  for (int i = 0; i < edges; ++i) {
    int a = static_cast<int>(rng.next_bounded(static_cast<uint32_t>(nranks)));
    int b = static_cast<int>(rng.next_bounded(static_cast<uint32_t>(nranks)));
    if (a != b) g.add_traffic(a, b, 1 + rng.next_bounded(static_cast<uint32_t>(wmax)));
  }
  return g;
}

// Exhaustive optimum over all ways to put `g` node-groups into exactly k
// non-empty clusters within the partitioner's size slack (ceil(g/k) + 1).
struct BruteOpt {
  uint64_t total = 0;
  uint64_t max_rank = 0;
};
BruteOpt brute_force(const CommGraph& graph, const sim::Topology& topo, int k) {
  const int g = topo.nodes();
  const int cap = ((g + k - 1) / k) + 1;
  std::vector<int> assign(static_cast<size_t>(g), 0);
  BruteOpt best;
  uint64_t best_total = ~0ull;
  uint64_t best_max = ~0ull;
  std::vector<int> cluster_of(static_cast<size_t>(graph.nranks()));
  for (;;) {
    // Feasibility: all k clusters used, sizes within cap.
    std::vector<int> count(static_cast<size_t>(k), 0);
    for (int c : assign) ++count[static_cast<size_t>(c)];
    bool ok = true;
    for (int c = 0; c < k; ++c)
      if (count[static_cast<size_t>(c)] == 0 || count[static_cast<size_t>(c)] > cap)
        ok = false;
    if (ok) {
      for (int r = 0; r < graph.nranks(); ++r)
        cluster_of[static_cast<size_t>(r)] = assign[static_cast<size_t>(topo.node_of(r))];
      const uint64_t total = graph.logged_bytes(cluster_of);
      auto per_rank = graph.logged_bytes_per_rank(cluster_of);
      const uint64_t mx =
          per_rank.empty() ? 0 : *std::max_element(per_rank.begin(), per_rank.end());
      best_total = std::min(best_total, total);
      best_max = std::min(best_max, mx);
    }
    // Next assignment (odometer).
    int i = 0;
    while (i < g && ++assign[static_cast<size_t>(i)] == k) {
      assign[static_cast<size_t>(i)] = 0;
      ++i;
    }
    if (i == g) break;
  }
  best.total = best_total;
  best.max_rank = best_max;
  return best;
}

// Planted communities over the node-groups plus light random cross noise:
// the structure a real traced app exhibits and the regime where the greedy
// tool is expected to find the optimum. (On dense *uniform* random graphs
// every greedy partitioner — the seed included — can land several percent
// off the exhaustive optimum; seed parity there is covered by
// PipelineMatchesSeedReference below.)
CommGraph planted_graph(const sim::Topology& topo, int communities,
                        uint64_t seed) {
  const int n = topo.nranks();
  CommGraph g(n);
  util::Pcg32 rng(seed, 17);
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      const int ga = topo.node_of(a), gb = topo.node_of(b);
      if (ga == gb) continue;
      if (ga % communities == gb % communities)
        g.add_traffic(a, b, 2000 + rng.next_bounded(200));  // heavy intra
      else if (rng.next_bounded(3) == 0)
        g.add_traffic(a, b, 1 + rng.next_bounded(30));  // light noise
    }
  }
  return g;
}

TEST(Partitioner, WithinTwoPercentOfBruteForceOptimum) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    sim::Topology topo(8, 2);  // 8 groups, 16 ranks
    CommGraph g = planted_graph(topo, 3, seed);
    Partitioner part(g, topo);
    BruteOpt opt = brute_force(g, topo, 3);
    PartitionResult total = part.partition(3, Objective::kMinTotalLogged);
    EXPECT_LE(total.logged_bytes, opt.total + opt.total / 50)
        << "seed " << seed << " (opt " << opt.total << ")";
    PartitionResult bal = part.partition(3, Objective::kBalancedLogged);
    EXPECT_LE(bal.max_rank_logged, opt.max_rank + opt.max_rank / 50)
        << "seed " << seed << " (opt max " << opt.max_rank << ")";
  }
}

TEST(Partitioner, PipelineMatchesSeedReference) {
  // The heap agglomeration and delta refinement replicate the seed greedy
  // order and acceptance rule, so the flat pipeline's quality must be at
  // least the seed's on arbitrary graphs (and is identical on most).
  for (uint64_t seed : {11u, 12u, 13u}) {
    sim::Topology topo(16, 2);  // 32 ranks over 16 nodes
    CommGraph g = random_graph(32, seed, 200, 5000);
    Partitioner part(g, topo);
    for (auto obj : {Objective::kMinTotalLogged, Objective::kBalancedLogged}) {
      PartitionResult fast = part.partition(4, obj);
      PartitionResult ref = part.partition_reference(4, obj);
      if (obj == Objective::kMinTotalLogged) {
        EXPECT_LE(fast.logged_bytes, ref.logged_bytes + ref.logged_bytes / 50)
            << "seed " << seed;
      } else {
        EXPECT_LE(fast.max_rank_logged,
                  ref.max_rank_logged + ref.max_rank_logged / 50)
            << "seed " << seed;
      }
    }
  }
}

TEST(Partitioner, DeltaObjectiveMatchesRecomputeAfterEveryMove) {
  // validate_deltas recomputes logged_bytes()/per-rank from scratch after
  // every applied refinement move and aborts on any divergence from the
  // incremental tables — for both objectives.
  for (uint64_t seed : {21u, 22u}) {
    sim::Topology topo(12, 2);
    CommGraph g = random_graph(24, seed, 150, 3000);
    Partitioner part(g, topo);
    for (auto obj : {Objective::kMinTotalLogged, Objective::kBalancedLogged}) {
      PartitionConfig cfg;
      cfg.objective = obj;
      cfg.validate_deltas = true;
      PartitionResult res = part.partition(4, cfg);
      EXPECT_EQ(res.clusters, 4);
      std::set<int> ids(res.cluster_of.begin(), res.cluster_of.end());
      EXPECT_EQ(ids.size(), 4u);
    }
  }
}

TEST(Partitioner, PartitionIsDeterministic) {
  sim::Topology topo(16, 2);
  CommGraph g = random_graph(32, 33, 250, 4000);
  Partitioner part(g, topo);
  PartitionResult a = part.partition(4);
  PartitionResult b = part.partition(4);
  EXPECT_EQ(a.cluster_of, b.cluster_of);
  EXPECT_EQ(a.logged_bytes, b.logged_bytes);
}

TEST(Partitioner, RecoversPlantedCommunities) {
  // Interleaved communities over 64 nodes: the pipeline must find the
  // planted cut exactly.
  const int n = 64;
  sim::Topology topo(n, 1);
  CommGraph g(n);
  for (int a = 0; a < n; ++a)
    for (int b = a + 1; b < n; ++b)
      if (a % 4 == b % 4) g.add_traffic(a, b, 1000);
  g.add_traffic(0, 1, 1);  // weak cross links
  g.add_traffic(2, 3, 1);
  Partitioner part(g, topo);
  EXPECT_EQ(part.partition(4).logged_bytes, 2u);  // only the two weak links
}

TEST(Partitioner, BlockPartitionFillsEveryCluster) {
  // Every k in [1, nodes] yields exactly k non-empty runs of consecutive
  // nodes whose sizes differ by at most one, including k that does not
  // divide the node count (6 or 9 nodes at k=4, 64 nodes at k=24).
  for (int nodes = 1; nodes <= 64; ++nodes) {
    sim::Topology topo(nodes, 1);
    CommGraph g(nodes);
    Partitioner part(g, topo);
    for (int k = 1; k <= nodes; ++k) {
      PartitionResult res = part.block_partition(k);
      ASSERT_EQ(res.clusters, k);
      std::vector<int> size(static_cast<size_t>(k), 0);
      for (int r = 0; r < nodes; ++r) {
        const int c = res.cluster_of[static_cast<size_t>(r)];
        ASSERT_GE(c, 0);
        ASSERT_LT(c, k);
        // Contiguous: cluster ids never decrease and never skip one.
        if (r > 0) {
          const int prev = res.cluster_of[static_cast<size_t>(r) - 1];
          ASSERT_TRUE(c == prev || c == prev + 1)
              << "nodes=" << nodes << " k=" << k << " r=" << r;
        }
        ++size[static_cast<size_t>(c)];
      }
      const auto [lo, hi] = std::minmax_element(size.begin(), size.end());
      EXPECT_GE(*lo, 1) << "nodes=" << nodes << " k=" << k;
      EXPECT_LE(*hi - *lo, 1) << "nodes=" << nodes << " k=" << k;
    }
  }
}

// ---- streaming repartitioner: single best move ---------------------------

TEST(StreamingRepartitioner, ReturnsTheUniqueBestUnitMove) {
  // Four two-rank units, two clusters: {u0, u1} and {u2, u3}. u1 talks
  // mostly to u3, so moving u1 into cluster 1 saves the most cut.
  CommGraph g(8);
  g.add_traffic(2, 6, 1000);  // u1 - u3
  g.add_traffic(2, 0, 100);   // u1 - u0
  g.add_traffic(4, 1, 300);   // u2 - u0
  g.add_traffic(5, 7, 200);   // u2 - u3
  const std::vector<int> cluster_of{0, 0, 0, 0, 1, 1, 1, 1};
  const std::vector<int> unit_of{0, 0, 1, 1, 2, 2, 3, 3};
  // Gains: u0->1 200, u1->1 900, u2->0 100, u3->0 800.
  const auto mv = StreamingRepartitioner().plan(g, cluster_of, unit_of, 2);
  ASSERT_TRUE(mv.has_value());
  EXPECT_EQ(mv->unit, 1);
  EXPECT_EQ(mv->ranks, (std::vector<int>{2, 3}));
  EXPECT_EQ(mv->from, 0);
  EXPECT_EQ(mv->to, 1);
  // The move really is the best one: no single-unit move cuts more.
  std::vector<int> after = cluster_of;
  for (int r : mv->ranks) after[static_cast<size_t>(r)] = mv->to;
  EXPECT_EQ(g.logged_bytes(cluster_of) - g.logged_bytes(after), 900u);
}

TEST(StreamingRepartitioner, TiesBreakTowardLowestIds) {
  // One rank per unit, three clusters of two. Units 0, 2 and 4 each gain
  // the same 500 from several moves: u0 -> {1, 2}, u2 -> 0, u4 -> 0.
  CommGraph g(6);
  g.add_traffic(0, 2, 500);
  g.add_traffic(0, 4, 500);
  const std::vector<int> cluster_of{0, 0, 1, 1, 2, 2};
  const std::vector<int> unit_of{0, 1, 2, 3, 4, 5};
  const auto mv = StreamingRepartitioner().plan(g, cluster_of, unit_of, 3);
  ASSERT_TRUE(mv.has_value());
  EXPECT_EQ(mv->unit, 0);
  EXPECT_EQ(mv->from, 0);
  EXPECT_EQ(mv->to, 1);
}

TEST(StreamingRepartitioner, SourceAtOneUnitFloorDoesNotMove) {
  // u0 is cluster 0's only unit; its move into cluster 1 is the only one
  // that cuts traffic, and it would empty cluster 0.
  CommGraph g(3);
  g.add_traffic(0, 1, 1000);  // u0 - u1
  g.add_traffic(1, 2, 1500);  // u1 - u2 keeps u1 in cluster 1
  const std::vector<int> unit_of{0, 1, 2};
  EXPECT_FALSE(StreamingRepartitioner()
                   .plan(g, {0, 1, 1}, unit_of, 2)
                   .has_value());

  // With a second (silent) unit in cluster 0 the same move is allowed.
  CommGraph g4(4);
  g4.add_traffic(0, 1, 1000);
  g4.add_traffic(1, 2, 1500);
  const auto mv = StreamingRepartitioner().plan(g4, {0, 1, 1, 0},
                                                {0, 1, 2, 3}, 2);
  ASSERT_TRUE(mv.has_value());
  EXPECT_EQ(mv->unit, 0);
  EXPECT_EQ(mv->to, 1);
}

TEST(StreamingRepartitioner, NoStrictlyImprovingMoveYieldsNullopt) {
  // Two dense two-unit cliques joined by a weak link, already split along
  // the cliques; u4 is silent, so moving it is a zero-gain move.
  CommGraph g(5);
  g.add_traffic(0, 1, 1000);
  g.add_traffic(2, 3, 1000);
  g.add_traffic(1, 2, 10);
  const std::vector<int> cluster_of{0, 0, 1, 1, 1};
  const std::vector<int> unit_of{0, 1, 2, 3, 4};
  EXPECT_FALSE(StreamingRepartitioner()
                   .plan(g, cluster_of, unit_of, 2)
                   .has_value());
  // One cluster: nothing to move between.
  EXPECT_FALSE(StreamingRepartitioner()
                   .plan(g, {0, 0, 0, 0, 0}, unit_of, 1)
                   .has_value());
}

}  // namespace
}  // namespace spbc::clustering
