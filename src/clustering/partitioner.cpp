#include "clustering/partitioner.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "clustering/agglomerate.hpp"
#include "util/assert.hpp"

namespace spbc::clustering {

Partitioner::Partitioner(const CommGraph& graph, const sim::Topology& topo)
    : graph_(graph), topo_(topo), ngroups_(topo.nodes()) {
  SPBC_ASSERT(graph.nranks() == topo.nranks());
  group_of_rank_.resize(static_cast<size_t>(graph.nranks()));
  for (int r = 0; r < graph.nranks(); ++r)
    group_of_rank_[static_cast<size_t>(r)] = topo.node_of(r);
  groups_ = GroupGraph::from_ranks(graph, group_of_rank_, ngroups_);
}

PartitionResult Partitioner::finalize(const std::vector<int>& group_cluster,
                                      int k) const {
  PartitionResult res;
  res.clusters = k;
  res.cluster_of.resize(static_cast<size_t>(graph_.nranks()));
  for (int r = 0; r < graph_.nranks(); ++r)
    res.cluster_of[static_cast<size_t>(r)] =
        group_cluster[static_cast<size_t>(group_of_rank_[static_cast<size_t>(r)])];
  res.logged_bytes = graph_.logged_bytes(res.cluster_of);
  auto per_rank = graph_.logged_bytes_per_rank(res.cluster_of);
  res.max_rank_logged = per_rank.empty() ? 0 : *std::max_element(per_rank.begin(),
                                                                 per_rank.end());
  return res;
}

PartitionResult Partitioner::partition(int k, Objective objective) const {
  PartitionConfig cfg;
  cfg.objective = objective;
  return partition(k, cfg);
}

PartitionResult Partitioner::partition(int k, const PartitionConfig& cfg) const {
  SPBC_ASSERT_MSG(k >= 1 && k <= ngroups_,
                  "k=" << k << " must be in [1, nodes=" << ngroups_ << "]");

  RefineParams rp;
  rp.k = k;
  rp.objective = cfg.objective;
  rp.node_cap = ((ngroups_ + k - 1) / k) + 1;  // seed refinement slack
  rp.validate_deltas = cfg.validate_deltas;

  std::vector<int> group_cluster = agglomerate(groups_, k);
  refine_partition(graph_, groups_, group_of_rank_, rp, group_cluster);
  return finalize(group_cluster, k);
}

PartitionResult Partitioner::block_partition(int k) const {
  SPBC_ASSERT(k >= 1 && k <= ngroups_);
  std::vector<int> group_cluster(static_cast<size_t>(ngroups_));
  for (int g = 0; g < ngroups_; ++g)
    group_cluster[static_cast<size_t>(g)] =
        static_cast<int>(int64_t{g} * k / ngroups_);
  return finalize(group_cluster, k);
}

// ---------------------------------------------------------------------------
// Seed reference implementation (pre-CSR algorithm, kept for parity tests
// and as the baseline of bench/micro_partition_scale.cpp). All-pairs group
// aggregation, all-pairs merge rescans, full-recompute refinement.
// ---------------------------------------------------------------------------

double Partitioner::reference_objective(const std::vector<int>& group_cluster,
                                        Objective objective) const {
  std::vector<int> cluster_of(static_cast<size_t>(graph_.nranks()));
  for (int r = 0; r < graph_.nranks(); ++r)
    cluster_of[static_cast<size_t>(r)] =
        group_cluster[static_cast<size_t>(topo_.node_of(r))];
  if (objective == Objective::kMinTotalLogged)
    return static_cast<double>(graph_.logged_bytes(cluster_of));
  auto per_rank = graph_.logged_bytes_per_rank(cluster_of);
  uint64_t mx = per_rank.empty() ? 0 : *std::max_element(per_rank.begin(), per_rank.end());
  // Tie-break the max with the total so refinement still makes progress when
  // the max is pinned by a single hot rank.
  return static_cast<double>(mx) +
         1e-9 * static_cast<double>(graph_.logged_bytes(cluster_of));
}

PartitionResult Partitioner::partition_reference(int k, Objective objective) const {
  SPBC_ASSERT_MSG(k >= 1 && k <= ngroups_,
                  "k=" << k << " must be in [1, nodes=" << ngroups_ << "]");

  // Dense group-level aggregation over all rank pairs (the seed constructor).
  std::vector<std::vector<uint64_t>> gw(
      static_cast<size_t>(ngroups_),
      std::vector<uint64_t>(static_cast<size_t>(ngroups_), 0));
  for (int a = 0; a < graph_.nranks(); ++a) {
    for (int b = a + 1; b < graph_.nranks(); ++b) {
      uint64_t w = graph_.weight(a, b);
      if (w == 0) continue;
      int ga = topo_.node_of(a);
      int gb = topo_.node_of(b);
      if (ga == gb) continue;
      gw[static_cast<size_t>(ga)][static_cast<size_t>(gb)] += w;
      gw[static_cast<size_t>(gb)][static_cast<size_t>(ga)] += w;
    }
  }

  // Greedy agglomeration: merge the heaviest mergeable pair until k remain,
  // rescanning every alive pair per merge.
  int max_nodes_per_cluster = (ngroups_ + k - 1) / k;
  std::vector<int> comp(static_cast<size_t>(ngroups_));
  std::iota(comp.begin(), comp.end(), 0);
  std::vector<int> size(static_cast<size_t>(ngroups_), 1);
  std::vector<std::vector<uint64_t>> w = gw;  // cluster-level weights
  std::vector<bool> alive(static_cast<size_t>(ngroups_), true);
  int ncomp = ngroups_;

  while (ncomp > k) {
    int best_a = -1, best_b = -1;
    uint64_t best_w = 0;
    bool found = false;
    for (int a = 0; a < ngroups_; ++a) {
      if (!alive[static_cast<size_t>(a)]) continue;
      for (int b = a + 1; b < ngroups_; ++b) {
        if (!alive[static_cast<size_t>(b)]) continue;
        if (size[static_cast<size_t>(a)] + size[static_cast<size_t>(b)] >
            max_nodes_per_cluster)
          continue;
        uint64_t ww = w[static_cast<size_t>(a)][static_cast<size_t>(b)];
        if (!found || ww > best_w) {
          found = true;
          best_w = ww;
          best_a = a;
          best_b = b;
        }
      }
    }
    if (!found) {
      ++max_nodes_per_cluster;
      continue;
    }
    alive[static_cast<size_t>(best_b)] = false;
    size[static_cast<size_t>(best_a)] += size[static_cast<size_t>(best_b)];
    for (int c = 0; c < ngroups_; ++c) {
      if (!alive[static_cast<size_t>(c)] || c == best_a) continue;
      w[static_cast<size_t>(best_a)][static_cast<size_t>(c)] +=
          w[static_cast<size_t>(best_b)][static_cast<size_t>(c)];
      w[static_cast<size_t>(c)][static_cast<size_t>(best_a)] =
          w[static_cast<size_t>(best_a)][static_cast<size_t>(c)];
    }
    for (int g = 0; g < ngroups_; ++g)
      if (comp[static_cast<size_t>(g)] == best_b) comp[static_cast<size_t>(g)] = best_a;
    --ncomp;
  }

  std::vector<int> remap(static_cast<size_t>(ngroups_), -1);
  int next = 0;
  std::vector<int> group_cluster(static_cast<size_t>(ngroups_));
  for (int g = 0; g < ngroups_; ++g) {
    int c = comp[static_cast<size_t>(g)];
    if (remap[static_cast<size_t>(c)] < 0) remap[static_cast<size_t>(c)] = next++;
    group_cluster[static_cast<size_t>(g)] = remap[static_cast<size_t>(c)];
  }
  SPBC_ASSERT(next == k);

  // Full-recompute Kernighan–Lin pass.
  int cap = ((ngroups_ + k - 1) / k) + 1;
  std::vector<int> csize(static_cast<size_t>(k), 0);
  for (int g = 0; g < ngroups_; ++g) ++csize[static_cast<size_t>(group_cluster[g])];
  double current = reference_objective(group_cluster, objective);
  bool improved = true;
  int rounds = 0;
  while (improved && rounds < 20) {
    improved = false;
    ++rounds;
    for (int g = 0; g < ngroups_; ++g) {
      int from = group_cluster[static_cast<size_t>(g)];
      if (csize[static_cast<size_t>(from)] <= 1) continue;
      int best_to = -1;
      double best_val = current;
      for (int to = 0; to < k; ++to) {
        if (to == from) continue;
        if (csize[static_cast<size_t>(to)] + 1 > cap) continue;
        group_cluster[static_cast<size_t>(g)] = to;
        double val = reference_objective(group_cluster, objective);
        if (val < best_val) {
          best_val = val;
          best_to = to;
        }
      }
      if (best_to >= 0) {
        group_cluster[static_cast<size_t>(g)] = best_to;
        --csize[static_cast<size_t>(from)];
        ++csize[static_cast<size_t>(best_to)];
        current = best_val;
        improved = true;
      } else {
        group_cluster[static_cast<size_t>(g)] = from;
      }
    }
  }
  return finalize(group_cluster, k);
}

}  // namespace spbc::clustering
