#include "clustering/streaming.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace spbc::clustering {

std::optional<NodeMove> StreamingRepartitioner::plan(
    const CommGraph& graph, const std::vector<int>& cluster_of,
    const std::vector<int>& unit_of_rank, int nclusters) const {
  SPBC_ASSERT(cluster_of.size() == unit_of_rank.size());
  if (nclusters <= 1 || cluster_of.empty()) return std::nullopt;

  // Group ranks by colocation unit and check the invariant: one cluster per
  // unit. Units are dense-ish small ints (physical node ids).
  int max_unit = 0;
  for (int u : unit_of_rank) max_unit = std::max(max_unit, u);
  std::vector<std::vector<int>> unit_ranks(static_cast<size_t>(max_unit) + 1);
  for (size_t r = 0; r < unit_of_rank.size(); ++r)
    unit_ranks[static_cast<size_t>(unit_of_rank[r])].push_back(
        static_cast<int>(r));
  std::vector<int> cluster_units(static_cast<size_t>(nclusters), 0);
  for (size_t u = 0; u < unit_ranks.size(); ++u) {
    if (unit_ranks[u].empty()) continue;
    const int c = cluster_of[static_cast<size_t>(unit_ranks[u].front())];
    for (int r : unit_ranks[u])
      SPBC_ASSERT_MSG(cluster_of[static_cast<size_t>(r)] == c,
                      "colocation invariant violated at unit " << u);
    ++cluster_units[static_cast<size_t>(c)];
  }

  // cut_delta is exact only against the map it is given, so a unit's ranks
  // are moved one by one on `scratch` and put back after each candidate.
  std::vector<int> scratch = cluster_of;
  std::optional<NodeMove> best;
  int64_t best_delta = 0;  // only strictly negative (cut-reducing) moves
  for (size_t u = 0; u < unit_ranks.size(); ++u) {
    const std::vector<int>& ranks = unit_ranks[u];
    if (ranks.empty()) continue;
    const int from = cluster_of[static_cast<size_t>(ranks.front())];
    if (cluster_units[static_cast<size_t>(from)] <= 1) continue;
    for (int to = 0; to < nclusters; ++to) {
      if (to == from) continue;
      int64_t delta = 0;
      for (int r : ranks) {
        delta += graph.cut_delta(scratch, r, to);
        scratch[static_cast<size_t>(r)] = to;
      }
      for (int r : ranks) scratch[static_cast<size_t>(r)] = from;
      if (delta < best_delta) {
        best_delta = delta;
        best = NodeMove{static_cast<int>(u), ranks, from, to};
      }
    }
  }
  return best;
}

}  // namespace spbc::clustering
