#pragma once
// Delta-based Kernighan–Lin-style refinement.
//
// The seed refiner re-evaluated the objective by recomputing logged_bytes()
// over the whole edge map for every candidate move — O(rounds * units * k *
// E). This refiner maintains incremental state so a candidate move of unit u
// is evaluated in O(degree(u)) (plus the ranks that send into u for the
// balanced objective), and applying it updates the state in the same bound:
//
//  * per-unit per-cluster boundary weights conn[u][c] (the classic FM gain
//    table) drive the kMinTotalLogged objective: moving u from A to B
//    changes the cut by conn[u][A] - conn[u][B];
//  * per-rank logged-bytes plus per-rank per-cluster outbound tables drive
//    kBalancedLogged: a move touches only the ranks inside u and the ranks
//    that send into u, and the global maximum over the untouched ranks comes
//    from a lazy max-heap with per-rank freshness stamps (stale entries are
//    discarded on pop) — the "lazy bucket" that avoids an O(n) max scan per
//    candidate.
//
// Move acceptance replicates the seed exactly (same scan order, same strict
// double comparison, same max+1e-9*total tie-break), so on graphs where the
// seed found the optimum this refiner finds the same partition.

#include <cstdint>
#include <vector>

#include "clustering/comm_graph.hpp"
#include "clustering/group_graph.hpp"

namespace spbc::clustering {

enum class Objective { kMinTotalLogged, kBalancedLogged };

struct RefineParams {
  int k = 1;
  Objective objective = Objective::kMinTotalLogged;
  int node_cap = 0;  // max node groups per cluster (seed: ceil(g/k) + 1)
  /// Debug/property-test mode: after every applied move, recompute the
  /// objective from scratch and assert it equals the incremental value.
  bool validate_deltas = false;
};

/// Refines `unit_cluster` (node group -> cluster in [0, k)) in place. `units`
/// is the node-group graph; `unit_of_rank` maps every rank of `graph` to its
/// node group. Deterministic.
void refine_partition(const CommGraph& graph, const GroupGraph& units,
                      const std::vector<int>& unit_of_rank,
                      const RefineParams& params, std::vector<int>& unit_cluster);

}  // namespace spbc::clustering
