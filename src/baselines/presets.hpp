#pragma once
// Baseline configurations used across the evaluation.
//
// Three of the paper's comparison points are configurations rather than new
// protocols:
//   * native MPICH            -> mpi::NativeProtocol (no FT instrumentation)
//   * global coordinated ckpt -> SPBC with a single cluster (nothing is
//                                inter-cluster, so nothing is logged and a
//                                failure rolls everybody back)
//   * pure message logging    -> SPBC with one cluster per rank (Table 1's
//                                512-cluster row; every remote message is
//                                logged)

#include <memory>
#include <vector>

#include "core/spbc.hpp"
#include "mpi/protocol_hooks.hpp"

namespace spbc::baselines {

inline std::unique_ptr<mpi::ProtocolHooks> make_native() {
  return std::make_unique<mpi::NativeProtocol>();
}

/// Cluster map with everyone in cluster 0 (global coordinated).
inline std::vector<int> single_cluster_map(int nranks) {
  return std::vector<int>(static_cast<size_t>(nranks), 0);
}

/// Cluster map with one cluster per rank (pure message logging). Requires
/// MachineConfig::enforce_node_colocation = false.
inline std::vector<int> per_rank_cluster_map(int nranks) {
  std::vector<int> m(static_cast<size_t>(nranks));
  for (int r = 0; r < nranks; ++r) m[static_cast<size_t>(r)] = r;
  return m;
}

/// Cluster map with one cluster per node (all inter-node messages logged —
/// Table 1's 64-cluster row).
inline std::vector<int> per_node_cluster_map(int nranks, int ranks_per_node) {
  std::vector<int> m(static_cast<size_t>(nranks));
  for (int r = 0; r < nranks; ++r) m[static_cast<size_t>(r)] = r / ranks_per_node;
  return m;
}

}  // namespace spbc::baselines
