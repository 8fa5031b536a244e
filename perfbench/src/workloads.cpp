#include "workloads.hpp"

#include <stdexcept>

#include "bench_common.hpp"

namespace perfbench {

using namespace spbc;

namespace {

/// Fills the arms derived from the free-I/O SPBC configuration.
Arms arms_from(const harness::ScenarioConfig& free_io,
               const harness::ScenarioConfig& staged) {
  Arms a;
  a.free_io = free_io;
  a.reference = staged;
  a.primary = staged;
  a.native = free_io;
  a.native.protocol = harness::ProtocolKind::kNative;
  a.no_ckpt = free_io;
  a.no_ckpt.spbc.checkpoint_every = 0;
  // A deadlock ends the run as incomplete (counted as a failed run) instead
  // of aborting the process.
  for (harness::ScenarioConfig* c :
       {&a.primary, &a.reference, &a.native, &a.free_io, &a.no_ckpt})
    c->machine.abort_on_deadlock = false;
  return a;
}

}  // namespace

Arms make_arms(const std::string& workload, uint64_t seed) {
  bench::BenchOpts o;
  o.seed = seed;
  o.ppn = 8;
  o.ckpt_every = 2;

  if (workload == "ff-stage-1k") {
    // Checkpoint write path at scale: async LOCAL -> PARTNER -> PFS staging
    // with the partner scheme, 16 clusters from the clustering tool.
    o.ranks = 1024;
    o.iters = 8;
    harness::ScenarioConfig free_io =
        bench::make_config(o, "MiniGhost", 16, harness::ProtocolKind::kSpbc);
    harness::ScenarioConfig staged = free_io;
    staged.spbc.storage = ckpt::StorageLevel::kPfs;
    staged.spbc.async_staging = true;
    staged.spbc.redundancy.kind = ckpt::SchemeKind::kPartner;
    return arms_from(free_io, staged);
  }
  if (workload == "recover-reduce-512") {
    // Checkpoint reads and writes: real payloads, a 64 KiB evolving state
    // per rank with 1 KiB delta blocks and LZ compression, async XOR
    // staging, and one node loss at half the failure-free time.
    o.ranks = 512;
    o.iters = 10;
    o.compress = true;
    o.delta_blocks = 1024;
    o.state_bytes = 64 * 1024;
    harness::ScenarioConfig free_io =
        bench::make_config(o, "MiniGhost", 8, harness::ProtocolKind::kSpbc);
    free_io.app_cfg.validate = true;
    harness::ScenarioConfig staged = free_io;
    staged.spbc.storage = ckpt::StorageLevel::kPfs;
    staged.spbc.async_staging = true;
    staged.spbc.redundancy.kind = ckpt::SchemeKind::kXorGroup;
    Arms a = arms_from(free_io, staged);
    a.fails = true;
    a.has_reference = true;
    return a;
  }
  if (workload == "scale-8k-recover") {
    // Engine and matching at 8192 ranks: scaled-down messages and compute,
    // 64 block clusters on one exec shard each, aggregated rollbacks, tree
    // markers, free I/O, one node loss at mid-run.
    o.ranks = 8192;
    o.iters = 3;
    o.msg_scale = 0.05;
    o.compute_scale = 0.05;
    o.use_clustering_tool = false;
    o.shards = 0;
    o.threads = 1;
    o.agg_rollbacks = true;
    o.tree_markers = true;
    harness::ScenarioConfig free_io =
        bench::make_config(o, "MiniGhost", 64, harness::ProtocolKind::kSpbc);
    Arms a = arms_from(free_io, free_io);
    a.fails = true;
    a.staged_is_free_io = true;
    return a;
  }
  throw std::invalid_argument("unknown workload: " + workload);
}

void place_failure(Arms& arms, double failure_free_s) {
  if (!arms.fails) return;
  arms.primary.inject_failure = true;
  arms.primary.failure_at = failure_free_s * 0.5;
  arms.primary.victim_rank = 0;
}

}  // namespace perfbench
