// Ablation: clustering strategy (Section 6.6).
//
// The paper's configurations minimize the *total* logged volume, which
// produces very imbalanced per-process logs ("inside one cluster some
// processes have a lot of communication with other clusters while others do
// not have any") and suggests studying balanced strategies. This bench
// compares partitioners at k clusters (--clusters=K, default 8): the tool's
// min-total objective, the balanced (min-max per-rank) objective, and a
// naive block partition — reporting the partitioning wall-time per strategy
// alongside the quality columns.

#include <chrono>

#include "bench_common.hpp"
#include "clustering/comm_graph.hpp"
#include "clustering/partitioner.hpp"

using namespace spbc;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::BenchOpts o = bench::parse_opts(argc, argv);
  bench::print_header("Ablation: clustering objective (Section 6.6)", o);

  int nodes = o.ranks / o.ppn;
  int k = std::min(static_cast<int>(cli.get_int("clusters", 8)), nodes);

  util::Table table({"App", "Strategy", "partition ms", "total logged MB/s",
                     "max rank MB/s", "norm. rework"});

  for (const auto& app : bench::paper_apps()) {
    // Trace once per app.
    harness::ScenarioConfig trace_cfg =
        bench::make_config(o, app, k, harness::ProtocolKind::kNative);
    trace_cfg.app_cfg.iters = std::min(o.iters, 3);
    mpi::MachineConfig mc = trace_cfg.machine;
    mc.nranks = o.ranks;
    mc.ranks_per_node = o.ppn;
    mpi::Machine tracer(mc, baselines::make_native());
    tracer.set_cluster_of(baselines::single_cluster_map(o.ranks));
    const apps::AppInfo& info = apps::find_app(app);
    apps::AppConfig acfg = trace_cfg.app_cfg;
    tracer.launch([&info, acfg](mpi::Rank& r) { info.main(r, acfg); });
    if (!tracer.run().completed) continue;
    clustering::CommGraph graph =
        clustering::CommGraph::from_traffic(o.ranks, tracer.traffic());
    sim::Topology topo = sim::Topology::for_ranks(o.ranks, o.ppn);
    clustering::Partitioner part(graph, topo);

    struct Strategy {
      const char* name;
      clustering::PartitionResult partition;
      double ms = 0;
    };
    auto timed = [&](auto&& fn) {
      auto t0 = std::chrono::steady_clock::now();
      clustering::PartitionResult res = fn();
      double ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
      return std::pair<clustering::PartitionResult, double>(std::move(res), ms);
    };
    std::vector<Strategy> strategies;
    {
      auto [res, ms] = timed(
          [&] { return part.partition(k, clustering::Objective::kMinTotalLogged); });
      strategies.push_back({"min-total [30]", std::move(res), ms});
    }
    {
      auto [res, ms] = timed(
          [&] { return part.partition(k, clustering::Objective::kBalancedLogged); });
      strategies.push_back({"balanced", std::move(res), ms});
    }
    {
      auto [res, ms] = timed([&] { return part.block_partition(k); });
      strategies.push_back({"block", std::move(res), ms});
    }

    for (const auto& s : strategies) {
      harness::ScenarioConfig cfg =
          bench::make_config(o, app, k, harness::ProtocolKind::kSpbc);
      // Run with the explicit map by bypassing the harness clustering: use a
      // dedicated machine.
      mpi::MachineConfig mc2 = cfg.machine;
      mc2.nranks = o.ranks;
      mc2.ranks_per_node = o.ppn;
      auto proto = std::make_unique<core::SpbcProtocol>(cfg.spbc);
      mpi::Machine m(mc2, std::move(proto));
      m.set_cluster_of(s.partition.cluster_of);
      m.launch([&info, acfg = cfg.app_cfg](mpi::Rank& r) { info.main(r, acfg); });
      mpi::RunResult ffr = m.run();
      if (!ffr.completed) {
        table.add_row({app, s.name, util::Table::fmt(s.ms, 2), "fail", "fail",
                       "fail"});
        continue;
      }
      double elapsed = ffr.finish_time;
      double total_rate = 0, max_rate = 0;
      for (int r = 0; r < o.ranks; ++r) {
        double rate =
            static_cast<double>(m.rank(r).profile().bytes_logged) / 1e6 / elapsed;
        total_rate += rate;
        max_rate = std::max(max_rate, rate);
      }
      // Recovery run with the same map.
      auto proto2 = std::make_unique<core::SpbcProtocol>(cfg.spbc);
      mpi::Machine m2(mc2, std::move(proto2));
      m2.set_cluster_of(s.partition.cluster_of);
      m2.launch([&info, acfg = cfg.app_cfg](mpi::Rank& r) { info.main(r, acfg); });
      m2.inject_failure(elapsed * 0.55, 0);
      mpi::RunResult recr = m2.run();
      std::string rework = "fail";
      if (recr.completed && !m2.recoveries().empty() &&
          m2.recoveries().front().complete()) {
        const auto& rec = m2.recoveries().front();
        double lost = rec.failure_time - rec.checkpoint_time;
        if (lost > 0) rework = util::Table::fmt(rec.rework() / lost, 3);
      }
      table.add_row({app, s.name, util::Table::fmt(s.ms, 2),
                     util::Table::fmt(total_rate, 2), util::Table::fmt(max_rate, 2),
                     rework});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("(expected: min-total logs least in aggregate but is imbalanced;\n"
              " the balanced objective trims the per-rank maximum — the memory\n"
              " that actually limits the checkpoint interval)\n");
  return 0;
}
