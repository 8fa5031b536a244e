// Sharded-engine properties: fixed-seed trajectories must be bit-identical
// for every execution configuration (key shards stamp the (time, shard, seq)
// ordering key; exec shards and worker threads never appear in it), killed
// fibers must release their pooled stacks, cross-shard kill/unpark races at
// the same virtual time must resolve by the same key tie-break on one queue
// as on many, and the event queue's lazy cancellation must stay bounded by
// compaction.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/spbc.hpp"
#include "harness/scenario.hpp"
#include "mpi/machine.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "trace/determinism.hpp"

namespace spbc {
namespace {

// ---- satellite: determinism across shard counts ---------------------------
//
// An ablation_mtbf-style run: SPBC protocol, injected failures, recoveries,
// staged checkpoints, network jitter (a per-channel counter-hash, so it is
// independent of the layout) and compute noise (per-rank RNG).

struct MtbfOut {
  bool completed = false;
  sim::Time finish = 0;
  std::map<mpi::ChannelKey, std::vector<uint64_t>> trace;
  size_t recoveries = 0;
  uint64_t snapshots = 0;
  sim::Engine::Stats engine;
};

MtbfOut mtbf_run(int engine_shards, int engine_threads,
                 const std::vector<std::pair<sim::Time, int>>& failures,
                 bool scalable_ctrl = false) {
  const int nranks = 32, ppn = 2, nclusters = 8;
  mpi::MachineConfig mc;
  mc.nranks = nranks;
  mc.ranks_per_node = ppn;
  mc.seed = 7;
  mc.record_send_trace = true;
  mc.compute_noise_frac = 0.05;
  mc.net.jitter_frac = 0.2;
  mc.net.jitter_seed = 11;
  mc.engine_shards = engine_shards;
  mc.engine_threads = engine_threads;
  // Scalable control plane (leader-aggregated rollback announces + binomial
  // tree wave markers). Changes which control messages exist, so its runs
  // are only comparable against a reference with the same flags.
  mc.aggregate_rollbacks = scalable_ctrl;
  mc.tree_ckpt_markers = scalable_ctrl;

  core::SpbcConfig sc;
  sc.checkpoint_every = 2;
  // LOCAL-only staging: partner/XOR placement reserves the *host* node's
  // bandwidth queue from the owning rank's shard, and under the threaded
  // executor the CAS order of same-window cross-shard reservations is not
  // pinned (DESIGN.md §12). The engine-determinism claim tested here is
  // exact for shard-owned queues, so keep every reservation node-local.
  sc.redundancy.kind = ckpt::SchemeKind::kSingle;
  auto proto = std::make_unique<core::SpbcProtocol>(sc);
  core::SpbcProtocol* p = proto.get();
  mpi::Machine m(mc, std::move(proto));

  // Block cluster map, one cluster per pair of nodes (node-colocated, as the
  // threaded executor requires).
  const int nodes = nranks / ppn;
  std::vector<int> cmap(nranks);
  for (int r = 0; r < nranks; ++r) cmap[r] = (r / ppn) * nclusters / nodes;
  m.set_cluster_of(cmap);

  const apps::AppInfo& info = apps::find_app("MiniGhost");
  apps::AppConfig ac;
  ac.iters = 6;
  ac.msg_scale = 0.05;
  ac.compute_scale = 0.05;
  ac.validate = false;
  m.launch([&info, ac](mpi::Rank& r) { info.main(r, ac); });
  for (const auto& [t, victim] : failures) m.inject_failure(t, victim);

  mpi::RunResult res = m.run();
  MtbfOut out;
  out.completed = res.completed;
  out.finish = res.finish_time;
  out.trace = m.send_trace();
  out.recoveries = m.recoveries().size();
  out.snapshots = p->store().snapshots_taken();
  out.engine = m.engine().stats();
  return out;
}

TEST(ShardDeterminism, MtbfScenarioBitIdenticalAcrossShardPlans) {
  // Failure times as fractions of the failure-free span so both recoveries
  // actually interrupt the run.
  MtbfOut ff = mtbf_run(0, 1, {});
  ASSERT_TRUE(ff.completed);
  const std::vector<std::pair<sim::Time, int>> failures = {
      {ff.finish * 0.35, 3}, {ff.finish * 0.6, 21}};

  MtbfOut ref = mtbf_run(0, 1, failures);
  ASSERT_TRUE(ref.completed);
  EXPECT_EQ(ref.recoveries, 2u);

  struct Plan {
    int shards, threads;
    const char* name;
  };
  const std::vector<Plan> plans = {{1, 1, "shards=1"},
                                   {2, 1, "shards=2"},
                                   {8, 1, "shards=8"},
                                   {8, 4, "shards=8,threads=4"}};
  for (const Plan& pl : plans) {
    MtbfOut got = mtbf_run(pl.shards, pl.threads, failures);
    ASSERT_TRUE(got.completed) << pl.name;
    // Bit-identical, not approximately equal: same ordering keys => same
    // trajectory, including the recovery path.
    EXPECT_EQ(got.finish, ref.finish) << pl.name;
    EXPECT_EQ(got.recoveries, ref.recoveries) << pl.name;
    EXPECT_EQ(got.snapshots, ref.snapshots) << pl.name;
    // The engine's work counters are layout-independent too.
    EXPECT_EQ(got.engine.events, ref.engine.events) << pl.name;
    EXPECT_EQ(got.engine.fiber_resumes, ref.engine.fiber_resumes) << pl.name;
    EXPECT_EQ(got.engine.head_refreshes, ref.engine.head_refreshes)
        << pl.name;
    trace::DeterminismReport rep =
        trace::compare_send_traces(ref.trace, got.trace);
    EXPECT_TRUE(rep.equal) << pl.name << ": " << rep.detail;
    EXPECT_GT(rep.events_compared, 0u) << pl.name;
  }
}

// The scalable control plane (aggregate_rollbacks + tree_ckpt_markers)
// reroutes recovery announces through the cluster leader and wave markers
// through the completion tree. Those are different messages with different
// timings than the pairwise plane, so determinism is asserted within the
// flagged world: per-cluster shards with flags on is the reference, and
// every shard plan must reproduce it bit-exactly — recoveries included.
TEST(ShardDeterminism, MtbfScenarioBitIdenticalWithScalableControlPlane) {
  MtbfOut ff = mtbf_run(0, 1, {}, /*scalable_ctrl=*/true);
  ASSERT_TRUE(ff.completed);
  const std::vector<std::pair<sim::Time, int>> failures = {
      {ff.finish * 0.35, 3}, {ff.finish * 0.6, 21}};

  MtbfOut ref = mtbf_run(0, 1, failures, /*scalable_ctrl=*/true);
  ASSERT_TRUE(ref.completed);
  EXPECT_EQ(ref.recoveries, 2u);

  struct Plan {
    int shards, threads;
    const char* name;
  };
  const std::vector<Plan> plans = {{1, 1, "shards=1"},
                                   {2, 1, "shards=2"},
                                   {8, 1, "shards=8"},
                                   {8, 4, "shards=8,threads=4"}};
  for (const Plan& pl : plans) {
    MtbfOut got = mtbf_run(pl.shards, pl.threads, failures,
                           /*scalable_ctrl=*/true);
    ASSERT_TRUE(got.completed) << pl.name;
    EXPECT_EQ(got.finish, ref.finish) << pl.name;
    EXPECT_EQ(got.recoveries, ref.recoveries) << pl.name;
    EXPECT_EQ(got.snapshots, ref.snapshots) << pl.name;
    // The engine's work counters are layout-independent too.
    EXPECT_EQ(got.engine.events, ref.engine.events) << pl.name;
    EXPECT_EQ(got.engine.fiber_resumes, ref.engine.fiber_resumes) << pl.name;
    EXPECT_EQ(got.engine.head_refreshes, ref.engine.head_refreshes)
        << pl.name;
    trace::DeterminismReport rep =
        trace::compare_send_traces(ref.trace, got.trace);
    EXPECT_TRUE(rep.equal) << pl.name << ": " << rep.detail;
    EXPECT_GT(rep.events_compared, 0u) << pl.name;
  }
}

// ---- satellite: cross-shard kill/unpark race ------------------------------
//
// A rank parked on shard 1 has its wake event queued on that shard while a
// serial kill (failure injection path) lands at the SAME virtual time. The
// (time, shard, seq) tie-break must resolve the race identically in every
// execution configuration, including a single key shard: both events are
// scheduled outside the run, so both draw from origin 0's seq counter and
// keep their scheduling order.

std::vector<std::string> race_run(int key_shards, int exec_shards, int threads,
                                  bool wake_scheduled_first) {
  sim::Engine eng;
  eng.set_shard_plan(key_shards, exec_shards);
  eng.set_lookahead(sim::usec(1.0));
  if (threads > 1) eng.set_threads(threads);

  std::mutex mu;
  std::vector<std::string> log;
  auto note = [&mu, &log](std::string s) {
    std::lock_guard<std::mutex> g(mu);
    log.push_back(std::move(s));
  };

  const int shard_b = key_shards > 1 ? 1 : 0;
  sim::Engine::TaskId b = eng.spawn_on(shard_b, [&eng, &note] {
    note("B:parked");
    eng.park();  // killed fibers unwind with FiberKilled at their next wake
    note("B:woke");
    eng.wait(sim::usec(50.0));
    note("B:survived");
  });

  const sim::Time T = sim::usec(100.0);
  auto wake = [&eng, &note, b, shard_b, T] {
    eng.at_on(shard_b, T, [&eng, &note, b] {
      note("wake-event");
      eng.unpark(b);
    });
  };
  auto kill = [&eng, &note, b, T] {
    eng.at_serial(T, [&eng, &note, b] {
      note("kill-event");
      eng.kill(b);
    });
  };
  if (wake_scheduled_first) {
    wake();
    kill();
  } else {
    kill();
    wake();
  }
  eng.run();
  {
    std::lock_guard<std::mutex> g(mu);
    log.push_back(eng.task_finished(b) ? "B:finished" : "B:alive");
  }
  return log;
}

TEST(ShardDeterminism, CrossShardKillUnparkTieBreak) {
  for (bool wake_first : {true, false}) {
    // One key shard on one queue defines the expected resolution.
    const std::vector<std::string> ref = race_run(1, 1, 1, wake_first);
    struct Plan {
      int key, exec, threads;
    };
    const std::vector<Plan> plans = {{2, 1, 1}, {2, 2, 1}, {2, 2, 2}};
    for (const Plan& pl : plans) {
      const std::vector<std::string> got =
          race_run(pl.key, pl.exec, pl.threads, wake_first);
      EXPECT_EQ(got, ref) << "key=" << pl.key << " exec=" << pl.exec
                          << " threads=" << pl.threads
                          << " wake_first=" << wake_first;
    }
    // Whatever the resolution, the task must be gone at the end (killed, or
    // woken then killed at its next wait).
    EXPECT_EQ(ref.back(), "B:finished") << "wake_first=" << wake_first;
  }
}

// ---- satellite: the shard-head merge against a brute-force head scan -------
//
// A seeded storm of shard events, serial events and cancels over 64 key
// shards. Every event's actions are a pure function of its own key, so two
// executors that pop the same keys in the same order build the same storm.
// The test mirrors the engine's key rule — origin = the scheduling context's
// key shard (0 outside a run), seq = that origin's counter — and runs the
// storm twice: on the engine, and on a reference that scans every pending
// event for the smallest key at each step. The storm cancels the global head
// (the event that would run next), schedules cross-shard from serial
// context, and stops at run_until deadlines that fall on instants holding
// several events, with more events scheduled at the deadline between runs.

constexpr int kStormKeyShards = 64;
constexpr sim::Time kStormLookahead = 1.0;
constexpr size_t kStormBudget = 6000;

uint64_t storm_mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

class MergeStorm {
 public:
  /// eng == nullptr runs the brute-force reference.
  explicit MergeStorm(sim::Engine* eng)
      : eng_(eng), seq_(kStormKeyShards, 0) {}

  std::vector<sim::EventKey> executed;

  void seed_phase(uint64_t salt, sim::Time at, int n) {
    ctx_origin_ = 0;  // outside a run
    for (int i = 0; i < n; ++i) {
      const uint64_t h = storm_mix(salt * 1000 + static_cast<uint64_t>(i));
      const sim::Time t = at + 0.25 * static_cast<double>(h % 8);
      if (h % 5 == 0)
        schedule(-1, t);
      else
        schedule(static_cast<int>((h >> 8) % kStormKeyShards), t);
    }
  }

  void run_until(sim::Time deadline) {
    if (eng_ != nullptr) {
      eng_->run_until(deadline);
      return;
    }
    for (;;) {
      const int idx = head();
      if (idx < 0 || evs_[static_cast<size_t>(idx)].key.t > deadline) break;
      evs_[static_cast<size_t>(idx)].live = false;
      execute(idx);
    }
  }

  void run_to_end() {
    if (eng_ != nullptr)
      eng_->run();
    else
      run_until(std::numeric_limits<sim::Time>::infinity());
  }

 private:
  struct Ev {
    sim::EventKey key;
    int owner = 0;  // key shard the event runs on; -1 = serial
    sim::EventQueue::EventId gid = 0;
    bool live = true;
  };

  // Brute-force head scan: the smallest live key, -1 when none is pending.
  int head() const {
    int best = -1;
    for (size_t i = 0; i < evs_.size(); ++i) {
      if (!evs_[i].live) continue;
      if (best < 0 || evs_[i].key < evs_[static_cast<size_t>(best)].key)
        best = static_cast<int>(i);
    }
    return best;
  }

  void schedule(int target, sim::Time t) {
    const int idx = static_cast<int>(evs_.size());
    const uint32_t origin = static_cast<uint32_t>(ctx_origin_);
    Ev ev;
    ev.key = sim::EventKey{t, origin, seq_[origin]++};
    ev.owner = target;
    evs_.push_back(ev);
    if (eng_ == nullptr) return;
    auto fn = [this, idx] {
      evs_[static_cast<size_t>(idx)].live = false;
      execute(idx);
    };
    evs_.back().gid = target < 0 ? eng_->at_serial(t, fn)
                                 : eng_->at_on(target, t, fn);
  }

  void cancel(int idx) {
    Ev& ev = evs_[static_cast<size_t>(idx)];
    ev.live = false;
    if (eng_ != nullptr) eng_->cancel(ev.gid);
  }

  void execute(int idx) {
    const Ev ev = evs_[static_cast<size_t>(idx)];
    executed.push_back(ev.key);
    if (eng_ != nullptr) {
      EXPECT_EQ(eng_->now(), ev.key.t);
    }
    const int saved_origin = ctx_origin_;
    // A serial event runs with its scheduler's key shard as context.
    ctx_origin_ = ev.owner >= 0 ? ev.owner : static_cast<int>(ev.key.shard);
    const uint64_t h =
        storm_mix(ev.key.seq * 131 + ev.key.shard * 7919 +
                  static_cast<uint64_t>(ev.key.t * 4.0));
    const sim::Time now = ev.key.t;
    if (evs_.size() < kStormBudget) {
      const int children = (h & 3) == 0 ? 0 : 1 + static_cast<int>((h >> 2) & 1);
      for (int c = 0; c < children; ++c) {
        const uint64_t hc = storm_mix(h + static_cast<uint64_t>(c) + 1);
        // Delays on a 0.25 grid, zero included, so instants pile up events.
        const sim::Time d = 0.25 * static_cast<double>(hc % 6);
        const int to = static_cast<int>((hc >> 8) % kStormKeyShards);
        if (ev.owner < 0) {
          // Serial context: any shard, no lookahead needed.
          schedule(to, now + d);
        } else if ((hc >> 20) % 16 == 0) {
          schedule(-1, now + kStormLookahead + d);
        } else if ((hc >> 24) % 2 == 0) {
          schedule(ev.owner, now + d);  // same shard
        } else {
          schedule(to, now + (to == ev.owner ? 0.0 : kStormLookahead) + d);
        }
      }
    }
    if ((h >> 40) % 12 == 0 || (ev.owner < 0 && (h >> 40) % 3 == 0)) {
      // Cancel the global head: the event that would run next.
      const int hd = head();
      if (hd >= 0) cancel(hd);
    } else if ((h >> 44) % 8 == 0 && !evs_.empty()) {
      // Cancel an arbitrary event: pending, executed or already cancelled.
      cancel(static_cast<int>((h >> 48) % evs_.size()));
    }
    ctx_origin_ = saved_origin;
  }

  sim::Engine* eng_;
  std::vector<uint64_t> seq_;
  std::vector<Ev> evs_;
  int ctx_origin_ = 0;
};

struct StormOut {
  std::vector<sim::EventKey> executed;
  sim::Engine::Stats stats;
};

StormOut merge_storm(int exec_shards) {
  std::unique_ptr<sim::Engine> eng;
  if (exec_shards > 0) {
    eng = std::make_unique<sim::Engine>();
    eng->set_shard_plan(kStormKeyShards, exec_shards);
    eng->set_lookahead(kStormLookahead);
  }
  MergeStorm storm(eng.get());
  for (int phase = 0; phase < 6; ++phase) {
    // Each deadline is a grid instant the previous phase's events crowd.
    const sim::Time deadline = 4.0 * (phase + 1) + 0.5;
    storm.seed_phase(static_cast<uint64_t>(phase) + 1, 4.0 * phase + 0.5,
                     phase == 0 ? 200 : 40);
    storm.run_until(deadline);
  }
  storm.run_to_end();
  StormOut out;
  out.executed = std::move(storm.executed);
  if (eng) out.stats = eng->stats();
  return out;
}

bool same_keys(const std::vector<sim::EventKey>& a,
               const std::vector<sim::EventKey>& b, std::string* where) {
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (a[i].t != b[i].t || a[i].shard != b[i].shard || a[i].seq != b[i].seq) {
      *where = "first difference at event " + std::to_string(i);
      return false;
    }
  }
  if (a.size() != b.size()) {
    *where = "lengths " + std::to_string(a.size()) + " vs " +
             std::to_string(b.size());
    return false;
  }
  return true;
}

TEST(ShardMerge, MatchesBruteForceHeadScanOnEveryLayout) {
  const StormOut ref = merge_storm(0);
  ASSERT_GT(ref.executed.size(), 3000u);
  // The storm really produces the cases it is meant to: same-instant events
  // from several key shards.
  size_t shared_instants = 0;
  for (size_t i = 1; i < ref.executed.size(); ++i)
    if (ref.executed[i].t == ref.executed[i - 1].t &&
        ref.executed[i].shard != ref.executed[i - 1].shard)
      ++shared_instants;
  EXPECT_GT(shared_instants, 100u);

  std::vector<StormOut> runs;
  for (int exec : {1, 3, 16, 64}) {
    runs.push_back(merge_storm(exec));
    std::string where;
    EXPECT_TRUE(same_keys(runs.back().executed, ref.executed, &where))
        << "exec shards=" << exec << ": " << where;
    EXPECT_EQ(runs.back().stats.events, ref.executed.size() -
                                            runs.back().stats.serial_events)
        << "exec shards=" << exec;
  }
  for (const StormOut& r : runs) {
    EXPECT_EQ(r.stats.serial_events, runs.front().stats.serial_events);
    EXPECT_EQ(r.stats.head_refreshes, runs.front().stats.head_refreshes);
  }
  EXPECT_GT(runs.front().stats.serial_events, 0u);
  EXPECT_GT(runs.front().stats.head_refreshes, runs.front().stats.events);
}

// ---- satellite: finished fibers release pooled stacks ---------------------

TEST(EngineShard, FinishedFibersReleaseStacksToPool) {
  sim::Engine eng;
  // 50 short-lived fibers staggered so at most a couple are ever live; the
  // pool must recycle stacks instead of holding all 50.
  for (int i = 0; i < 50; ++i) {
    eng.at(sim::usec(10.0) * i, [&eng] {
      eng.spawn([&eng] { eng.wait(sim::usec(2.0)); });
    });
  }
  eng.run();
  const sim::Engine::Stats st = eng.stats();
  EXPECT_EQ(st.live_stacks, 0u);
  EXPECT_LE(st.peak_live_stacks, 2u);
  EXPECT_LE(st.stacks_allocated, 2u);
  EXPECT_GE(st.stacks_allocated, 1u);
}

TEST(EngineShard, KilledFibersReleaseStacksToPool) {
  sim::Engine eng;
  std::vector<sim::Engine::TaskId> ids;
  for (int i = 0; i < 8; ++i)
    ids.push_back(eng.spawn([&eng] {
      while (true) eng.wait(sim::usec(5.0));
    }));
  eng.at(sim::usec(17.0), [&eng, &ids] {
    for (sim::Engine::TaskId id : ids) eng.kill(id);
  });
  eng.run();
  const sim::Engine::Stats st = eng.stats();
  EXPECT_EQ(st.live_stacks, 0u);
  EXPECT_EQ(st.peak_live_stacks, 8u);
}

// ---- satellite: lazy-cancellation compaction bounds the heap --------------

TEST(EventQueueCompaction, CancelStormKeepsHeapNearLiveCount) {
  sim::EventQueue q;
  // 99% of scheduled events are cancelled immediately. Without compaction
  // the heap would grow to ~10000 entries; with it, heap_size() stays within
  // a small factor of the live count at every step.
  for (int i = 0; i < 10000; ++i) {
    sim::EventQueue::EventId id =
        q.schedule(static_cast<sim::Time>(i), [] {});
    if (i % 100 != 0) q.cancel(id);
    ASSERT_LE(q.heap_size(), 2 * q.size() + 65)
        << "at i=" << i << " live=" << q.size();
  }
  EXPECT_EQ(q.size(), 100u);
  size_t ran = 0;
  while (!q.empty()) {
    auto [t, fn] = q.pop();
    fn();
    ++ran;
  }
  EXPECT_EQ(ran, 100u);
}

}  // namespace
}  // namespace spbc
