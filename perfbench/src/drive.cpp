#include "drive.hpp"

#include <algorithm>
#include <cstring>
#include <ctime>
#include <memory>
#include <stdexcept>
#include <utility>

#include "apps/app.hpp"
#include "baselines/presets.hpp"
#include "core/spbc.hpp"
#include "mpi/machine.hpp"
#include "trace/profile.hpp"

namespace perfbench {

using namespace spbc;

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

int SpanLog::begin(const char* name) {
  Span s;
  s.name = name;
  s.start_s = seconds_between(origin_, Clock::now());
  s.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(s));
  cpu_start_.push_back(thread_cpu_s());
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::end(int id) {
  const size_t i = static_cast<size_t>(id);
  spans_[i].cpu_s = thread_cpu_s() - cpu_start_[i];
  spans_[i].end_s = seconds_between(origin_, Clock::now());
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double SpanLog::cpu(const std::string& name) const {
  double sum = 0;
  for (const Span& s : spans_)
    if (s.name == name) sum += s.cpu_s;
  return sum;
}

double SpanLog::wall(const std::string& name) const {
  double sum = 0;
  for (const Span& s : spans_)
    if (s.name == name) sum += s.end_s - s.start_s;
  return sum;
}

const char* hook_name(int hook) {
  static const char* const kNames[kNumHooks] = {
      "on_send",        "on_delivered", "on_control",       "stamp_envelope",
      "should_transmit", "on_matched",  "maybe_checkpoint", "on_rank_start"};
  return kNames[hook];
}

namespace {

/// Timing decorator over a real SPBC protocol: forwards every hook and
/// records calls and host time at the Machine/protocol boundary.
class TimedHooks final : public mpi::ProtocolHooks {
 public:
  TimedHooks(std::unique_ptr<core::SpbcProtocol> inner, HookStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  void attach(mpi::Machine& m) override { inner_->attach(m); }
  void on_cluster_map(int nclusters) override { inner_->on_cluster_map(nclusters); }
  void stamp_envelope(mpi::Rank& sender, mpi::Envelope& env) override {
    Timer t(*this, kStampEnvelope);
    inner_->stamp_envelope(sender, env);
  }
  sim::Time on_send(mpi::Rank& sender, const mpi::Envelope& env,
                    const mpi::Payload& payload) override {
    Timer t(*this, kOnSend);
    return inner_->on_send(sender, env, payload);
  }
  bool should_transmit(mpi::Rank& sender, const mpi::Envelope& env) override {
    Timer t(*this, kShouldTransmit);
    return inner_->should_transmit(sender, env);
  }
  void on_delivered(mpi::Rank& receiver, const mpi::Envelope& env,
                    const mpi::Payload& payload) override {
    Timer t(*this, kOnDelivered);
    inner_->on_delivered(receiver, env, payload);
  }
  void on_matched(mpi::Rank& receiver, const mpi::Envelope& env) override {
    Timer t(*this, kOnMatched);
    inner_->on_matched(receiver, env);
  }
  bool pattern_matching_enabled() const override {
    return inner_->pattern_matching_enabled();
  }
  bool maybe_checkpoint(mpi::Rank& rank) override {
    ++stats_.by_hook[kMaybeCheckpoint].calls;
    return inner_->maybe_checkpoint(rank);
  }
  void on_failure_injected(int victim, mpi::FailureKind kind) override {
    inner_->on_failure_injected(victim, kind);
  }
  void on_failure(int victim) override { inner_->on_failure(victim); }
  void on_rank_killed(int rank) override { inner_->on_rank_killed(rank); }
  void on_control(mpi::Rank& receiver, const mpi::ControlMsg& msg) override {
    Timer t(*this, kOnControl);
    inner_->on_control(receiver, msg);
  }
  void on_rank_start(mpi::Rank& rank, bool restarted) override {
    ++stats_.by_hook[kOnRankStart].calls;
    inner_->on_rank_start(rank, restarted);
  }

 private:
  class Timer {
   public:
    Timer(TimedHooks& h, Hook hook) : h_(h), hook_(hook) { ++h_.depth_; }
    ~Timer() {
      const double dt = seconds_between(t0_, Clock::now());
      HookStat& s = h_.stats_.by_hook[hook_];
      ++s.calls;
      s.host_s += dt;
      if (--h_.depth_ == 0) h_.stats_.outermost_s += dt;
    }
    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;

   private:
    TimedHooks& h_;
    Hook hook_;
    Clock::time_point t0_ = Clock::now();
  };

  std::unique_ptr<core::SpbcProtocol> inner_;
  HookStats& stats_;
  int depth_ = 0;  // open timed hooks (one engine thread per workload)
};

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

}  // namespace

DriveOut drive(const harness::ScenarioConfig& cfg, bool traced) {
  require(cfg.protocol == harness::ProtocolKind::kNative ||
              cfg.protocol == harness::ProtocolKind::kSpbc,
          "perfbench drives the native and SPBC protocols only");
  require(cfg.extra_failures.empty() && cfg.process_only_failures.empty() &&
              cfg.permanent_failures.empty() && cfg.silent_losses.empty() &&
              !cfg.hostile.any(),
          "perfbench injects at most one failure and no hostile shapes");
  require(cfg.machine.engine_threads <= 1, "the hook decorator is single-threaded");

  DriveOut out;
  SpanLog& log = out.spans;
  const int setup = log.begin("setup");

  int span = log.begin("clustering.compute_cluster_map");
  std::vector<int> cluster_of = harness::compute_cluster_map(cfg);
  log.end(span);

  mpi::MachineConfig mc = cfg.machine;
  mc.nranks = cfg.nranks;
  mc.ranks_per_node = cfg.ranks_per_node;
  std::unique_ptr<mpi::ProtocolHooks> proto;
  core::SpbcProtocol* spbc = nullptr;
  if (cfg.protocol == harness::ProtocolKind::kNative) {
    proto = baselines::make_native();
  } else {
    auto p = std::make_unique<core::SpbcProtocol>(cfg.spbc);
    spbc = p.get();
    if (traced)
      proto = std::make_unique<TimedHooks>(std::move(p), out.hooks);
    else
      proto = std::move(p);
  }
  span = log.begin("mpi.Machine");
  auto machine = std::make_unique<mpi::Machine>(mc, std::move(proto));
  machine->set_cluster_of(cluster_of);
  log.end(span);

  std::map<int, uint64_t> checksums;
  apps::AppConfig app_cfg = cfg.app_cfg;
  if (app_cfg.validate && app_cfg.checksums == nullptr) app_cfg.checksums = &checksums;
  const apps::AppInfo& info = apps::find_app(cfg.app);
  span = log.begin("mpi.launch");
  machine->launch([&info, app_cfg](mpi::Rank& r) { info.main(r, app_cfg); });
  log.end(span);
  if (cfg.inject_failure) {
    require(cfg.failure_at > 0, "inject_failure requires failure_at > 0");
    machine->inject_failure(cfg.failure_at, cfg.victim_rank);
  }
  log.end(setup);

  span = log.begin("mpi.run");
  mpi::RunResult rr = machine->run();
  log.end(span);

  out.setup_s = log.cpu("setup");
  out.run_s = log.cpu("mpi.run");
  out.run_wall_s = log.wall("mpi.run");
  out.cluster_map_s = log.cpu("clustering.compute_cluster_map");
  out.machine_ctor_s = log.cpu("mpi.Machine");
  out.launch_s = log.cpu("mpi.launch");
  out.engine = machine->engine().stats();
  out.net_transfers = machine->network().transfers_submitted();
  out.net_bytes = machine->network().bytes_submitted();

  // The fields harness::run_scenario fills, read through the same accessors.
  harness::ScenarioResult& res = out.res;
  res.cluster_of = std::move(cluster_of);
  res.run = rr;
  res.elapsed = rr.finish_time;
  res.checksums = std::move(checksums);
  res.profile = trace::profile_machine(*machine);
  res.recoveries = machine->recoveries();
  if (spbc != nullptr) {
    res.checkpoints = spbc->checkpoints_taken();
    res.capture_hwm_bytes = spbc->store().capture_hwm_bytes();
    res.staging = spbc->staging().stats();
    res.bytes_local_written = res.staging.bytes_to_local;
    res.bytes_partner_written = res.staging.bytes_to_partner + res.staging.bytes_to_parity;
    res.bytes_pfs_written = res.staging.bytes_to_pfs;
    res.bytes_rebuild_read = res.staging.rebuild_bytes_read;
    res.ckpt_raw_bytes = spbc->store().total_raw_bytes();
    res.ckpt_stored_bytes = spbc->store().total_bytes_written();
    res.delta_snapshots = spbc->store().delta_snapshots();
    for (int r = 0; r < cfg.nranks; ++r)
      res.log_retained_hwm =
          std::max(res.log_retained_hwm, spbc->log_of(r).bytes_retained_hwm());
  }
  return out;
}

namespace {

bool same_time(sim::Time a, sim::Time b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

std::string parity_mismatch(const harness::ScenarioResult& a,
                            const harness::ScenarioResult& b) {
  std::string why;
  auto check = [&why](bool same, const char* field) {
    if (!same && why.empty()) why = field;
  };
  check(a.run.completed == b.run.completed && a.run.deadlocked == b.run.deadlocked,
        "completion");
  check(same_time(a.elapsed, b.elapsed), "virtual finish time");
  check(a.cluster_of == b.cluster_of, "cluster map");
  check(a.checksums == b.checksums, "checksums");
  check(a.profile.total_messages == b.profile.total_messages &&
            a.profile.total_bytes == b.profile.total_bytes &&
            a.profile.bytes_logged == b.profile.bytes_logged,
        "message/byte/log counts");
  check(a.checkpoints == b.checkpoints, "checkpoints");
  check(a.bytes_local_written == b.bytes_local_written &&
            a.bytes_partner_written == b.bytes_partner_written &&
            a.bytes_pfs_written == b.bytes_pfs_written &&
            a.bytes_rebuild_read == b.bytes_rebuild_read,
        "per-level bytes");
  check(a.ckpt_raw_bytes == b.ckpt_raw_bytes &&
            a.ckpt_stored_bytes == b.ckpt_stored_bytes &&
            a.delta_snapshots == b.delta_snapshots,
        "store bytes");
  check(a.capture_hwm_bytes == b.capture_hwm_bytes &&
            a.log_retained_hwm == b.log_retained_hwm,
        "capture/log high-water marks");
  bool same_rec = a.recoveries.size() == b.recoveries.size();
  for (size_t i = 0; same_rec && i < a.recoveries.size(); ++i) {
    const mpi::RecoveryRecord& x = a.recoveries[i];
    const mpi::RecoveryRecord& y = b.recoveries[i];
    same_rec = x.failed_cluster == y.failed_cluster &&
               same_time(x.failure_time, y.failure_time) &&
               same_time(x.restart_time, y.restart_time) &&
               same_time(x.caught_up_time, y.caught_up_time) &&
               x.complete() == y.complete();
  }
  check(same_rec, "recovery records");
  return why;
}

}  // namespace perfbench
