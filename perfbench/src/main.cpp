// perfbench: the repository's two-clock benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--commit ID]
//
// Host clock: what the simulator spends (set-up and Machine::run seconds,
// nanoseconds per engine event, peak RSS). Modelled clock: what SPBC costs
// the simulated application (virtual-time overhead, bytes per storage
// level, recovery time). With --trace 0 the primary arm is repeated
// untraced for S seconds and the end-to-end metrics are printed; with
// --trace 1 untraced and traced repeats alternate and the per-layer metrics
// are printed. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// NOTES.md lists every metric and what should move it.

#include <algorithm>
#include <charconv>
#include <cstring>
#include <cstdio>
#include <fstream>
#include <malloc.h>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench_common.hpp"
#include "ckpt/reduction.hpp"
#include "drive.hpp"
#include "util/codec.hpp"
#include "workloads.hpp"

using namespace spbc;
using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;
  std::string commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    std::string val = argv[++i];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--trace") a.trace = std::stoi(val) != 0;
    else if (key == "--out-dir") a.out_dir = val;
    else if (key == "--commit") a.commit = val;
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

size_t median_index(const std::vector<double>& v) {
  std::vector<size_t> idx(v.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(), [&v](size_t a, size_t b) { return v[a] < v[b]; });
  return idx[idx.size() / 2];
}

double pct_over(double x, double base) { return (x - base) / base * 100.0; }

/// The process's peak resident set (VmHWM) since the last reset, in MB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) * 1024.0 / 1.0e6;
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Resets VmHWM to the current RSS, so the next reading is one repeat's peak.
void reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.close();
  if (!f) throw std::runtime_error("cannot reset VmHWM through /proc/self/clear_refs");
}

std::string num(double v) {
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ", ";
    out += quoted(ms[i].name) + ": {\"value\": " + num(ms[i].value) +
           ", \"unit\": " + quoted(ms[i].unit) + "}";
  }
  return out + "}";
}

/// Attempted/failed scenario executions (runs_failed_frac).
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void record(const std::string& what, const std::string& why) {
    // Every execution ends here. Hand freed heap back to the system so a
    // repeat's peak RSS does not include heap retained from earlier runs
    // (about 8 MB more per repeat on ff-stage-1k otherwise).
    malloc_trim(0);
    ++attempted;
    if (why.empty()) return;
    ++failed;
    std::fprintf(stderr, "perfbench: FAILED %s: %s\n", what.c_str(), why.c_str());
  }
};

/// Empty when a run's outputs are correct: complete, every expected
/// recovery recorded in full, checksums equal to the oracle's.
std::string run_problem(const harness::ScenarioResult& r, bool expect_recovery,
                        const std::map<int, uint64_t>* oracle) {
  if (r.run.deadlocked) return "deadlocked";
  if (!r.run.completed) return "incomplete";
  if (expect_recovery) {
    if (r.recoveries.empty()) return "no RecoveryRecord";
    for (const mpi::RecoveryRecord& rec : r.recoveries)
      if (!rec.complete()) return "incomplete RecoveryRecord";
  }
  if (oracle != nullptr) {
    if (r.checksums.empty()) return "no checksums";
    if (r.checksums != *oracle) return "checksums differ from the failure-free reference";
  }
  return "";
}

/// Everything at a fixed seed that must repeat exactly: modelled results and
/// engine/network event counts.
std::vector<double> signature(const DriveOut& d) {
  const harness::ScenarioResult& r = d.res;
  std::vector<double> s = {
      r.elapsed,
      static_cast<double>(d.engine.events),
      static_cast<double>(d.engine.serial_events),
      static_cast<double>(d.net_transfers),
      static_cast<double>(d.net_bytes),
      static_cast<double>(r.profile.total_messages),
      static_cast<double>(r.profile.total_bytes),
      static_cast<double>(r.profile.bytes_logged),
      static_cast<double>(r.checkpoints),
      static_cast<double>(r.bytes_local_written),
      static_cast<double>(r.bytes_partner_written),
      static_cast<double>(r.bytes_pfs_written),
      static_cast<double>(r.bytes_rebuild_read),
      static_cast<double>(r.ckpt_stored_bytes),
      static_cast<double>(r.capture_hwm_bytes),
      static_cast<double>(r.log_retained_hwm),
      r.normalized_rework()};
  for (const mpi::RecoveryRecord& rec : r.recoveries) {
    s.push_back(rec.restart_time);
    s.push_back(rec.caught_up_time);
  }
  for (const auto& [rank, sum] : r.checksums) s.push_back(static_cast<double>(sum));
  return s;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](double x, double y) {
           return std::memcmp(&x, &y, sizeof x) == 0;
         });
}

double recovery_s(const harness::ScenarioResult& r) {
  if (r.recoveries.empty() || !r.recoveries.front().complete()) return 0;
  const mpi::RecoveryRecord& rec = r.recoveries.front();
  return rec.caught_up_time - rec.failure_time;
}

volatile uint64_t g_sink = 0;  // keeps timed hashing from being optimized away

struct CodecRates {
  double hash_mb_s = 0;
  double compress_mb_s = 0;
  double decompress_mb_s = 0;
};

/// Throughput of the reduction codec on the workload's own state-model
/// buffers, timed from outside the run: median of 5 batches of >= 50 ms of
/// thread CPU time.
CodecRates time_codec(const ckpt::StateModelConfig& sm, uint32_t block_bytes,
                      Tally& tally) {
  std::vector<std::vector<unsigned char>> bufs;
  for (int rank = 0; rank < 8; ++rank)
    for (uint64_t epoch = 0; epoch < 5; ++epoch)
      bufs.push_back(bench::payload_state_at(sm, rank, epoch));
  double total_mb = 0;
  for (const auto& b : bufs) total_mb += static_cast<double>(b.size()) / 1.0e6;

  std::vector<std::vector<unsigned char>> enc(bufs.size());
  auto rate = [&](auto&& pass) {
    std::vector<double> rates;
    for (int batch = 0; batch < 5; ++batch) {
      const double t0 = thread_cpu_s();
      int passes = 0;
      double dt = 0;
      do {
        pass();
        ++passes;
        dt = thread_cpu_s() - t0;
      } while (dt < 0.05);
      rates.push_back(total_mb * passes / dt);
    }
    return median(rates);
  };
  CodecRates out;
  out.hash_mb_s = rate([&] {
    for (const auto& b : bufs) g_sink = ckpt::hash_blocks(b, block_bytes).back();
  });
  out.compress_mb_s = rate([&] {
    for (size_t i = 0; i < bufs.size(); ++i) enc[i] = util::codec::lz_compress(bufs[i]);
  });
  std::vector<std::vector<unsigned char>> dec(bufs.size());
  out.decompress_mb_s = rate([&] {
    for (size_t i = 0; i < bufs.size(); ++i)
      dec[i] = util::codec::lz_decompress(enc[i], bufs[i].size());
  });
  tally.record("codec round trip", dec == bufs ? "" : "lz round trip changed bytes");
  return out;
}

void write_spans(const std::string& path, const DriveOut& d) {
  std::ofstream f(path);
  f << "{\"spans\": [";
  const std::vector<Span>& spans = d.spans.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    f << (i ? ", " : "") << "{\"id\": " << i << ", \"name\": " << quoted(s.name)
      << ", \"start_s\": " << num(s.start_s) << ", \"end_s\": " << num(s.end_s)
      << ", \"cpu_s\": " << num(s.cpu_s) << ", \"parent\": " << s.parent << "}";
  }
  f << "], \"hooks\": {";
  for (int h = 0; h < kNumHooks; ++h) {
    f << (h ? ", " : "") << quoted(hook_name(h)) << ": {\"calls\": "
      << d.hooks.by_hook[h].calls << ", \"host_s\": " << num(d.hooks.by_hook[h].host_s)
      << "}";
  }
  f << "}, \"hooks_outermost_s\": " << num(d.hooks.outermost_s) << "}\n";
}

int run(const Args& args) {
  Arms arms = make_arms(args.workload, args.seed);
  Tally tally;
  const Clock::time_point t_start = Clock::now();
  const bool validate = arms.primary.app_cfg.validate;

  // Failure-free reference: t_ff for the failure and the checksum oracle.
  std::optional<harness::ScenarioResult> reference;
  if (arms.has_reference) {
    reference = harness::run_scenario(arms.reference);
    std::string why = run_problem(*reference, false, nullptr);
    if (why.empty() && validate && reference->checksums.empty()) why = "no checksums";
    tally.record("reference", why);
  }
  const std::map<int, uint64_t>* oracle =
      validate && reference ? &reference->checksums : nullptr;

  harness::ScenarioResult native = harness::run_scenario(arms.native);
  tally.record("native", run_problem(native, false, nullptr));
  place_failure(arms, reference ? reference->elapsed : native.elapsed);

  // Driver parity: the harness's own run of the primary configuration.
  harness::ScenarioResult via_harness = harness::run_scenario(arms.primary);
  tally.record("harness primary", run_problem(via_harness, arms.fails, oracle));

  // Repeats of the primary arm; traced and untraced alternate with --trace 1.
  std::vector<DriveOut> untraced, traced;
  std::vector<double> rss_mb;  // peak RSS of each untraced repeat
  std::vector<double> first_sig;
  const Clock::time_point t_loop = Clock::now();
  for (int i = 0;; ++i) {
    const bool want_traced = args.trace && i % 2 == 1;
    reset_peak_rss();
    DriveOut d = drive(arms.primary, want_traced);
    if (!want_traced) rss_mb.push_back(peak_rss_mb());
    std::string why = run_problem(d.res, arms.fails, oracle);
    if (why.empty() && untraced.empty() && !want_traced) {
      std::string field = parity_mismatch(d.res, via_harness);
      if (!field.empty()) why = "driver parity with harness::run_scenario: " + field;
    }
    std::vector<double> sig = signature(d);
    if (first_sig.empty()) first_sig = sig;
    else if (why.empty() && !same_bits(sig, first_sig))
      why = "modelled result or event count differs between repeats";
    tally.record(want_traced ? "traced repeat" : "repeat", why);
    (want_traced ? traced : untraced).push_back(std::move(d));

    const double looped = seconds_between(t_loop, Clock::now());
    const double total = seconds_between(t_start, Clock::now());
    const double per_rep = looped / (i + 1);
    const bool enough = untraced.size() >= 3 && (!args.trace || traced.size() >= 3);
    if (enough && looped >= args.seconds) break;
    if (enough && total + per_rep > 150.0) break;  // stay inside the time limit
  }

  const DriveOut& first = untraced.front();
  const harness::ScenarioResult& primary = first.res;
  std::vector<double> setup_s, run_s, ns_per_event, cluster_map_s;
  for (const DriveOut& d : untraced) {
    setup_s.push_back(d.setup_s);
    cluster_map_s.push_back(d.cluster_map_s);
    run_s.push_back(d.run_s);
    const double events = static_cast<double>(d.engine.events + d.engine.serial_events);
    ns_per_event.push_back(d.run_s / events * 1.0e9);
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"run_s", median(run_s), "s"},
        {"ns_per_event", median(ns_per_event), "ns"},
        {"peak_rss_mb", median(rss_mb), "MB"},
        {"spbc_overhead_pct", pct_over(primary.elapsed, native.elapsed), "%"},
        {"log_peak_mb", primary.profile.max_rank_logged_mb, "MB"},
    };
  } else {
    // Modelled arms that only the per-layer report needs.
    const harness::ScenarioResult& staged = reference ? *reference : primary;
    harness::ScenarioResult no_ckpt = harness::run_scenario(arms.no_ckpt);
    tally.record("no-checkpoint arm", run_problem(no_ckpt, false, nullptr));
    double ckpt_overhead = 0;
    if (!arms.staged_is_free_io) {
      harness::ScenarioResult free_io = harness::run_scenario(arms.free_io);
      tally.record("free-I/O arm", run_problem(free_io, false, nullptr));
      ckpt_overhead = pct_over(staged.elapsed, free_io.elapsed);
    }
    CodecRates codec;
    const ckpt::StateModelConfig& sm = arms.primary.spbc.state_model;
    if (sm.bytes > 0) codec = time_codec(sm, arms.primary.spbc.reduction.block_bytes, tally);

    std::vector<double> traced_run_s;
    for (const DriveOut& d : traced) traced_run_s.push_back(d.run_s);
    const DriveOut& t = traced[median_index(traced_run_s)];
    const double untraced_run = median(run_s);
    const double traced_run = median(traced_run_s);
    const ckpt::StagingStats& st = primary.staging;
    const trace::MachineProfile& prof = primary.profile;
    auto count = [](uint64_t v) { return static_cast<double>(v); };
    auto kb = [](uint64_t v) { return static_cast<double>(v) / 1.0e3; };

    metrics = {
        {"sim.events", count(first.engine.events), "count"},
        {"sim.serial_events", count(first.engine.serial_events), "count"},
        {"sim.peak_live_stacks", count(first.engine.peak_live_stacks), "count"},
        {"sim.stacks_allocated", count(first.engine.stacks_allocated), "count"},
        {"sim.run_self_s", t.run_wall_s - t.hooks.outermost_s, "s"},
        {"net.transfers", count(first.net_transfers), "count"},
        {"net.bytes", count(first.net_bytes), "B"},
        {"mpi.messages", count(prof.total_messages), "count"},
        {"mpi.bytes", count(prof.total_bytes), "B"},
        {"mpi.comm_ratio", prof.comm_ratio, "ratio"},
        {"mpi.inter_cluster_share", prof.inter_cluster_share, "ratio"},
        {"mpi.machine_ctor_s", t.machine_ctor_s, "s"},
        {"mpi.launch_s", t.launch_s, "s"},
        {"mpi.run_s", t.run_s, "s"},
    };
    for (int h = 0; h < kTimedHooks; ++h) {
      const std::string base = std::string("core.") + hook_name(h);
      metrics.push_back({base + ".calls", count(t.hooks.by_hook[h].calls), "count"});
      metrics.push_back({base + ".host_s", t.hooks.by_hook[h].host_s, "s"});
    }
    const double reduction =
        primary.ckpt_stored_bytes
            ? static_cast<double>(primary.ckpt_raw_bytes) /
                  static_cast<double>(primary.ckpt_stored_bytes)
            : 0.0;
    std::vector<Metric> rest = {
        {"core.maybe_checkpoint.calls", count(t.hooks.by_hook[kMaybeCheckpoint].calls), "count"},
        {"core.on_rank_start.calls", count(t.hooks.by_hook[kOnRankStart].calls), "count"},
        {"core.checkpoints", count(primary.checkpoints), "count"},
        {"core.capture_hwm_kb", kb(primary.capture_hwm_bytes), "KB"},
        {"core.log_retained_hwm_kb", kb(primary.log_retained_hwm), "KB"},
        {"ckpt.drains_started", count(st.drains_started), "count"},
        {"ckpt.partner_copies", count(st.partner_copies), "count"},
        {"ckpt.pfs_flushes", count(st.pfs_flushes), "count"},
        {"ckpt.hop_retries", count(st.hop_retries), "count"},
        {"ckpt.epoch_fallbacks", count(st.epoch_fallbacks), "count"},
        {"ckpt.bytes_local", count(st.bytes_to_local), "B"},
        {"ckpt.bytes_partner", count(st.bytes_to_partner), "B"},
        {"ckpt.bytes_parity", count(st.bytes_to_parity), "B"},
        {"ckpt.bytes_pfs", count(st.bytes_to_pfs), "B"},
        {"ckpt.rebuild_bytes_read", count(st.rebuild_bytes_read), "B"},
        {"ckpt.restores_local", count(st.restores_by_level[0]), "count"},
        {"ckpt.restores_partner", count(st.restores_by_level[1]), "count"},
        {"ckpt.restores_pfs", count(st.restores_by_level[2]), "count"},
        {"ckpt.rebuild_restores", count(st.rebuild_restores), "count"},
        {"ckpt.raw_kb", kb(primary.ckpt_raw_bytes), "KB"},
        {"ckpt.stored_kb", kb(primary.ckpt_stored_bytes), "KB"},
        {"ckpt.delta_snapshots", count(primary.delta_snapshots), "count"},
        {"ckpt.reduction_ratio", reduction, "ratio"},
        {"ckpt.hash_blocks_mb_s", codec.hash_mb_s, "MB/s"},
        {"util.codec.compress_mb_s", codec.compress_mb_s, "MB/s"},
        {"util.codec.decompress_mb_s", codec.decompress_mb_s, "MB/s"},
        {"clustering.cluster_map_s", median(cluster_map_s), "s"},
        {"trace.run_untraced_s", untraced_run, "s"},
        {"trace.run_traced_s", traced_run, "s"},
        {"trace.overhead_s", traced_run - untraced_run, "s"},
        {"model.virtual_s", primary.elapsed, "s"},
        {"model.native_virtual_s", native.elapsed, "s"},
        {"model.log_overhead_pct", pct_over(no_ckpt.elapsed, native.elapsed), "%"},
        {"model.ckpt_overhead_pct", ckpt_overhead, "%"},
        {"model.recovery_s", recovery_s(primary), "s"},
        {"model.rework_norm", primary.normalized_rework(), "ratio"},
        {"model.partner_mb", static_cast<double>(primary.bytes_partner_written) / 1.0e6, "MB"},
        {"model.pfs_mb", static_cast<double>(primary.bytes_pfs_written) / 1.0e6, "MB"},
        {"runs_failed_frac",
         static_cast<double>(tally.failed) / static_cast<double>(tally.attempted), "frac"},
    };
    metrics.insert(metrics.end(), rest.begin(), rest.end());
    if (!args.out_dir.empty())
      write_spans(args.out_dir + "/spans-" + args.workload + "-seed" +
                      std::to_string(args.seed) + ".json",
                  t);
  }

  // Human-readable listing, then provenance, then the result line.
  for (const Metric& m : metrics)
    std::printf("%-32s %16s %s\n", m.name.c_str(), num(m.value).c_str(), m.unit.c_str());
  std::printf("run_s samples:");
  for (double v : run_s) std::printf(" %.4f", v);
  std::printf("\nrepeats: %zu untraced, %zu traced; attempted %llu, failed %llu\n",
              untraced.size(), traced.size(),
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  std::ostringstream prov;
  prov << "{\"workload\": " << quoted(args.workload) << ", \"seed\": " << args.seed
       << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"commit\": " << quoted(args.commit)
       << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
       << ", \"compiler\": " << quoted(PERFBENCH_COMPILER)
       << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE) << "}";
  std::printf("provenance %s\n", prov.str().c_str());
  const std::string result = std::string("{\"correct\": ") +
                             (tally.failed == 0 ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(tally.attempted) +
                             ", \"failed\": " + std::to_string(tally.failed) +
                             ", \"metrics\": " + metrics_json(metrics) + "}";
  if (!args.out_dir.empty()) {
    std::ofstream f(args.out_dir + "/result-" + args.workload + "-seed" +
                    std::to_string(args.seed) + "-trace" + (args.trace ? "1" : "0") +
                    ".json");
    f << "{\"provenance\": " << prov.str() << ", \"result\": " << result << "}\n";
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
