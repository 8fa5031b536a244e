#pragma once
// The benchmark's own driver of one simulated run.
//
// It performs the same steps as harness::run_scenario (cluster map, Machine,
// launch, failure injection, run) so that it can time the set-up apart from
// Machine::run and, in a traced run, put a timing decorator between the
// Machine and the protocol. All timing happens here, around calls into the
// simulator's public API; nothing inside the simulator is instrumented.

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "sim/engine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU seconds consumed so far by the calling thread. Each workload runs
/// its engine on the calling thread, so this is what the simulator spends.
/// Unlike wall time it leaves out intervals in which the thread did not run:
/// on a virtual machine whose vCPUs the hypervisor deschedules, wall time
/// over the same work varied by up to 1.6x while this stayed within 4%.
double thread_cpu_s();

/// One host-time span: a phase of a run, with the span that contains it.
struct Span {
  std::string name;
  double start_s = 0;  // wall seconds since the log was created
  double end_s = 0;
  double cpu_s = 0;  // thread CPU seconds inside the span
  int parent = -1;   // index into the log, -1 for a root span
};

/// Phase spans, kept in memory and written out when the benchmark ends.
class SpanLog {
 public:
  int begin(const char* name);
  void end(int id);
  /// Total thread CPU seconds, and wall seconds, of the spans named `name`.
  double cpu(const std::string& name) const;
  double wall(const std::string& name) const;
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<double> cpu_start_;  // parallel to spans_
};

/// Protocol hooks seen by the timing decorator. The first kTimedHooks never
/// park the calling fiber and are timed; the others park it (their wall
/// time would include other ranks' work) and are only counted.
enum Hook {
  kOnSend,
  kOnDelivered,
  kOnControl,
  kStampEnvelope,
  kShouldTransmit,
  kOnMatched,
  kMaybeCheckpoint,
  kOnRankStart,
  kNumHooks,
};
constexpr int kTimedHooks = kMaybeCheckpoint;
const char* hook_name(int hook);

/// Hook spans are timed on the wall clock: a thread-CPU clock read is a
/// system call, too slow for calls that take well under a microsecond.
struct HookStat {
  uint64_t calls = 0;
  double host_s = 0;  // wall seconds, inclusive of nested hook calls
};

struct HookStats {
  std::array<HookStat, kNumHooks> by_hook{};
  /// Host time of outermost timed hook calls only, so a hook invoked from
  /// inside another is not subtracted twice from the run span.
  double outermost_s = 0;
};

/// Everything one driven run yields.
struct DriveOut {
  spbc::harness::ScenarioResult res;  // the fields run_scenario fills, same meaning
  // Thread CPU seconds of each phase.
  double setup_s = 0;  // cluster map + Machine + launch + failures
  double run_s = 0;    // inside Machine::run
  double cluster_map_s = 0;
  double machine_ctor_s = 0;
  double launch_s = 0;
  double run_wall_s = 0;  // wall seconds inside Machine::run
  spbc::sim::Engine::Stats engine;
  uint64_t net_transfers = 0;
  uint64_t net_bytes = 0;
  HookStats hooks;  // traced runs only
  SpanLog spans;
};

/// Runs `cfg` once. Supports the native and SPBC protocols and a single
/// injected failure (cfg.inject_failure), which is all the workloads use.
/// With `traced`, the SPBC protocol sits behind the timing decorator.
DriveOut drive(const spbc::harness::ScenarioConfig& cfg, bool traced);

/// Empty when `a` (the benchmark's driver) and `b` (harness::run_scenario)
/// agree on every result both produce; otherwise names the first field that
/// differs.
std::string parity_mismatch(const spbc::harness::ScenarioResult& a,
                            const spbc::harness::ScenarioResult& b);

}  // namespace perfbench
