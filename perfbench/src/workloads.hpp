#pragma once
// The benchmark's named workloads and the arms (configurations) each runs.
// NOTES.md records why each workload exists and which layers it exercises.

#include <cstdint>
#include <string>

#include "harness/scenario.hpp"

namespace perfbench {

/// One workload at one seed. Every arm is the same application run with one
/// thing changed; the seed drives compute noise, network jitter and the
/// synthetic state content.
struct Arms {
  /// The timed arm. When `fails` is set its failure time is placed by
  /// place_failure() at half of a failure-free virtual finish time.
  spbc::harness::ScenarioConfig primary;
  /// SPBC with the workload's checkpoint staging, failure-free (run only
  /// with has_reference).
  spbc::harness::ScenarioConfig reference;
  spbc::harness::ScenarioConfig native;   // unmodified library, failure-free
  spbc::harness::ScenarioConfig free_io;  // SPBC with free checkpoint I/O
  spbc::harness::ScenarioConfig no_ckpt;  // SPBC without checkpoints (Table 2)
  bool fails = false;
  /// Run `reference` first: it places the failure and, in validate mode,
  /// gives the checksum oracle. Without it the failure is placed from the
  /// native arm's finish time, and a failure-free workload's reference is
  /// the primary arm itself.
  bool has_reference = false;
  /// The workload checkpoints with free I/O, so its write-path overhead is
  /// 0 by construction and the free-I/O arm need not run.
  bool staged_is_free_io = false;
};

/// Throws std::invalid_argument for an unknown workload name.
Arms make_arms(const std::string& workload, uint64_t seed);

/// Sets the primary arm's failure time from a failure-free finish time.
void place_failure(Arms& arms, double failure_free_s);

}  // namespace perfbench
