#pragma once
// Serialized-resource primitive for the discrete-event engine.
//
// A BandwidthQueue models a device that services one transfer at a time at a
// fixed rate (a node's local SSD, its share of the PFS ingest path): callers
// reserve a span of busy time and get back the completion instant. Concurrent
// requests from the same node therefore serialize instead of magically
// overlapping — the bandwidth-sharing half of the staging drain model (the
// NIC half is already modeled by net::Network's per-node injection
// serialization).
//
// Reservations are lock-free (CAS on the busy-until instant) because a
// node's queues can be reserved from another cluster's shard: a staging
// chain whose full-copy fragment landed on a cross-domain partner flushes
// to PFS from the partner's node. Under the threaded shard executor such
// cross-shard reservations are data-race free, but their relative order
// within a parallel window is not pinned — see DESIGN.md §12 for the exact
// determinism envelope.

#include <atomic>

#include "sim/time.hpp"

namespace spbc::sim {

class BandwidthQueue {
 public:
  BandwidthQueue() = default;
  BandwidthQueue(const BandwidthQueue& o)
      : busy_until_(o.busy_until_.load(std::memory_order_relaxed)) {}
  BandwidthQueue& operator=(const BandwidthQueue& o) {
    busy_until_.store(o.busy_until_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    return *this;
  }

  /// Reserves the resource for `duration` starting no earlier than `now`
  /// and no earlier than the previously reserved work finishes. Returns the
  /// completion time of this reservation.
  Time reserve(Time now, Time duration) {
    Time cur = busy_until_.load(std::memory_order_relaxed);
    Time end;
    do {
      const Time start = cur > now ? cur : now;
      end = start + duration;
    } while (!busy_until_.compare_exchange_weak(
        cur, end, std::memory_order_acq_rel, std::memory_order_relaxed));
    return end;
  }

 private:
  std::atomic<Time> busy_until_{0};
};

}  // namespace spbc::sim
