// Microbenchmarks (google-benchmark) for the hot paths the protocol adds to
// the MPI library: the matching predicate with and without pattern ids
// (Section 5.2.1's "additionally to comparing the source and tag"), the
// sender-log append (the Table 2 overhead), the received-window update, the
// event queue, fiber context switches, the checkpoint reduction kernels
// (block hashing and the LZ codec) over one evolving-state capture, and the
// steady-state capture save they serve (state evolution plus a delta and
// compressed Store::save per epoch).

#include <benchmark/benchmark.h>

#include "ckpt/reduction.hpp"
#include "ckpt/store.hpp"
#include "core/sender_log.hpp"
#include "mpi/matching.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/fiber.hpp"
#include "util/codec.hpp"
#include "util/serialize.hpp"

namespace spbc {
namespace {

mpi::Envelope make_env(int src, int tag, uint64_t seq) {
  mpi::Envelope e;
  e.src = src;
  e.dst = 0;
  e.tag = tag;
  e.ctx = 0;
  e.seqnum = seq;
  e.bytes = 1024;
  return e;
}

void BM_MatchPredicatePlain(benchmark::State& state) {
  mpi::RequestState req;
  req.match_src = mpi::kAnySource;
  req.match_tag = 7;
  mpi::Envelope env = make_env(3, 7, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mpi::MatchEngine::matches(req, env, false));
  }
}
BENCHMARK(BM_MatchPredicatePlain);

void BM_MatchPredicateWithIds(benchmark::State& state) {
  // The entire cost of the A -> A' transformation on the matching path: one
  // extra tuple comparison.
  mpi::RequestState req;
  req.match_src = mpi::kAnySource;
  req.match_tag = 7;
  req.pid = {2, 41};
  mpi::Envelope env = make_env(3, 7, 1);
  env.pid = {2, 41};
  for (auto _ : state) {
    benchmark::DoNotOptimize(mpi::MatchEngine::matches(req, env, true));
  }
}
BENCHMARK(BM_MatchPredicateWithIds);

void BM_UnexpectedQueueScan(benchmark::State& state) {
  mpi::MatchEngine engine;
  const int depth = static_cast<int>(state.range(0));
  for (int i = 0; i < depth; ++i) {
    mpi::Payload p;
    engine.on_envelope(make_env(1, 1000 + i, static_cast<uint64_t>(i + 1)), p, true, 0);
  }
  for (auto _ : state) {
    mpi::RequestState probe;
    probe.match_src = mpi::kAnySource;
    probe.match_tag = 1000 + depth - 1;  // worst case: last entry
    mpi::Status st;
    benchmark::DoNotOptimize(engine.iprobe(probe, &st));
  }
}
BENCHMARK(BM_UnexpectedQueueScan)->Arg(4)->Arg(32)->Arg(256);

void BM_SenderLogAppend(benchmark::State& state) {
  const uint64_t bytes = static_cast<uint64_t>(state.range(0));
  std::vector<unsigned char> buf(bytes, 0xab);
  core::SenderLog log;
  uint64_t seq = 0;
  for (auto _ : state) {
    mpi::Envelope e = make_env(0, 1, ++seq);
    e.bytes = bytes;
    log.append(e, mpi::Payload::from_bytes(buf.data(), bytes));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_SenderLogAppend)->Arg(1024)->Arg(65536)->Arg(1 << 20);

void BM_SeqWindowAdd(benchmark::State& state) {
  mpi::SeqWindow w;
  uint64_t seq = 0;
  for (auto _ : state) {
    w.add(++seq);
    benchmark::DoNotOptimize(w.base());
  }
}
BENCHMARK(BM_SeqWindowAdd);

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  sim::EventQueue q;
  double t = 0;
  for (auto _ : state) {
    q.schedule(t += 1.0, [] {});
    q.pop().second();
  }
}
BENCHMARK(BM_EventQueueScheduleAndPop);

void BM_FiberSwitch(benchmark::State& state) {
  sim::Engine e(64 * 1024);
  // One fiber that yields forever; measure resume+yield round trips.
  sim::Fiber fiber([] {
    for (;;) sim::Fiber::current()->yield();
  }, 64 * 1024);
  for (auto _ : state) {
    fiber.resume();
  }
  // The fiber stays parked; its stack is reclaimed with the object.
}
BENCHMARK(BM_FiberSwitch);

// A 64 KiB synthetic application state at 1 KiB block granularity: the
// capture shape the delta and compression stages see per rank.
std::vector<unsigned char> reduction_state() {
  ckpt::StateModelConfig cfg;
  cfg.bytes = 64 * 1024;
  cfg.block_bytes = 1024;
  return ckpt::make_state(cfg, 0);
}

void BM_HashBlocks(benchmark::State& state) {
  const std::vector<unsigned char> buf = reduction_state();
  for (auto _ : state) benchmark::DoNotOptimize(ckpt::hash_blocks(buf, 1024));
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(buf.size()));
}
BENCHMARK(BM_HashBlocks);

void BM_LzCompress(benchmark::State& state) {
  const std::vector<unsigned char> buf = reduction_state();
  for (auto _ : state) benchmark::DoNotOptimize(util::codec::lz_compress(buf));
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(buf.size()));
}
BENCHMARK(BM_LzCompress);

void BM_LzDecompress(benchmark::State& state) {
  const std::vector<unsigned char> buf = reduction_state();
  const std::vector<unsigned char> enc = util::codec::lz_compress(buf);
  std::vector<unsigned char> out(buf.size());
  for (auto _ : state) {
    util::codec::lz_decompress(enc.data(), enc.size(), out.data(), out.size());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(buf.size()));
}
BENCHMARK(BM_LzDecompress);

// One rank's checkpoint per iteration, shaped like a `recover-reduce-512`
// capture: the 64 KiB state evolves (10% of its 1 KiB blocks rewritten), and
// the capture is laid out as SpbcProtocol writes it, epoch | state | prefix,
// where the ~9 KB prefix stands in for the calls, runtime, log and app
// sections: new content every epoch and a length that drifts. Store::save
// delta-encodes against the previous epoch and compresses; pruning keeps
// only the live chain, as a committed wave does.
void BM_CaptureSave(benchmark::State& state) {
  ckpt::StateModelConfig sm;
  sm.bytes = 64 * 1024;
  sm.block_bytes = 1024;
  std::vector<unsigned char> buf = ckpt::make_state(sm, 0);
  ckpt::ReductionConfig rc;
  rc.delta = true;
  rc.block_bytes = 1024;
  rc.compress = true;
  ckpt::Store store;
  store.set_reduction(rc);
  std::vector<unsigned char> prefix;
  uint64_t epoch = 0;
  int64_t bytes = 0;
  for (auto _ : state) {
    ++epoch;
    ckpt::evolve_state(buf, sm, 0, epoch);
    prefix.resize(9 * 1024 + (epoch % 7) * 24);
    ckpt::fill_synth_block(prefix.data(), prefix.size(), epoch);
    util::ByteWriter w;
    w.put<uint64_t>(epoch);
    w.put_bytes(buf.data(), buf.size());
    w.put_bytes(prefix.data(), prefix.size());
    ckpt::Snapshot snap;
    snap.epoch = epoch;
    snap.bytes = w.take();
    bytes += static_cast<int64_t>(snap.bytes.size());
    benchmark::DoNotOptimize(store.save(0, std::move(snap)));
    store.prune_epochs_below(0, epoch);
  }
  state.SetBytesProcessed(bytes);
  state.counters["deltas"] = static_cast<double>(store.delta_snapshots());
  state.counters["stored_share"] =
      static_cast<double>(store.total_bytes_written()) /
      static_cast<double>(store.total_raw_bytes());
}
BENCHMARK(BM_CaptureSave);

}  // namespace
}  // namespace spbc

BENCHMARK_MAIN();
