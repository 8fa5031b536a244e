// Tests: checkpoint data reduction (DESIGN.md §15) — the deterministic
// LZ/RLE codec, the synthetic block-mutation state model, content-addressed
// delta captures in ckpt::Store (chains, the full-capture stride bound,
// chain-clamped pruning, rename semantics), chain-aware staging
// recoverability, and end-to-end scenario identity with reduction enabled.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/app.hpp"
#include "ckpt/reduction.hpp"
#include "ckpt/staging.hpp"
#include "ckpt/store.hpp"
#include "core/spbc.hpp"
#include "harness/scenario.hpp"
#include "mpi/machine.hpp"
#include "util/codec.hpp"
#include "util/rng.hpp"

namespace spbc {
namespace {

std::vector<unsigned char> roundtrip(const std::vector<unsigned char>& data) {
  const std::vector<unsigned char> enc = util::codec::lz_compress(data);
  return util::codec::lz_decompress(enc, data.size());
}

// n pairwise-distinct bytes (i * 37 mod 256 does not repeat below 256), so
// the match finder has nothing to find.
std::vector<unsigned char> tiny_input(size_t n) {
  std::vector<unsigned char> data;
  for (size_t i = 0; i < n; ++i) data.push_back(static_cast<unsigned char>(i * 37));
  return data;
}

TEST(Codec, RoundTripsEmptyAndTiny) {
  EXPECT_TRUE(roundtrip({}).empty());
  for (size_t n = 1; n <= 16; ++n) {
    const std::vector<unsigned char> data = tiny_input(n);
    EXPECT_EQ(roundtrip(data), data) << "length " << n;
  }
}

TEST(Codec, CompressesConstantRuns) {
  std::vector<unsigned char> data(64 * 1024, 0xAB);
  const std::vector<unsigned char> enc = util::codec::lz_compress(data);
  EXPECT_LT(enc.size(), data.size() / 100) << "RLE degeneration missing";
  EXPECT_EQ(util::codec::lz_decompress(enc, data.size()), data);
}

TEST(Codec, RoundTripsPatternedPayloads) {
  // Low-entropy structured content at awkward sizes, including ones that end
  // mid-match and mid-literal-run.
  util::Pcg32 rng(42, 7);
  for (size_t n : {17u, 255u, 256u, 257u, 4095u, 4096u, 70000u}) {
    std::vector<unsigned char> data(n);
    size_t i = 0;
    while (i < n) {
      const unsigned char fill = static_cast<unsigned char>(rng.next_bounded(256));
      const size_t run = 1 + rng.next_bounded(64);
      for (size_t j = 0; j < run && i < n; ++j) data[i++] = fill;
    }
    EXPECT_EQ(roundtrip(data), data) << "length " << n;
  }
}

TEST(Codec, RoundTripsIncompressibleBytes) {
  util::Pcg32 rng(3, 9);
  std::vector<unsigned char> data(50000);
  for (unsigned char& b : data) b = static_cast<unsigned char>(rng.next_bounded(256));
  // Uniform noise may expand — the caller keeps the raw bytes then — but the
  // round trip itself must still be exact.
  EXPECT_EQ(roundtrip(data), data);
}

TEST(Codec, DeterministicEncoding) {
  std::vector<unsigned char> data(8192);
  util::Pcg32 rng(11, 1);
  ckpt::fill_synth_block(data.data(), data.size(), rng.next_u64());
  EXPECT_EQ(util::codec::lz_compress(data), util::codec::lz_compress(data));
}

// The codec's token stream is part of the modelled byte counts (stored_bytes
// feeds every staging level), so the encoding itself is pinned: each input's
// encoded size and the FNV-1a digest of the encoded bytes, as produced by the
// byte-serial reference encoder. Any drift in the format fails here.
TEST(Codec, GoldenEncoding) {
  struct Golden {
    const char* name;
    size_t size;
    uint64_t digest;
  };
  std::vector<std::pair<std::string, std::vector<unsigned char>>> inputs;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    ckpt::StateModelConfig cfg;
    cfg.bytes = 64 * 1024;
    cfg.block_bytes = 1024;
    cfg.seed = seed;
    inputs.emplace_back("state seed " + std::to_string(seed), ckpt::make_state(cfg, 0));
  }
  inputs.emplace_back("constant 64KiB", std::vector<unsigned char>(64 * 1024, 0xAB));
  for (size_t n : {17u, 4095u, 70000u}) {
    util::Pcg32 rng(42, n);
    std::vector<unsigned char> data(n);
    size_t i = 0;
    while (i < n) {
      const unsigned char fill = static_cast<unsigned char>(rng.next_bounded(256));
      const size_t run = 1 + rng.next_bounded(64);
      for (size_t j = 0; j < run && i < n; ++j) data[i++] = fill;
    }
    inputs.emplace_back("patterned " + std::to_string(n), std::move(data));
  }
  {
    util::Pcg32 rng(3, 9);
    std::vector<unsigned char> data(50000);
    for (unsigned char& b : data) b = static_cast<unsigned char>(rng.next_bounded(256));
    inputs.emplace_back("noise 50000", std::move(data));
  }
  for (size_t n = 0; n <= 16; ++n)
    inputs.emplace_back("tiny " + std::to_string(n), tiny_input(n));
  const Golden golden[] = {
      {"state seed 1", 9862, 0xc7c9acad8148389full},
      {"state seed 2", 9675, 0x9940c1994e3c2d7eull},
      {"state seed 3", 9632, 0x3601e4dc773c8bf0ull},
      {"state seed 4", 9746, 0x553507d418fa5843ull},
      {"constant 64KiB", 261, 0x3d1f8fd2ae766786ull},
      {"patterned 17", 4, 0x45fc3b269eadd97aull},
      {"patterned 4095", 596, 0xfb641139103f84d4ull},
      {"patterned 70000", 11599, 0x4ec10b3ec057f739ull},
      {"noise 50000", 50198, 0xe85ed912a7f351c7ull},
      {"tiny 0", 0, 0xcbf29ce484222325ull},
      {"tiny 1", 2, 0x868e807b519a27dull},
      {"tiny 2", 3, 0xc41dcd17cf0f8838ull},
      {"tiny 3", 4, 0x4dd631fa3abfc946ull},
      {"tiny 4", 5, 0xd0bb5277c425f95bull},
      {"tiny 5", 6, 0x481653aeb6ebf4edull},
      {"tiny 6", 7, 0x95ba8690ceb8beacull},
      {"tiny 7", 8, 0x7d6c261fe03ee026ull},
      {"tiny 8", 9, 0xe71cbd4b8812996full},
      {"tiny 9", 10, 0xa5d1c5b057756715ull},
      {"tiny 10", 11, 0xf3ec1b803e749ed8ull},
      {"tiny 11", 12, 0xde55ed4d1f4e3feeull},
      {"tiny 12", 13, 0x4555ed8c76de82ebull},
      {"tiny 13", 14, 0xc8cb6d6e92ffa925ull},
      {"tiny 14", 15, 0xb009eba811c4f3bcull},
      {"tiny 15", 17, 0xc2f434fb63986134ull},
      {"tiny 16", 18, 0xb31fe131fe6e20caull},
  };
  ASSERT_EQ(inputs.size(), std::size(golden));
  for (size_t i = 0; i < inputs.size(); ++i) {
    const auto& [name, data] = inputs[i];
    const std::vector<unsigned char> enc = util::codec::lz_compress(data);
    util::Fnv1a64 h;
    h.update(enc.data(), enc.size());
    EXPECT_EQ(name, golden[i].name);
    EXPECT_TRUE(enc.size() == golden[i].size && h.digest() == golden[i].digest)
        << "      {\"" << name << "\", " << enc.size() << ", 0x" << std::hex
        << h.digest() << std::dec << "ull},";
    EXPECT_EQ(enc.capacity(), enc.size()) << name << ": blob not stored exact-size";
    EXPECT_EQ(util::codec::lz_decompress(enc, data.size()), data) << name;
  }
}

// Stores encode concurrently on threaded engine shards, so the encoder's
// scratch must not be shared between threads: concurrent encodings of
// different states must each equal their serial encoding.
TEST(Codec, ConcurrentEncodersAgree) {
  std::vector<std::vector<unsigned char>> states;
  std::vector<std::vector<unsigned char>> expected;
  for (int rank = 0; rank < 4; ++rank) {
    ckpt::StateModelConfig cfg;
    cfg.bytes = 16 * 1024 + 512 * static_cast<uint64_t>(rank);
    cfg.block_bytes = 1024;
    states.push_back(ckpt::make_state(cfg, rank));
    expected.push_back(util::codec::lz_compress(states.back()));
  }
  std::vector<int> mismatches(states.size(), 0);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < states.size(); ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i)
        if (util::codec::lz_compress(states[t]) != expected[t]) ++mismatches[t];
    });
  }
  for (std::thread& w : workers) w.join();
  for (size_t t = 0; t < states.size(); ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

TEST(StateModel, PureInSeedRankEpoch) {
  ckpt::StateModelConfig cfg;
  cfg.bytes = 8192;
  cfg.block_bytes = 512;
  cfg.mutation_rate = 0.25;
  cfg.seed = 77;
  std::vector<unsigned char> a = ckpt::make_state(cfg, 3);
  std::vector<unsigned char> b = ckpt::make_state(cfg, 3);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, ckpt::make_state(cfg, 4));
  ckpt::evolve_state(a, cfg, 3, 1);
  ckpt::evolve_state(b, cfg, 3, 1);
  EXPECT_EQ(a, b) << "evolution not pure in (seed, rank, epoch)";
  // Compressible by construction, and a bounded fraction of blocks changes
  // per epoch (mutation_rate, at least one block).
  EXPECT_LT(util::codec::lz_compress(a).size(), a.size());
  std::vector<unsigned char> c = b;
  ckpt::evolve_state(c, cfg, 3, 2);
  const std::vector<uint64_t> hb = ckpt::hash_blocks(b, cfg.block_bytes);
  const std::vector<uint64_t> hc = ckpt::hash_blocks(c, cfg.block_bytes);
  size_t changed = 0;
  for (size_t i = 0; i < hb.size(); ++i)
    if (hb[i] != hc[i]) ++changed;
  EXPECT_GE(changed, 1u);
  EXPECT_LE(changed, 4u) << "mutation rewrote more blocks than the rate allows";
}

TEST(StateModel, HashBlocksSeesTailChanges) {
  std::vector<unsigned char> a(1000, 1);
  std::vector<unsigned char> b = a;
  b.back() = 2;  // short tail block
  const std::vector<uint64_t> ha = ckpt::hash_blocks(a, 256);
  const std::vector<uint64_t> hb = ckpt::hash_blocks(b, 256);
  ASSERT_EQ(ha.size(), 4u);
  EXPECT_EQ(ha[0], hb[0]);
  EXPECT_NE(ha[3], hb[3]);
}

// A single flipped bit anywhere changes its own block's hash and no other
// block's, at block lengths that run the 32-byte stripes, the 8-byte tail
// words and the byte tail, with a short tail block after three full ones.
TEST(StateModel, HashBlocksSeeEverySingleBitFlip) {
  std::vector<uint32_t> lens;
  for (uint32_t bb = 1; bb <= 70; ++bb) lens.push_back(bb);
  lens.push_back(1024);
  util::Pcg32 rng(5, 17);
  for (uint32_t bb : lens) {
    std::vector<unsigned char> data(3 * bb + bb / 2);
    for (unsigned char& c : data) c = static_cast<unsigned char>(rng.next_u32());
    const std::vector<uint64_t> base = ckpt::hash_blocks(data, bb);
    for (size_t off = 0; off < data.size(); ++off) {
      for (int bit = 0; bit < 8; ++bit) {
        data[off] ^= static_cast<unsigned char>(1u << bit);
        const std::vector<uint64_t> h = ckpt::hash_blocks(data, bb);
        data[off] ^= static_cast<unsigned char>(1u << bit);
        for (size_t b = 0; b < h.size(); ++b) {
          ASSERT_EQ(h[b] != base[b], b == off / bb)
              << "block bytes " << bb << ", offset " << off << ", bit " << bit
              << ", block " << b;
        }
      }
    }
  }
}

TEST(StateModel, HashBlocksDependOnContentAndLengthOnly) {
  // Equal content at different block indices hashes equal.
  for (uint32_t bb : {5u, 40u, 1024u}) {
    std::vector<unsigned char> data(4 * bb);
    for (size_t i = 0; i < data.size(); ++i)
      data[i] = static_cast<unsigned char>((i % bb) * 13 + 1);
    const std::vector<uint64_t> h = ckpt::hash_blocks(data, bb);
    ASSERT_EQ(h.size(), 4u);
    for (size_t b = 1; b < h.size(); ++b) EXPECT_EQ(h[b], h[0]) << "block bytes " << bb;
  }
  // The length is mixed in: all-zero blocks of different lengths differ.
  std::set<uint64_t> zero_hashes;
  for (uint32_t len = 1; len <= 70; ++len)
    zero_hashes.insert(ckpt::hash_blocks(std::vector<unsigned char>(len), 1024).at(0));
  EXPECT_EQ(zero_hashes.size(), 70u);
}

// Store with delta + compression on: saves a per-epoch evolving payload and
// checks the chain metadata, the reduction ratio, and exact materialization.
class DeltaStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    smc_.bytes = 16384;
    smc_.block_bytes = 1024;
    smc_.mutation_rate = 0.10;
    smc_.seed = 5;
    ckpt::ReductionConfig red;
    red.delta = true;
    red.block_bytes = 1024;
    red.full_stride = 4;
    red.compress = true;
    store_.set_reduction(red);
    state_ = ckpt::make_state(smc_, 0);
  }

  ckpt::SaveInfo save_epoch(uint64_t epoch, bool force_full = false) {
    ckpt::evolve_state(state_, smc_, 0, epoch);
    expected_[epoch] = state_;
    ckpt::Snapshot s;
    s.taken_at = static_cast<double>(epoch);
    s.epoch = epoch;
    s.bytes = state_;
    return store_.save(0, std::move(s), force_full);
  }

  void expect_materializes(uint64_t epoch) {
    std::vector<unsigned char> scratch;
    EXPECT_EQ(store_.materialize(0, epoch, scratch), expected_.at(epoch))
        << "epoch " << epoch;
  }

  ckpt::StateModelConfig smc_;
  ckpt::Store store_;
  std::vector<unsigned char> state_;
  std::map<uint64_t, std::vector<unsigned char>> expected_;
};

TEST_F(DeltaStoreTest, ChainsAndStrideBound) {
  for (uint64_t e = 1; e <= 9; ++e) save_epoch(e);
  // full_stride = 4: epochs 1, 5, 9 are full; the rest chain off them.
  for (uint64_t e = 1; e <= 9; ++e) {
    const ckpt::StoredSnapshot& s = store_.at_epoch(0, e);
    const uint64_t want_base = e - ((e - 1) % 4);
    EXPECT_EQ(s.chain_base, want_base) << "epoch " << e;
    EXPECT_EQ(s.full(), e == want_base);
    expect_materializes(e);
  }
  EXPECT_EQ(store_.delta_snapshots(), 6u);
  // 10% of blocks mutate per epoch: deltas must shrink storage well below
  // the raw capture volume.
  EXPECT_LT(store_.total_bytes_written(), store_.total_raw_bytes() / 2);
}

TEST_F(DeltaStoreTest, ForceFullBreaksTheChain) {
  save_epoch(1);
  save_epoch(2);
  const ckpt::SaveInfo info = save_epoch(3, /*force_full=*/true);
  EXPECT_TRUE(info.full);
  EXPECT_EQ(info.chain_base, 3u);
  // A forced-full epoch may be renamed (the migration flip's re-key).
  store_.rename_epoch(0, 3, 7);
  EXPECT_TRUE(store_.has_epoch(0, 7));
  EXPECT_EQ(store_.at_epoch(0, 7).chain_base, 7u);
  std::vector<unsigned char> scratch;
  EXPECT_EQ(store_.materialize(0, 7, scratch), expected_.at(3));
}

TEST_F(DeltaStoreTest, PruneClampsToChainBase) {
  for (uint64_t e = 1; e <= 6; ++e) save_epoch(e);
  // Nominal floor 3 sits mid-chain (base 1): the effective floor must clamp
  // to the base, keeping epochs 1 and 2 alive to back epoch 3's restore.
  EXPECT_EQ(store_.prune_epochs_below(0, 3), 1u);
  EXPECT_TRUE(store_.has_epoch(0, 1));
  EXPECT_TRUE(store_.has_epoch(0, 2));
  expect_materializes(3);
  expect_materializes(6);
  // A floor on a full epoch prunes everything below it.
  EXPECT_EQ(store_.prune_epochs_below(0, 5), 5u);
  EXPECT_FALSE(store_.has_epoch(0, 4));
  expect_materializes(6);
}

TEST(DeltaStore, SameGranularityRequiredForDelta) {
  ckpt::Store store;
  ckpt::ReductionConfig red;
  red.delta = true;
  red.block_bytes = 512;
  store.set_reduction(red);
  ckpt::Snapshot a;
  a.epoch = 1;
  a.bytes.assign(4096, 3);
  store.save(0, std::move(a));
  // Same bytes one epoch later: a delta with zero changed blocks.
  ckpt::Snapshot b;
  b.epoch = 2;
  b.bytes.assign(4096, 3);
  const ckpt::SaveInfo info = store.save(0, std::move(b));
  EXPECT_FALSE(info.full);
  EXPECT_EQ(info.blocks_changed, 0u);
  EXPECT_EQ(info.stored_bytes, 0u);
  std::vector<unsigned char> scratch;
  EXPECT_EQ(store.materialize(0, 2, scratch),
            std::vector<unsigned char>(4096, 3));
}

TEST(DeltaStore, MissingPredecessorForcesFull) {
  ckpt::Store store;
  ckpt::ReductionConfig red;
  red.delta = true;
  store.set_reduction(red);
  ckpt::Snapshot a;
  a.epoch = 1;
  a.bytes.assign(1000, 1);
  store.save(0, std::move(a));
  // Epoch 3 has no epoch-2 predecessor: it must be a full capture.
  ckpt::Snapshot c;
  c.epoch = 3;
  c.bytes.assign(1000, 2);
  EXPECT_TRUE(store.save(0, std::move(c)).full);
}

// Chain-aware staging: a delta head is only recoverable while every chain
// element is, and execute_restore walks the whole chain.
TEST(StagingChain, RecoverabilitySpansTheChain) {
  mpi::MachineConfig mc;
  mc.nranks = 4;
  mc.ranks_per_node = 1;
  core::SpbcConfig scfg;
  auto proto = std::make_unique<core::SpbcProtocol>(scfg);
  mpi::Machine m(mc, std::move(proto));
  m.set_cluster_of({0, 0, 1, 1});

  ckpt::StagingConfig sc;
  sc.level = ckpt::StorageLevel::kPfs;
  sc.async = true;
  sc.model.pfs_bw = 1.0;  // the PFS frontier never catches up
  sc.redundancy.kind = ckpt::SchemeKind::kPartner;
  ckpt::StagingArea area(sc);
  area.attach(m);

  auto failed = std::make_shared<int>(0);
  auto succeeded = std::make_shared<int>(0);
  m.engine().at(0.01, [&] {
    area.write(0, 1, 1000);                          // full
    area.write(0, 2, 200, ckpt::LevelPlan{}, 1);     // delta on 1
    area.write(0, 3, 200, ckpt::LevelPlan{}, 1);     // delta on 1
  });
  m.engine().at(1.0, [&] {
    const std::vector<uint64_t> chain = area.restore_chain(0, 3);
    ASSERT_EQ(chain.size(), 3u);
    EXPECT_EQ(chain.front(), 1u);
    EXPECT_TRUE(area.recoverable(0, 3));
    // Losing the owner's node kills LOCAL copies of every element; the
    // partner copies keep the chain recoverable.
    area.invalidate_node(0);
    EXPECT_TRUE(area.recoverable(0, 3));
    // Losing the partner's host too exhausts the chain (PFS never landed):
    // the head must stop claiming recoverability.
    area.invalidate_node(m.node_of(area.partner_of(0)));
    EXPECT_FALSE(area.recoverable(0, 3));
    area.execute_restore(0, 3, [failed, succeeded](bool ok) {
      if (ok)
        ++*failed;  // false success: the chain was exhausted
      else
        ++*succeeded;
    });
  });
  ASSERT_TRUE(m.run().completed);
  EXPECT_EQ(*failed, 0) << "exhausted chain restore reported success";
  EXPECT_EQ(*succeeded, 1);
}

// End-to-end: reduction on (delta + compression + evolving synthetic state),
// a mid-run failure, validate-mode checksums. The recovered run must land on
// exactly the failure-free checksums — the reduction pipeline may not change
// a single byte of restored state.
TEST(ReductionE2E, FailureRunMatchesFailureFreeChecksums) {
  harness::ScenarioConfig cfg;
  cfg.app = "MiniGhost";
  cfg.nranks = 16;
  cfg.ranks_per_node = 4;
  cfg.nclusters = 4;
  cfg.app_cfg.iters = 6;
  cfg.app_cfg.validate = true;
  cfg.spbc.checkpoint_every = 2;
  cfg.spbc.storage = ckpt::StorageLevel::kPfs;
  cfg.spbc.async_staging = true;
  cfg.spbc.reduction.delta = true;
  cfg.spbc.reduction.block_bytes = 256;
  cfg.spbc.reduction.full_stride = 4;
  cfg.spbc.reduction.compress = true;
  cfg.spbc.state_model.bytes = 4096;
  cfg.spbc.state_model.block_bytes = 256;
  cfg.spbc.state_model.mutation_rate = 0.2;
  cfg.spbc.state_model.seed = 9;

  harness::ScenarioResult ff = harness::run_failure_free(cfg);
  ASSERT_TRUE(ff.run.completed);
  ASSERT_FALSE(ff.checksums.empty());
  EXPECT_GT(ff.delta_snapshots, 0u);
  EXPECT_LT(ff.ckpt_stored_bytes, ff.ckpt_raw_bytes);

  harness::ScenarioResult fr = harness::run_with_failure(cfg, ff.elapsed, 0.6);
  ASSERT_TRUE(fr.run.completed);
  EXPECT_EQ(fr.checksums, ff.checksums)
      << "reduction changed restored state bytes";
}

// Bit-identity across engine shard layouts with reduction enabled: encoded
// sizes feed the control plane and staging, so any layout-dependence in the
// encoder would fan out into divergent schedules.
TEST(ReductionE2E, ShardLayoutInvariant) {
  harness::ScenarioConfig cfg;
  cfg.app = "MiniFE";
  cfg.nranks = 16;
  cfg.ranks_per_node = 4;
  cfg.nclusters = 4;
  cfg.app_cfg.iters = 5;
  cfg.app_cfg.validate = true;
  cfg.spbc.checkpoint_every = 2;
  cfg.spbc.storage = ckpt::StorageLevel::kPfs;
  cfg.spbc.async_staging = true;
  cfg.spbc.reduction.delta = true;
  cfg.spbc.reduction.block_bytes = 512;
  cfg.spbc.reduction.compress = true;
  cfg.spbc.state_model.bytes = 2048;
  cfg.spbc.state_model.block_bytes = 512;
  cfg.spbc.state_model.seed = 4;

  cfg.machine.engine_shards = 1;
  harness::ScenarioResult serial = harness::run_failure_free(cfg);
  ASSERT_TRUE(serial.run.completed);

  cfg.machine.engine_shards = 0;  // one shard per cluster
  harness::ScenarioResult sharded = harness::run_failure_free(cfg);
  ASSERT_TRUE(sharded.run.completed);

  EXPECT_EQ(serial.checksums, sharded.checksums);
  EXPECT_EQ(serial.ckpt_stored_bytes, sharded.ckpt_stored_bytes);
  EXPECT_EQ(serial.delta_snapshots, sharded.delta_snapshots);
  EXPECT_EQ(serial.bytes_pfs_written, sharded.bytes_pfs_written);
}

// Chain bases among `captures` failure-free captures spread evenly over
// `nranks` ranks: each rank's epochs 1..E start a new chain at epoch 1 and
// every `stride` epochs after it (stride 0 = one unbounded chain).
uint64_t chain_bases(uint64_t captures, int nranks, uint64_t stride) {
  const uint64_t per_rank = captures / static_cast<uint64_t>(nranks);
  const uint64_t s = stride == 0 ? per_rank : stride;
  return static_cast<uint64_t>(nranks) * ((per_rank + s - 1) / s);
}

// The state model sits at a fixed capture offset, so a capture whose
// predecessor is stored within the stride must be a delta even when the
// variable-length prefix (runtime, log, app sections) changes length between
// epochs, and only the mutated state blocks plus the prefix may be stored.
TEST(ReductionE2E, DeltaAtEveryEligibleEpoch) {
  harness::ScenarioConfig cfg;
  cfg.app = "MiniGhost";
  cfg.nranks = 16;
  cfg.ranks_per_node = 4;
  cfg.nclusters = 4;
  cfg.app_cfg.iters = 12;  // six epochs per rank: chains start at 1 and 5
  cfg.app_cfg.validate = true;
  cfg.spbc.checkpoint_every = 2;
  cfg.spbc.storage = ckpt::StorageLevel::kPfs;
  cfg.spbc.async_staging = true;
  cfg.spbc.reduction.delta = true;
  cfg.spbc.reduction.block_bytes = 1024;
  cfg.spbc.reduction.full_stride = 4;
  cfg.spbc.state_model.bytes = 65536;  // ~9x the ~7 KB prefix
  cfg.spbc.state_model.block_bytes = 1024;
  cfg.spbc.state_model.mutation_rate = 0.1;
  cfg.spbc.state_model.seed = 5;

  harness::ScenarioResult ff = harness::run_failure_free(cfg);
  ASSERT_TRUE(ff.run.completed);
  ASSERT_GT(ff.checkpoints, 0u);
  ASSERT_EQ(ff.checkpoints % cfg.nranks, 0u) << "uneven epochs per rank";
  const uint64_t bases =
      chain_bases(ff.checkpoints, cfg.nranks, cfg.spbc.reduction.full_stride);
  EXPECT_EQ(ff.delta_snapshots, ff.checkpoints - bases)
      << "a capture with a stored predecessor was stored full";
  // Compression off: the two bases per rank are stored whole, and a delta
  // carries the ~12 capture blocks its 6 mutated state blocks straddle plus
  // the prefix (about a quarter of a capture), so about half the raw bytes
  // are stored. A state that drifts against the block grid stores nearly all.
  const double stored_share = static_cast<double>(ff.ckpt_stored_bytes) /
                              static_cast<double>(ff.ckpt_raw_bytes);
  EXPECT_LT(stored_share, 0.6) << "stored " << ff.ckpt_stored_bytes
                               << " of " << ff.ckpt_raw_bytes << " raw bytes";
}

// Scenario-level restore from a delta head: the failure lands at the
// victim's fifth cut, after its cluster has committed at least three waves,
// so recovery materializes a delta over a chain of at least two earlier
// captures, and the recovered run must still land on the failure-free
// checksums.
TEST(ReductionE2E, RestoresFromDeltaHead) {
  mpi::MachineConfig mc;
  mc.nranks = 16;
  mc.ranks_per_node = 4;
  core::SpbcConfig scfg;
  scfg.checkpoint_every = 2;
  scfg.storage = ckpt::StorageLevel::kPfs;
  scfg.async_staging = true;
  scfg.reduction.delta = true;
  scfg.reduction.block_bytes = 512;
  scfg.reduction.full_stride = 8;
  scfg.reduction.compress = true;
  scfg.state_model.bytes = 16384;
  scfg.state_model.block_bytes = 512;
  scfg.state_model.seed = 11;
  constexpr int kVictim = 5;
  const std::vector<int> cluster_of = {0, 0, 0, 0, 1, 1, 1, 1,
                                       2, 2, 2, 2, 3, 3, 3, 3};

  struct Probe {
    uint64_t committed = 0;
    bool full = true;
    uint64_t chain_base = 0;
    sim::Time cut = 0;  // latest cut of the committed epoch in the cluster
  };
  // One MiniGhost run. With `fail_at` > 0 the victim fails then, and a
  // serial probe scheduled ahead of the failure at the same instant records
  // the epoch recovery will restore.
  auto run = [&](sim::Time fail_at, Probe* probe, sim::Time* cut5,
                 std::vector<mpi::RecoveryRecord>* recoveries) {
    auto proto = std::make_unique<core::SpbcProtocol>(scfg);
    core::SpbcProtocol* p = proto.get();
    mpi::Machine m(mc, std::move(proto));
    m.set_cluster_of(cluster_of);
    std::map<int, uint64_t> sums;
    apps::AppConfig app;
    app.iters = 12;
    app.validate = true;
    app.checksums = &sums;
    const apps::AppInfo& info = apps::find_app("MiniGhost");
    m.launch([&info, app](mpi::Rank& r) { info.main(r, app); });
    if (fail_at > 0) {
      m.engine().at_serial(fail_at, [p, probe, &cluster_of] {
        probe->committed = p->committed_epoch(cluster_of[kVictim]);
        const ckpt::StoredSnapshot& s =
            p->store().at_epoch(kVictim, probe->committed);
        probe->full = s.full();
        probe->chain_base = s.chain_base;
        for (int r = 0; r < static_cast<int>(cluster_of.size()); ++r) {
          if (cluster_of[r] != cluster_of[kVictim]) continue;
          probe->cut = std::max(
              probe->cut, p->store().at_epoch(r, probe->committed).taken_at);
        }
      });
      m.inject_failure(fail_at, kVictim);
    }
    EXPECT_TRUE(m.run().completed);
    if (cut5 != nullptr) *cut5 = p->store().at_epoch(kVictim, 5).taken_at;
    if (recoveries != nullptr) *recoveries = m.recoveries();
    return sums;
  };

  sim::Time cut5 = 0;
  const std::map<int, uint64_t> ff = run(0, nullptr, &cut5, nullptr);
  ASSERT_FALSE(ff.empty());
  ASSERT_GT(cut5, 0);

  Probe probe;
  std::vector<mpi::RecoveryRecord> recs;
  const std::map<int, uint64_t> fr = run(cut5, &probe, nullptr, &recs);
  ASSERT_GE(probe.committed, 3u) << "failure precedes the third commit";
  EXPECT_FALSE(probe.full) << "restored epoch " << probe.committed
                           << " is a full capture";
  EXPECT_GE(probe.committed - probe.chain_base, 2u)
      << "restored delta chain is shorter than 2";
  ASSERT_FALSE(recs.empty());
  EXPECT_EQ(recs.front().checkpoint_time, probe.cut)
      << "recovery did not restore the probed epoch";
  EXPECT_EQ(fr, ff) << "restore from a delta head changed state bytes";
}

}  // namespace
}  // namespace spbc
