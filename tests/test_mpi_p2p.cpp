// Unit tests: point-to-point semantics of the simmpi runtime — blocking and
// nonblocking operations, wildcards, eager vs rendezvous, FIFO delivery,
// probe, and the non-deterministic completion functions of Section 3.2.

#include <gtest/gtest.h>

#include <memory>

#include "mpi/collectives.hpp"
#include "mpi/machine.hpp"

namespace spbc::mpi {
namespace {

MachineConfig small_cfg(int nranks = 4) {
  MachineConfig cfg;
  cfg.nranks = nranks;
  cfg.ranks_per_node = 1;
  return cfg;
}

std::unique_ptr<Machine> make_machine(MachineConfig cfg) {
  auto m = std::make_unique<Machine>(cfg, std::make_unique<NativeProtocol>());
  m->set_cluster_of(std::vector<int>(static_cast<size_t>(cfg.nranks), 0));
  return m;
}

TEST(P2P, BlockingSendRecvDeliversPayload) {
  auto m = make_machine(small_cfg(2));
  std::vector<double> got;
  m->launch([&](Rank& r) {
    if (r.rank() == 0) {
      std::vector<double> data{1.0, 2.0, 3.0};
      r.send(1, 7, Payload::from_vector(data), r.world());
    } else {
      RecvResult rr = r.recv(0, 7, r.world());
      rr.copy_to(got);
      EXPECT_EQ(rr.source, 0);
      EXPECT_EQ(rr.tag, 7);
    }
  });
  RunResult res = m->run();
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(got, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(P2P, NonblockingOverlap) {
  auto m = make_machine(small_cfg(2));
  bool received = false;
  m->launch([&](Rank& r) {
    if (r.rank() == 0) {
      Request rq = r.isend(1, 1, Payload::make_synthetic(100, 0xaa), r.world());
      r.compute(1e-3);
      r.wait(rq);
    } else {
      Request rq = r.irecv(0, 1, r.world());
      r.compute(1e-3);
      r.wait(rq);
      received = true;
      EXPECT_EQ(rq.result().hash, 0xaaU);
    }
  });
  EXPECT_TRUE(m->run().completed);
  EXPECT_TRUE(received);
}

TEST(P2P, AnySourceReceivesFromEither) {
  auto m = make_machine(small_cfg(3));
  std::vector<int> sources;
  m->launch([&](Rank& r) {
    if (r.rank() == 0) {
      for (int i = 0; i < 2; ++i) {
        RecvResult rr = r.recv(kAnySource, 5, r.world());
        sources.push_back(rr.source);
      }
    } else {
      r.compute(r.rank() * 1e-4);
      r.send(0, 5, Payload::make_synthetic(64, static_cast<uint64_t>(r.rank())),
             r.world());
    }
  });
  EXPECT_TRUE(m->run().completed);
  ASSERT_EQ(sources.size(), 2u);
  // Rank 1 computes less before sending, so it arrives first.
  EXPECT_EQ(sources[0], 1);
  EXPECT_EQ(sources[1], 2);
}

TEST(P2P, AnyTagMatchesFirstArrival) {
  auto m = make_machine(small_cfg(2));
  int got_tag = -1;
  m->launch([&](Rank& r) {
    if (r.rank() == 0) {
      r.send(1, 3, Payload::make_synthetic(16, 1), r.world());
      r.send(1, 9, Payload::make_synthetic(16, 2), r.world());
    } else {
      RecvResult rr = r.recv(0, kAnyTag, r.world());
      got_tag = rr.tag;
      r.recv(0, kAnyTag, r.world());
    }
  });
  EXPECT_TRUE(m->run().completed);
  EXPECT_EQ(got_tag, 3);  // FIFO: first sent matches first
}

TEST(P2P, TagSelectionSkipsNonMatching) {
  auto m = make_machine(small_cfg(2));
  uint64_t first_hash = 0;
  m->launch([&](Rank& r) {
    if (r.rank() == 0) {
      r.send(1, 3, Payload::make_synthetic(16, 111), r.world());
      r.send(1, 9, Payload::make_synthetic(16, 222), r.world());
    } else {
      // Ask for tag 9 first: must skip the tag-3 message.
      RecvResult rr = r.recv(0, 9, r.world());
      first_hash = rr.hash;
      r.recv(0, 3, r.world());
    }
  });
  EXPECT_TRUE(m->run().completed);
  EXPECT_EQ(first_hash, 222u);
}

TEST(P2P, ChannelFifoManyMessages) {
  auto m = make_machine(small_cfg(2));
  std::vector<uint64_t> hashes;
  constexpr int kN = 100;
  m->launch([&](Rank& r) {
    if (r.rank() == 0) {
      for (int i = 0; i < kN; ++i)
        r.send(1, 1, Payload::make_synthetic(32, static_cast<uint64_t>(i)), r.world());
    } else {
      for (int i = 0; i < kN; ++i) hashes.push_back(r.recv(0, 1, r.world()).hash);
    }
  });
  EXPECT_TRUE(m->run().completed);
  for (int i = 0; i < kN; ++i) EXPECT_EQ(hashes[static_cast<size_t>(i)], static_cast<uint64_t>(i));
}

TEST(P2P, RendezvousLargeMessage) {
  MachineConfig cfg = small_cfg(2);
  cfg.eager_threshold = 1000;
  auto m = make_machine(cfg);
  uint64_t got = 0;
  m->launch([&](Rank& r) {
    if (r.rank() == 0) {
      r.send(1, 2, Payload::make_synthetic(1000000, 0xbeef), r.world());
    } else {
      r.compute(5e-3);  // sender must wait for the matching recv (CTS)
      got = r.recv(0, 2, r.world()).hash;
    }
  });
  EXPECT_TRUE(m->run().completed);
  EXPECT_EQ(got, 0xbeefU);
}

TEST(P2P, RendezvousPreservesChannelOrderWithEagerBehind) {
  MachineConfig cfg = small_cfg(2);
  cfg.eager_threshold = 1000;
  auto m = make_machine(cfg);
  std::vector<uint64_t> order;
  m->launch([&](Rank& r) {
    if (r.rank() == 0) {
      Request big = r.isend(1, 1, Payload::make_synthetic(500000, 1), r.world());
      Request small = r.isend(1, 1, Payload::make_synthetic(10, 2), r.world());
      r.wait(big);
      r.wait(small);
    } else {
      r.compute(2e-3);
      // Matching is by envelope (RTS) order: the big message matches first
      // even though its payload arrives last.
      order.push_back(r.recv(0, 1, r.world()).hash);
      order.push_back(r.recv(0, 1, r.world()).hash);
    }
  });
  EXPECT_TRUE(m->run().completed);
  EXPECT_EQ(order, (std::vector<uint64_t>{1, 2}));
}

TEST(P2P, WaitanyReturnsCompletedIndex) {
  auto m = make_machine(small_cfg(3));
  int first = -1;
  m->launch([&](Rank& r) {
    if (r.rank() == 0) {
      std::vector<Request> reqs;
      reqs.push_back(r.irecv(1, 1, r.world()));
      reqs.push_back(r.irecv(2, 1, r.world()));
      first = r.waitany(reqs);
      r.waitall(reqs);
    } else {
      r.compute(r.rank() == 2 ? 1e-4 : 5e-3);  // rank 2 sends first
      r.send(0, 1, Payload::make_synthetic(8, 0), r.world());
    }
  });
  EXPECT_TRUE(m->run().completed);
  EXPECT_EQ(first, 1);  // index of the rank-2 request
}

TEST(P2P, TestReflectsCompletion) {
  auto m = make_machine(small_cfg(2));
  bool before = true, after = false;
  m->launch([&](Rank& r) {
    if (r.rank() == 0) {
      r.compute(2e-3);
      r.send(1, 1, Payload::make_synthetic(8, 0), r.world());
    } else {
      Request rq = r.irecv(0, 1, r.world());
      before = r.test(rq);  // nothing sent yet
      r.compute(5e-3);
      after = r.test(rq);
    }
  });
  EXPECT_TRUE(m->run().completed);
  EXPECT_FALSE(before);
  EXPECT_TRUE(after);
}

TEST(P2P, IprobeSeesEnvelopeWithoutConsuming) {
  auto m = make_machine(small_cfg(2));
  Status st;
  bool hit1 = false, hit2 = false;
  m->launch([&](Rank& r) {
    if (r.rank() == 0) {
      r.send(1, 4, Payload::make_synthetic(123, 9), r.world());
    } else {
      r.compute(2e-3);
      hit1 = r.iprobe(kAnySource, 4, r.world(), &st);
      hit2 = r.iprobe(kAnySource, 4, r.world(), nullptr);  // still there
      r.recv(0, 4, r.world());
      EXPECT_FALSE(r.iprobe(kAnySource, 4, r.world(), nullptr));
    }
  });
  EXPECT_TRUE(m->run().completed);
  EXPECT_TRUE(hit1);
  EXPECT_TRUE(hit2);
  EXPECT_EQ(st.source, 0);
  EXPECT_EQ(st.tag, 4);
  EXPECT_EQ(st.bytes, 123u);
}

TEST(P2P, BlockingProbeWaits) {
  auto m = make_machine(small_cfg(2));
  sim::Time probed_at = 0;
  m->launch([&](Rank& r) {
    if (r.rank() == 0) {
      r.compute(3e-3);
      r.send(1, 4, Payload::make_synthetic(8, 0), r.world());
    } else {
      Status st = r.probe(kAnySource, 4, r.world());
      probed_at = r.now();
      EXPECT_EQ(st.source, 0);
      r.recv(st.source, 4, r.world());
    }
  });
  EXPECT_TRUE(m->run().completed);
  EXPECT_GE(probed_at, 3e-3);
}

TEST(P2P, UnmatchedRecvDeadlocks) {
  MachineConfig cfg = small_cfg(2);
  cfg.abort_on_deadlock = false;
  auto m = make_machine(cfg);
  m->launch([&](Rank& r) {
    if (r.rank() == 1) r.recv(0, 1, r.world());  // never sent
  });
  RunResult res = m->run();
  EXPECT_TRUE(res.deadlocked);
  EXPECT_FALSE(res.completed);
}

TEST(P2P, TeardownUnwindsParkedRank) {
  // A rank parked forever in recv: destroying the Machine must unwind its
  // frames, so the guard on its stack is destroyed exactly once.
  struct Guard {
    int* count;
    ~Guard() { ++*count; }
  };
  int destroyed = 0;
  MachineConfig cfg = small_cfg(2);
  cfg.abort_on_deadlock = false;
  auto m = make_machine(cfg);
  m->launch([&](Rank& r) {
    if (r.rank() != 1) return;
    Guard g{&destroyed};
    r.recv(0, 1, r.world());  // never sent
  });
  EXPECT_TRUE(m->run().deadlocked);
  EXPECT_EQ(destroyed, 0);
  m.reset();
  EXPECT_EQ(destroyed, 1);
}

TEST(P2P, OpCounterAdvances) {
  auto m = make_machine(small_cfg(2));
  uint64_t ops0 = 0;
  m->launch([&](Rank& r) {
    if (r.rank() == 0) {
      r.send(1, 1, Payload::make_synthetic(8, 0), r.world());
      r.compute(1e-3);
      ops0 = r.op_counter();
    } else {
      r.recv(0, 1, r.world());
    }
  });
  EXPECT_TRUE(m->run().completed);
  // isend + wait (via send) + compute = at least 3 ops.
  EXPECT_GE(ops0, 3u);
}

}  // namespace
}  // namespace spbc::mpi
