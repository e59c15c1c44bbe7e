#include "mmr/router/nic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "mmr/audit/sim_auditor.hpp"
#include "mmr/core/simulation.hpp"
#include "mmr/snapshot/format.hpp"
#include "mmr/snapshot/walker.hpp"
#include "mmr/traffic/mix.hpp"

namespace mmr {
namespace {

Flit make_flit(ConnectionId connection, std::uint64_t seq) {
  Flit flit;
  flit.connection = connection;
  flit.seq = seq;
  return flit;
}

TEST(Nic, EmptyNicSendsNothing) {
  Nic nic(4, 2, 1);
  EXPECT_FALSE(nic.select_and_send(0).has_value());
  EXPECT_EQ(nic.total_queued(), 0u);
  nic.check_invariants();
}

TEST(Nic, SendsDepositedFlitAndConsumesCredit) {
  Nic nic(4, 2, 1);
  nic.deposit(2, make_flit(7, 0));
  const auto transfer = nic.select_and_send(0);
  ASSERT_TRUE(transfer.has_value());
  EXPECT_EQ(transfer->vc, 2u);
  EXPECT_EQ(transfer->flit.connection, 7u);
  EXPECT_EQ(nic.credits().credits(2), 1u);
  EXPECT_EQ(nic.total_sent(), 1u);
  nic.check_invariants();
}

TEST(Nic, OneSendPerCycle) {
  Nic nic(4, 2, 1);
  nic.deposit(0, make_flit(0, 0));
  nic.deposit(1, make_flit(1, 0));
  EXPECT_TRUE(nic.select_and_send(0).has_value());
  // Second call in the same conceptual cycle would be a second send; the
  // engine calls once per cycle, but the NIC itself allows repeated calls —
  // the link pipeline enforces the one-per-cycle rule.  Here: the next call
  // still finds the other flit.
  EXPECT_TRUE(nic.select_and_send(1).has_value());
  EXPECT_FALSE(nic.select_and_send(2).has_value());
}

TEST(Nic, DemandDrivenRoundRobinSkipsEmptyQueues) {
  Nic nic(8, 4, 1);
  nic.deposit(1, make_flit(1, 0));
  nic.deposit(5, make_flit(5, 0));
  nic.deposit(1, make_flit(1, 1));
  // RR starts at 0: first eligible is VC 1.
  EXPECT_EQ(nic.select_and_send(0)->vc, 1u);
  // Cursor resumes after 1: next eligible is VC 5 (skipping 2,3,4).
  EXPECT_EQ(nic.select_and_send(1)->vc, 5u);
  // Wraps back to VC 1's second flit.
  EXPECT_EQ(nic.select_and_send(2)->vc, 1u);
  EXPECT_FALSE(nic.select_and_send(3).has_value());
}

TEST(Nic, CreditGatingBlocksAndResumes) {
  Nic nic(2, /*credits=*/1, /*latency=*/1);
  nic.deposit(0, make_flit(0, 0));
  nic.deposit(0, make_flit(0, 1));
  EXPECT_EQ(nic.select_and_send(0)->vc, 0u);
  // VC 0 is out of credits; flit 1 must wait.
  EXPECT_FALSE(nic.select_and_send(1).has_value());
  nic.return_credit(0, 1);  // usable at cycle 2
  EXPECT_FALSE(nic.select_and_send(1).has_value());
  EXPECT_EQ(nic.select_and_send(2)->flit.seq, 1u);
  nic.check_invariants();
}

TEST(Nic, BlockedVcDoesNotStallOthers) {
  Nic nic(3, 1, 1);
  nic.deposit(0, make_flit(0, 0));
  nic.deposit(0, make_flit(0, 1));
  nic.deposit(2, make_flit(2, 0));
  EXPECT_EQ(nic.select_and_send(0)->vc, 0u);
  // VC 0 blocked on credits; VC 2 is served instead.
  EXPECT_EQ(nic.select_and_send(1)->vc, 2u);
}

TEST(Nic, RoundRobinIsFairUnderSaturation) {
  Nic nic(4, /*credits=*/2, /*latency=*/0);
  for (std::uint32_t vc = 0; vc < 4; ++vc) {
    for (std::uint64_t i = 0; i < 100; ++i) nic.deposit(vc, make_flit(vc, i));
  }
  std::vector<int> served(4, 0);
  for (Cycle now = 0; now < 200; ++now) {
    const auto transfer = nic.select_and_send(now);
    ASSERT_TRUE(transfer.has_value());
    ++served[transfer->vc];
    // The router drains immediately: return the credit right away.
    nic.return_credit(transfer->vc, now);
  }
  for (int s : served) EXPECT_EQ(s, 50);
  nic.check_invariants();
}

TEST(Nic, QueueAccountingMatches) {
  Nic nic(2, 4, 1);
  for (int i = 0; i < 5; ++i) nic.deposit(0, make_flit(0, static_cast<std::uint64_t>(i)));
  EXPECT_EQ(nic.queued(0), 5u);
  EXPECT_EQ(nic.total_queued(), 5u);
  (void)nic.select_and_send(0);
  EXPECT_EQ(nic.queued(0), 4u);
  EXPECT_EQ(nic.total_sent(), 1u);
  nic.check_invariants();
}

TEST(Nic, BestEffortBurstStallsWithoutDropOrReorder) {
  // A best-effort burst against a VC whose router-side FIFO is full must
  // stall at the NIC — nothing dropped, nothing reordered — and drain in
  // order as credits trickle back.
  Nic nic(2, /*credits=*/4, /*latency=*/1);
  for (std::uint64_t i = 0; i < 32; ++i) nic.deposit(1, make_flit(9, i));
  ASSERT_EQ(nic.queued(1), 32u);

  std::vector<std::uint64_t> sent;
  Cycle now = 0;
  for (; now < 4; ++now) {
    const auto transfer = nic.select_and_send(now);
    ASSERT_TRUE(transfer.has_value());
    sent.push_back(transfer->flit.seq);
  }
  // Credits exhausted: the VC stalls.  The queue holds every flit.
  for (; now < 12; ++now) {
    EXPECT_FALSE(nic.select_and_send(now).has_value());
  }
  EXPECT_EQ(nic.queued(1), 28u);
  EXPECT_EQ(nic.total_sent(), 4u);
  nic.check_invariants();

  // The router drains one flit per cycle; sends resume where they left off.
  while (sent.size() < 32) {
    nic.return_credit(1, now);
    ++now;
    const auto transfer = nic.select_and_send(now);
    if (transfer.has_value()) sent.push_back(transfer->flit.seq);
    ASSERT_LT(now, 1000u) << "drain did not resume after credits returned";
  }
  // First resumed flit is seq 4 (no skip), and the whole burst arrived in
  // FIFO order with no gaps.
  ASSERT_EQ(sent.size(), 32u);
  for (std::uint64_t i = 0; i < 32; ++i) EXPECT_EQ(sent[i], i);
  EXPECT_EQ(nic.queued(1), 0u);
  EXPECT_EQ(nic.total_sent(), 32u);
  nic.check_invariants();
}

TEST(Nic, BackpressureUnderSaturationKeepsPerVcFifo) {
  // Integration: a best-effort workload offered above what the switch can
  // carry forces sustained NIC backpressure.  The SimAuditor (audit=1)
  // sweeps every cycle and aborts on any per-VC FIFO or conservation
  // violation, so a clean run is the assertion; we additionally check that
  // pressure actually built up (backlog) and that nothing was dropped.
  SimConfig config;
  config.ports = 4;
  config.vcs_per_link = 16;
  config.warmup_cycles = 500;
  config.measure_cycles = 5'000;
  config.audit_every = 1;
  Rng rng(config.seed, 1);
  Workload workload(config.ports);
  BestEffortSpec spec;
  spec.load = 0.95;  // above the per-port capacity the arbiter sustains
  spec.connections_per_link = 3;
  add_best_effort(workload, config, spec, rng);

  MmrSimulation simulation(config, std::move(workload));
  ASSERT_NE(simulation.auditor(), nullptr);
  const SimulationMetrics metrics = simulation.run();
  EXPECT_EQ(simulation.auditor()->cycles_audited(), config.total_cycles());
  EXPECT_GT(metrics.flits_delivered, 0u);
  // Stall, not drop: the undeliverable surplus is still queued (the auditor
  // sweep aborts on any conservation or per-VC FIFO violation).
  EXPECT_GT(metrics.flits_generated, metrics.flits_delivered);
  EXPECT_GT(simulation.backlog(), 0u) << "expected sustained backpressure";
}

TEST(Nic, InfiniteBufferAcceptsLargeBacklog) {
  Nic nic(1, 1, 1);
  for (std::uint64_t i = 0; i < 10000; ++i) nic.deposit(0, make_flit(0, i));
  EXPECT_EQ(nic.queued(0), 10000u);
  nic.check_invariants();
}

// --- differential: ready bitset vs the linear round-robin scan --------------

/// The link controller as first written: apply due credits, then walk every
/// VC from the cursor and send from the first with a flit and a credit.
/// Kept here as the reference the word-parallel search must agree with.
class LinearScanNic {
 public:
  LinearScanNic(std::uint32_t vcs, std::uint32_t credits, Cycle latency)
      : queues_(vcs), credits_(vcs, credits, latency) {}

  void deposit(std::uint32_t vc, const Flit& flit) {
    queues_[vc].push_back(flit);
  }
  void return_credit(std::uint32_t vc, Cycle now) { credits_.release(vc, now); }
  void set_paused(bool paused) { paused_ = paused; }
  void move_queue(std::uint32_t from_vc, std::uint32_t to_vc) {
    if (from_vc == to_vc) return;
    for (const Flit& flit : queues_[from_vc]) queues_[to_vc].push_back(flit);
    queues_[from_vc].clear();
  }

  std::optional<LinkTransfer> select_and_send(Cycle now) {
    credits_.tick(now);
    if (paused_) return std::nullopt;
    const auto n = static_cast<std::uint32_t>(queues_.size());
    for (std::uint32_t k = 0; k < n; ++k) {
      const std::uint32_t vc = (rr_next_ + k) % n;
      if (queues_[vc].empty() || !credits_.has_credit(vc)) continue;
      credits_.consume(vc);
      LinkTransfer transfer;
      transfer.flit = queues_[vc].front();
      transfer.vc = vc;
      queues_[vc].pop_front();
      rr_next_ = (vc + 1) % n;
      return transfer;
    }
    return std::nullopt;
  }

 private:
  std::vector<std::deque<Flit>> queues_;
  CreditManager credits_;
  std::uint32_t rr_next_ = 0;
  bool paused_ = false;
};

struct DiffCase {
  std::uint32_t vcs;
  std::uint32_t credits;
  Cycle latency;
  std::uint32_t active;  ///< VCs that receive traffic (sparse vs dense)
};

TEST(NicDifferential, ReadyBitsetPicksTheSameVcAsTheLinearScan) {
  // Randomized deposits, credit returns after random router delays,
  // move_queue and Xon/Xoff pauses.  Every cycle both controllers must send
  // the same flit on the same VC (or both nothing), and the NIC's own
  // invariant sweep checks the ready set against queues and credits.
  const DiffCase cases[] = {
      {1, 1, 1, 1},   {3, 2, 0, 3},    {64, 2, 1, 5},   {65, 1, 2, 65},
      {128, 4, 3, 9}, {200, 2, 1, 30}, {256, 2, 1, 256}, {256, 1, 0, 3},
  };
  for (const DiffCase& c : cases) {
    const std::string tag = "vcs=" + std::to_string(c.vcs) +
                            " credits=" + std::to_string(c.credits) +
                            " latency=" + std::to_string(c.latency) +
                            " active=" + std::to_string(c.active);
    std::mt19937_64 rng(c.vcs * 1'000'003u + c.credits * 101u + c.latency);
    std::vector<std::uint32_t> active(c.vcs);
    for (std::uint32_t vc = 0; vc < c.vcs; ++vc) active[vc] = vc;
    std::shuffle(active.begin(), active.end(), rng);
    active.resize(c.active);

    Nic nic(c.vcs, c.credits, c.latency);
    LinearScanNic reference(c.vcs, c.credits, c.latency);
    // Flits inside the "router": (cycle its credit goes back, vc).
    std::deque<std::pair<Cycle, std::uint32_t>> in_router;
    std::uint64_t seq = 0;
    std::uint64_t sends = 0;
    for (Cycle now = 0; now < 4'000; ++now) {
      const std::uint64_t roll = rng() % 1000;
      const std::uint32_t deposits =
          roll < 300 ? 0u : (roll < 800 ? 1u : static_cast<std::uint32_t>(
                                                   2 + rng() % 3));
      for (std::uint32_t i = 0; i < deposits; ++i) {
        const std::uint32_t vc = active[rng() % active.size()];
        const Flit flit = make_flit(vc, seq++);
        nic.deposit(vc, flit);
        reference.deposit(vc, flit);
      }
      if (rng() % 200 == 0) {
        const std::uint32_t from = active[rng() % active.size()];
        const std::uint32_t to = active[rng() % active.size()];
        nic.move_queue(from, to);
        reference.move_queue(from, to);
      }
      if (rng() % 150 == 0) {
        const bool paused = !nic.paused();
        nic.set_paused(paused);
        reference.set_paused(paused);
      }
      while (!in_router.empty() && in_router.front().first <= now) {
        nic.return_credit(in_router.front().second, now);
        reference.return_credit(in_router.front().second, now);
        in_router.pop_front();
      }

      const auto got = nic.select_and_send(now);
      const auto want = reference.select_and_send(now);
      ASSERT_EQ(got.has_value(), want.has_value()) << tag << " cycle " << now;
      if (got.has_value()) {
        ASSERT_EQ(got->vc, want->vc) << tag << " cycle " << now;
        ASSERT_EQ(got->flit.seq, want->flit.seq) << tag << " cycle " << now;
        ++sends;
        // The router holds the flit a random while, in departure order.
        const Cycle leaves = std::max(
            in_router.empty() ? now : in_router.back().first,
            now + rng() % 4);
        in_router.emplace_back(leaves, got->vc);
      }
      nic.check_invariants();
    }
    EXPECT_GT(sends, 0u) << tag;
  }
}

TEST(NicDifferential, ReadySetIsRebuiltOnCheckpointLoad) {
  Nic nic(70, 1, 2);
  for (std::uint32_t vc = 0; vc < 70; vc += 3) nic.deposit(vc, make_flit(vc, 0));
  for (Cycle now = 0; now < 10; ++now) {
    if (auto sent = nic.select_and_send(now)) nic.return_credit(sent->vc, now);
  }
  snapshot::Snapshot saved;
  snapshot::SaveWalker save(saved);
  save.section("nic");
  nic.snap(save);

  Nic restored(70, 1, 2);
  snapshot::LoadWalker load(saved);
  load.section("nic");
  restored.snap(load);
  load.finish();
  restored.check_invariants();  // ready set agrees with queues and credits
  for (Cycle now = 10; now < 60; ++now) {
    const auto a = nic.select_and_send(now);
    const auto b = restored.select_and_send(now);
    ASSERT_EQ(a.has_value(), b.has_value()) << now;
    if (a.has_value()) {
      EXPECT_EQ(a->vc, b->vc) << now;
    }
  }
}

}  // namespace
}  // namespace mmr
