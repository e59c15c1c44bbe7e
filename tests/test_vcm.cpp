#include "mmr/router/vcm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>
#include <vector>

#include "mmr/router/fifo_pool.hpp"
#include "mmr/snapshot/format.hpp"
#include "mmr/snapshot/walker.hpp"

namespace mmr {
namespace {

Flit make_flit(ConnectionId connection, std::uint64_t seq) {
  Flit flit;
  flit.connection = connection;
  flit.seq = seq;
  return flit;
}

TEST(Vcm, StartsEmpty) {
  VirtualChannelMemory vcm(8, 2);
  EXPECT_EQ(vcm.vcs(), 8u);
  EXPECT_EQ(vcm.capacity_per_vc(), 2u);
  EXPECT_EQ(vcm.total_flits(), 0u);
  EXPECT_TRUE(vcm.occupied_vcs().empty());
  for (std::uint32_t vc = 0; vc < 8; ++vc) {
    EXPECT_TRUE(vcm.empty(vc));
    EXPECT_TRUE(vcm.can_accept(vc));
    EXPECT_EQ(vcm.occupancy(vc), 0u);
  }
  vcm.check_invariants();
}

TEST(Vcm, FifoOrderPerVc) {
  VirtualChannelMemory vcm(4, 4);
  vcm.push(2, make_flit(9, 0), 10);
  vcm.push(2, make_flit(9, 1), 11);
  vcm.push(2, make_flit(9, 2), 12);
  EXPECT_EQ(vcm.head(2).seq, 0u);
  EXPECT_EQ(vcm.pop(2).seq, 0u);
  EXPECT_EQ(vcm.pop(2).seq, 1u);
  EXPECT_EQ(vcm.pop(2).seq, 2u);
  EXPECT_TRUE(vcm.empty(2));
  vcm.check_invariants();
}

TEST(Vcm, HeadArrivalTracksQueueEpoch) {
  VirtualChannelMemory vcm(4, 4);
  vcm.push(1, make_flit(0, 0), 100);
  vcm.push(1, make_flit(0, 1), 120);
  EXPECT_EQ(vcm.head_arrival(1), 100u);
  (void)vcm.pop(1);
  EXPECT_EQ(vcm.head_arrival(1), 120u);
}

TEST(Vcm, CapacityEnforced) {
  VirtualChannelMemory vcm(4, 2);
  vcm.push(0, make_flit(0, 0), 0);
  EXPECT_TRUE(vcm.can_accept(0));
  vcm.push(0, make_flit(0, 1), 1);
  EXPECT_FALSE(vcm.can_accept(0));
  EXPECT_TRUE(vcm.can_accept(1));  // other VCs unaffected
}

TEST(VcmDeath, OverflowAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  VirtualChannelMemory vcm(2, 1);
  vcm.push(0, make_flit(0, 0), 0);
  EXPECT_DEATH(vcm.push(0, make_flit(0, 1), 1), "credit");
}

TEST(VcmDeath, PopEmptyAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  VirtualChannelMemory vcm(2, 1);
  EXPECT_DEATH((void)vcm.pop(0), "empty");
}

TEST(Vcm, OccupiedListTracksMembership) {
  VirtualChannelMemory vcm(8, 2);
  vcm.push(3, make_flit(0, 0), 0);
  vcm.push(5, make_flit(1, 0), 0);
  vcm.push(3, make_flit(0, 1), 1);
  auto occupied = vcm.occupied_vcs();
  std::sort(occupied.begin(), occupied.end());
  EXPECT_EQ(occupied, (std::vector<std::uint32_t>{3, 5}));
  (void)vcm.pop(3);
  (void)vcm.pop(3);  // VC 3 now empty
  occupied = vcm.occupied_vcs();
  EXPECT_EQ(occupied, (std::vector<std::uint32_t>{5}));
  vcm.check_invariants();
}

TEST(Vcm, OccupiedListSurvivesInterleavedChurn) {
  VirtualChannelMemory vcm(16, 2);
  // Exercise the swap-remove bookkeeping hard.
  for (std::uint32_t round = 0; round < 50; ++round) {
    for (std::uint32_t vc = 0; vc < 16; vc += 2) {
      if (vcm.can_accept(vc)) vcm.push(vc, make_flit(vc, round), round);
    }
    for (std::uint32_t vc = 0; vc < 16; vc += 3) {
      if (!vcm.empty(vc)) (void)vcm.pop(vc);
    }
    vcm.check_invariants();
  }
}

TEST(Vcm, TotalFlitsAggregates) {
  VirtualChannelMemory vcm(4, 4);
  vcm.push(0, make_flit(0, 0), 0);
  vcm.push(1, make_flit(1, 0), 0);
  vcm.push(1, make_flit(1, 1), 0);
  EXPECT_EQ(vcm.total_flits(), 3u);
  (void)vcm.pop(1);
  EXPECT_EQ(vcm.total_flits(), 2u);
}

TEST(Vcm, BankOccupancySumsToTotal) {
  VirtualChannelMemory vcm(8, 4, /*banks=*/4);
  for (std::uint32_t vc = 0; vc < 8; ++vc) {
    vcm.push(vc, make_flit(vc, 0), 0);
    vcm.push(vc, make_flit(vc, 1), 0);
  }
  std::uint64_t banked = 0;
  for (std::uint32_t used : vcm.bank_occupancy()) banked += used;
  EXPECT_EQ(banked, vcm.total_flits());
  vcm.check_invariants();
}

TEST(Vcm, InterleaveSpreadsAcrossBanks) {
  VirtualChannelMemory vcm(16, 4, /*banks=*/4);
  // Steady pushes rotate (vc + push_count) across banks: no bank starves.
  for (std::uint32_t vc = 0; vc < 16; ++vc) {
    for (std::uint32_t i = 0; i < 4; ++i) vcm.push(vc, make_flit(vc, i), i);
  }
  for (std::uint32_t used : vcm.bank_occupancy()) {
    EXPECT_EQ(used, 16u);  // 64 flits over 4 banks, perfectly even
  }
}

TEST(Vcm, PopReturnsTheStoredFlit) {
  VirtualChannelMemory vcm(2, 2);
  Flit flit = make_flit(42, 7);
  flit.frame = 3;
  flit.last_of_frame = true;
  flit.generated_at = 1234;
  vcm.push(1, flit, 2000);
  const Flit popped = vcm.pop(1);
  EXPECT_EQ(popped.connection, 42u);
  EXPECT_EQ(popped.seq, 7u);
  EXPECT_EQ(popped.frame, 3u);
  EXPECT_TRUE(popped.last_of_frame);
  EXPECT_EQ(popped.generated_at, 1234u);
}

// --- pooled FIFO storage ----------------------------------------------------

TEST(FifoPool, InterleavedPushPopReusesSlotsAndMatchesDeques) {
  // Random interleaved traffic over many FIFOs, checked element by element
  // against one std::deque per FIFO.  Popped slots are reused, so the pool
  // never grows past the peak total occupancy.
  constexpr std::uint32_t kFifos = 37;
  FifoPool<std::uint64_t> pool(kFifos);
  std::vector<std::deque<std::uint64_t>> model(kFifos);
  std::mt19937_64 rng(12345);
  std::size_t occupancy = 0;
  std::size_t peak = 0;
  std::uint64_t next = 0;
  for (int step = 0; step < 20'000; ++step) {
    const auto q = static_cast<std::uint32_t>(rng() % kFifos);
    // Bias towards pushes early and pops late so occupancy rises and falls.
    const bool push = (rng() % 100) < (step < 10'000 ? 60u : 40u);
    if (push) {
      pool.push_back(q, next);
      model[q].push_back(next);
      ++next;
      peak = std::max(peak, ++occupancy);
    } else if (!model[q].empty()) {
      ASSERT_EQ(pool.front(q), model[q].front());
      ASSERT_EQ(pool.pop_front(q), model[q].front());
      model[q].pop_front();
      --occupancy;
    }
    ASSERT_EQ(pool.size(q), model[q].size());
    ASSERT_EQ(pool.empty(q), model[q].empty());
  }
  EXPECT_EQ(pool.pool_slots(), peak);
  for (std::uint32_t q = 0; q < kFifos; ++q) {
    std::vector<std::uint64_t> seen;
    pool.for_each(q, [&seen](std::uint64_t v) { seen.push_back(v); });
    EXPECT_EQ(seen, std::vector<std::uint64_t>(model[q].begin(),
                                               model[q].end()));
  }
}

TEST(FifoPool, WalkBytesMatchVectorOfDeques) {
  // The checkpoint walk must emit exactly what walk_vector(walk_deque)
  // emitted over the std::vector<std::deque<T>> it replaced, so StateHash
  // values and saved checkpoints carry over.
  FifoPool<std::uint32_t> pool(5);
  std::vector<std::deque<std::uint32_t>> deques(5);
  for (std::uint32_t i = 0; i < 40; ++i) {
    const std::uint32_t q = (i * 7) % 5;
    pool.push_back(q, i);
    deques[q].push_back(i);
    if (i % 3 == 0) {
      (void)pool.pop_front(q);
      deques[q].pop_front();
    }
  }
  const auto element = [](snapshot::Walker& w, std::uint32_t& v) {
    snapshot::value(w, v);
  };
  snapshot::HashWalker pool_hash;
  pool.snap(pool_hash, element);
  snapshot::HashWalker deque_hash;
  snapshot::walk_vector(
      deque_hash, deques,
      [&element](snapshot::Walker& w, std::deque<std::uint32_t>& d) {
        snapshot::walk_deque(w, d, element);
      });
  EXPECT_EQ(pool_hash.digest(), deque_hash.digest());
}

std::uint64_t vcm_hash(VirtualChannelMemory& vcm) {
  snapshot::HashWalker w;
  w.section("vcm");
  vcm.snap(w);
  return w.digest();
}

TEST(Vcm, CheckpointAfterSlotReuseRestoresToTheSameHash) {
  // Churn until popped slots have been reused out of order, save, restore
  // into a fresh memory (whose pool is laid out compactly), and the two
  // must hash equal now and after identical further traffic.
  VirtualChannelMemory vcm(16, 3);
  std::mt19937_64 rng(7);
  Cycle now = 0;
  const auto churn = [&now](VirtualChannelMemory& m,
                                  std::mt19937_64& r, int steps) {
    for (int i = 0; i < steps; ++i, ++now) {
      const auto vc = static_cast<std::uint32_t>(r() % 16);
      if (r() % 2 == 0) {
        if (m.can_accept(vc)) m.push(vc, make_flit(vc, now), now);
      } else if (!m.empty(vc)) {
        (void)m.pop(vc);
      }
    }
  };
  churn(vcm, rng, 2'000);
  vcm.check_invariants();

  snapshot::Snapshot saved;
  snapshot::SaveWalker save(saved);
  save.section("vcm");
  vcm.snap(save);

  VirtualChannelMemory restored(16, 3);
  snapshot::LoadWalker load(saved);
  load.section("vcm");
  restored.snap(load);
  load.finish();
  restored.check_invariants();
  EXPECT_EQ(vcm_hash(restored), vcm_hash(vcm));

  std::mt19937_64 rng_a(99);
  std::mt19937_64 rng_b(99);
  const Cycle resume = now;
  churn(vcm, rng_a, 1'000);
  now = resume;
  churn(restored, rng_b, 1'000);
  EXPECT_EQ(vcm_hash(restored), vcm_hash(vcm));
  for (std::uint32_t vc = 0; vc < 16; ++vc) {
    ASSERT_EQ(restored.occupancy(vc), vcm.occupancy(vc));
    while (!vcm.empty(vc)) {
      EXPECT_EQ(restored.head_arrival(vc), vcm.head_arrival(vc));
      EXPECT_EQ(restored.pop(vc).seq, vcm.pop(vc).seq);
    }
  }
}

}  // namespace
}  // namespace mmr
