#include "mmr/qos/priority.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace mmr {
namespace {

TEST(SiabpShift, BitwiseBoundaries) {
  // Shift count = bits of the age counter that have been set: bit_width.
  EXPECT_EQ(siabp_shift(0), 0u);
  EXPECT_EQ(siabp_shift(1), 1u);
  EXPECT_EQ(siabp_shift(2), 2u);
  EXPECT_EQ(siabp_shift(3), 2u);
  EXPECT_EQ(siabp_shift(4), 3u);
  EXPECT_EQ(siabp_shift(7), 3u);
  EXPECT_EQ(siabp_shift(8), 4u);
  EXPECT_EQ(siabp_shift(255), 8u);
  EXPECT_EQ(siabp_shift(256), 9u);
}

TEST(SiabpPriority, InitialValueIsSlotsPerRound) {
  EXPECT_EQ(siabp_priority(5, 0), 5u);
  EXPECT_EQ(siabp_priority(1, 0), 1u);
}

TEST(SiabpPriority, DoublesAtEveryNewBit) {
  EXPECT_EQ(siabp_priority(3, 1), 6u);
  EXPECT_EQ(siabp_priority(3, 2), 12u);
  EXPECT_EQ(siabp_priority(3, 3), 12u);
  EXPECT_EQ(siabp_priority(3, 4), 24u);
}

TEST(SiabpPriority, MonotoneInAgeAndSlots) {
  Priority prev = 0;
  for (std::uint64_t age = 0; age < 100000; age = age * 2 + 1) {
    const Priority p = siabp_priority(7, age);
    EXPECT_GE(p, prev);
    prev = p;
  }
  for (std::uint32_t slots = 1; slots < 100; ++slots) {
    EXPECT_GE(siabp_priority(slots + 1, 42), siabp_priority(slots, 42));
  }
}

TEST(SiabpPriority, HighBandwidthGrowsFasterInAbsoluteTerms) {
  // The paper's rationale: priority grows faster for high-bandwidth
  // connections, giving them more chances to be forwarded sooner.
  const std::uint64_t age = 1 << 10;
  const Priority low = siabp_priority(1, age);
  const Priority high = siabp_priority(24, age);
  EXPECT_EQ(high, 24 * low);
}

TEST(SiabpPriority, SaturatesInsteadOfOverflowing) {
  const Priority cap = siabp_priority(1000, ~std::uint64_t{0});
  EXPECT_EQ(cap, Priority{1} << 48);
  EXPECT_EQ(siabp_priority(1, ~std::uint64_t{0}), Priority{1} << 48);
  // Near the cap but not over.
  EXPECT_LT(siabp_priority(1, (1ull << 40) - 1), Priority{1} << 48);
}

TEST(IabpPriority, RatioOfDelayToIat) {
  // age 100, IAT 50 -> ratio 2.0 -> scaled by 2^16.
  EXPECT_EQ(iabp_priority(50.0, 100), 2u * 65536u);
}

TEST(IabpPriority, AgeZeroFloorsAtOneLikeSiabp) {
  // Regression: iabp_priority used to return ceil(0 * 65536) = 0 for age-0
  // flits, tying freshly injected QoS traffic with priority-0 best-effort
  // in mixed comparisons.  Both biasing schemes now start above zero: SIABP
  // at its reservation (slots_per_round >= 1), IABP at the floor of 1.
  EXPECT_EQ(iabp_priority(100.0, 0), 1u);
  EXPECT_EQ(iabp_priority(1e6, 0), 1u);
  EXPECT_EQ(siabp_priority(5, 0), 5u);
  EXPECT_EQ(siabp_priority(1, 0), 1u);
  // The floor never reorders positive ages (ceil already yields >= 1).
  EXPECT_EQ(iabp_priority(50.0, 100), 2u * 65536u);
  EXPECT_GE(iabp_priority(1000.0, 1), 1u);
}

TEST(IabpPriority, SubUnitRatiosStayOrdered) {
  const Priority p1 = iabp_priority(1000.0, 1);
  const Priority p2 = iabp_priority(1000.0, 2);
  EXPECT_GT(p1, 0u);  // ceil keeps tiny ratios nonzero
  EXPECT_GE(p2, p1);
}

TEST(IabpPriority, Saturates) {
  EXPECT_EQ(iabp_priority(1e-9, ~std::uint64_t{0}), Priority{1} << 48);
}

TEST(IabpPriority, EquivalentToProductFormulation) {
  // queuing_delay / IAT == queuing_delay * bandwidth_requirement (the SIABP
  // derivation); check proportionality across connections.
  const std::uint64_t age = 4096;
  const double iat_fast = 10.0;
  const double iat_slow = 1000.0;
  EXPECT_NEAR(static_cast<double>(iabp_priority(iat_fast, age)) /
                  static_cast<double>(iabp_priority(iat_slow, age)),
              iat_slow / iat_fast, 0.01);
}

TEST(PriorityFunction, DispatchesPerScheme) {
  QosParams qos;
  qos.slots_per_round = 6;
  qos.iat_router_cycles = 128.0;
  const std::uint64_t age = 256;

  EXPECT_EQ(PriorityFunction(PriorityScheme::kSiabp)(qos, age),
            siabp_priority(6, age));
  EXPECT_EQ(PriorityFunction(PriorityScheme::kIabp)(qos, age),
            iabp_priority(128.0, age));
  EXPECT_EQ(PriorityFunction(PriorityScheme::kFifoAge)(qos, age), age);
  EXPECT_EQ(PriorityFunction(PriorityScheme::kStatic)(qos, age), 6u);
}

TEST(PriorityFunction, FifoAgeIgnoresBandwidth) {
  QosParams narrow{1, 1e6};
  QosParams wide{100, 10.0};
  const PriorityFunction fifo(PriorityScheme::kFifoAge);
  EXPECT_EQ(fifo(narrow, 77), fifo(wide, 77));
}

TEST(PriorityFunction, StaticIgnoresAge) {
  QosParams qos{9, 100.0};
  const PriorityFunction fixed(PriorityScheme::kStatic);
  EXPECT_EQ(fixed(qos, 0), fixed(qos, 1 << 20));
}

TEST(PriorityFunction, SiabpApproximatesIabpOrdering) {
  // SIABP exists to replace IABP's divider while preserving the ordering
  // between a high-need aged flit and a low-need fresh one.
  QosParams high{24, 43.0};   // 55 Mbps-ish: many slots, short IAT
  QosParams low{1, 37500.0};  // 64 Kbps-ish
  const PriorityFunction siabp(PriorityScheme::kSiabp);
  const PriorityFunction iabp(PriorityScheme::kIabp);
  // Same age: both schemes must rank the high-bandwidth connection first.
  EXPECT_GT(siabp(high, 512), siabp(low, 512));
  EXPECT_GT(iabp(high, 512), iabp(low, 512));
  // Very old low-bandwidth flit eventually beats a fresh high-bandwidth one
  // in both schemes (starvation freedom).
  EXPECT_GT(siabp(low, 1ull << 30), siabp(high, 1));
  EXPECT_GT(iabp(low, 1ull << 30), iabp(high, 1));
}

TEST(PriorityFunction, GroupKeysMatchExactlyWhenPrioritiesDo) {
  // The link scheduler merges VCs with equal group keys into one ready-index
  // group (DESIGN.md §19): exact only if equal keys rank alike at every
  // age, and useful only if differing keys are constants the scheme reads.
  const std::vector<QosParams> pool = {{1, 37500.0}, {1, 700.0}, {3, 700.0},
                                       {3, 233.5},   {24, 43.0}, {24, 37500.0}};
  const std::vector<std::uint64_t> ages = {
      0, 1, 2, 3, 255, 256, 4096, 1ULL << 20, 1ULL << 40, 1ULL << 62};
  for (PriorityScheme scheme :
       {PriorityScheme::kSiabp, PriorityScheme::kIabp,
        PriorityScheme::kFifoAge, PriorityScheme::kStatic}) {
    const PriorityFunction priority(scheme);
    for (const QosParams& a : pool) {
      for (const QosParams& b : pool) {
        bool alike = true;
        for (const std::uint64_t age : ages)
          alike = alike && priority(a, age) == priority(b, age);
        EXPECT_EQ(priority.group_key(a) == priority.group_key(b), alike)
            << "scheme " << to_string(scheme) << " a={" << a.slots_per_round
            << ", " << a.iat_router_cycles << "} b={" << b.slots_per_round
            << ", " << b.iat_router_cycles << "}";
      }
    }
  }
}

TEST(SiabpPriorityDeath, RejectsZeroSlots) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH((void)siabp_priority(0, 1), "slots");
}

}  // namespace
}  // namespace mmr
