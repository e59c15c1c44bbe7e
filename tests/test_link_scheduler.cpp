#include "mmr/router/link_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "mmr/snapshot/format.hpp"
#include "mmr/snapshot/walker.hpp"

namespace mmr {
namespace {

Flit make_flit(ConnectionId connection) {
  Flit flit;
  flit.connection = connection;
  return flit;
}

/// Builds a scheduler for one port with the given per-VC outputs and slot
/// reservations (IATs derived arbitrarily but consistently).
LinkScheduler make_scheduler(std::uint32_t levels,
                             std::vector<std::uint32_t> outputs,
                             std::vector<std::uint32_t> slots,
                             PriorityScheme scheme = PriorityScheme::kSiabp) {
  std::vector<QosParams> qos(outputs.size());
  for (std::size_t vc = 0; vc < outputs.size(); ++vc) {
    qos[vc].slots_per_round = slots[vc];
    qos[vc].iat_router_cycles = 1024.0 / slots[vc];
  }
  return LinkScheduler(/*input_port=*/0, levels, PriorityFunction(scheme),
                       /*phits_per_flit=*/256, std::move(outputs),
                       std::move(qos));
}

TEST(LinkScheduler, EmptyVcmYieldsNoCandidates) {
  LinkScheduler scheduler = make_scheduler(4, {0, 1, 2, 3}, {1, 1, 1, 1});
  VirtualChannelMemory vcm(4, 2);
  scheduler.bind(vcm);
  CandidateSet set(4, 4);
  scheduler.select(vcm, 100, set);
  EXPECT_TRUE(set.empty());
}

TEST(LinkScheduler, SelectsOccupiedVcsUpToLevels) {
  LinkScheduler scheduler = make_scheduler(2, {0, 1, 2, 3}, {1, 2, 3, 4});
  VirtualChannelMemory vcm(4, 2);
  scheduler.bind(vcm);
  vcm.push(0, make_flit(0), 0);
  vcm.push(1, make_flit(1), 0);
  vcm.push(2, make_flit(2), 0);
  CandidateSet set(4, 2);
  scheduler.select(vcm, 10, set);
  EXPECT_EQ(set.size(), 2u);  // capped at 2 levels
  set.check_invariants();
}

TEST(LinkScheduler, RanksByBiasedPriority) {
  // Same age for all, so SIABP ranks by slots_per_round.
  LinkScheduler scheduler = make_scheduler(4, {0, 1, 2, 3}, {1, 9, 3, 5});
  VirtualChannelMemory vcm(4, 2);
  scheduler.bind(vcm);
  for (std::uint32_t vc = 0; vc < 4; ++vc) vcm.push(vc, make_flit(vc), 0);
  CandidateSet set(4, 4);
  scheduler.select(vcm, 16, set);
  ASSERT_EQ(set.size(), 4u);
  // Level 0 = VC 1 (slots 9), then VC 3 (5), VC 2 (3), VC 0 (1).
  EXPECT_EQ(set.at(static_cast<std::size_t>(set.index_of(0, 0))).vc, 1u);
  EXPECT_EQ(set.at(static_cast<std::size_t>(set.index_of(0, 1))).vc, 3u);
  EXPECT_EQ(set.at(static_cast<std::size_t>(set.index_of(0, 2))).vc, 2u);
  EXPECT_EQ(set.at(static_cast<std::size_t>(set.index_of(0, 3))).vc, 0u);
}

TEST(LinkScheduler, OlderAgeWinsWhenBiasDiffers) {
  LinkScheduler scheduler = make_scheduler(2, {0, 1}, {2, 2});
  VirtualChannelMemory vcm(2, 2);
  scheduler.bind(vcm);
  vcm.push(0, make_flit(0), 5);  // younger
  vcm.push(1, make_flit(1), 0);  // older
  // Ages 5 and 10 flit cycles = 1280 / 2560 router cycles: bit_width 11 vs
  // 12, so the older flit carries the higher biased priority.
  CandidateSet set(2, 2);
  scheduler.select(vcm, 10, set);
  EXPECT_EQ(set.at(static_cast<std::size_t>(set.index_of(0, 0))).vc, 1u);
}

TEST(LinkScheduler, ArrivalBreaksExactPriorityTies) {
  LinkScheduler scheduler = make_scheduler(2, {0, 1}, {2, 2});
  VirtualChannelMemory vcm(2, 2);
  scheduler.bind(vcm);
  // Ages 2 and 3 flit cycles at now=5: 512 and 768 router cycles, both
  // bit_width 10 -> identical SIABP priority; the older arrival must rank
  // first (deterministic tie-break).
  vcm.push(0, make_flit(0), 3);
  vcm.push(1, make_flit(1), 2);
  CandidateSet set(2, 2);
  scheduler.select(vcm, 5, set);
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set.at(static_cast<std::size_t>(set.index_of(0, 0))).vc, 1u);
  EXPECT_EQ(set.at(static_cast<std::size_t>(set.index_of(0, 0))).priority,
            set.at(static_cast<std::size_t>(set.index_of(0, 1))).priority);
}

TEST(LinkScheduler, CandidateCarriesRoutingAndPriority) {
  LinkScheduler scheduler = make_scheduler(1, {3, 2}, {4, 4});
  VirtualChannelMemory vcm(2, 2);
  scheduler.bind(vcm);
  vcm.push(0, make_flit(0), 0);
  CandidateSet set(4, 1);
  scheduler.select(vcm, 4, set);
  ASSERT_EQ(set.size(), 1u);
  const Candidate& c = set.at(0);
  EXPECT_EQ(c.input, 0u);
  EXPECT_EQ(c.output, 3u);  // from output_of_vc
  EXPECT_EQ(c.vc, 0u);
  EXPECT_EQ(c.priority, scheduler.head_priority(vcm, 0, 4));
}

TEST(LinkScheduler, HeadPriorityAgesInRouterCycles) {
  LinkScheduler scheduler = make_scheduler(1, {0}, {3});
  VirtualChannelMemory vcm(1, 2);
  scheduler.bind(vcm);
  vcm.push(0, make_flit(0), 100);
  // Age 0 flit cycles: priority = initial slots.
  EXPECT_EQ(scheduler.head_priority(vcm, 0, 100), 3u);
  // One flit cycle later: 256 router cycles -> shift = bit_width(256) = 9.
  EXPECT_EQ(scheduler.head_priority(vcm, 0, 101), 3u << 9);
}

TEST(LinkScheduler, IabpSchemeUsesIat) {
  LinkScheduler scheduler =
      make_scheduler(1, {0, 1}, {1, 8}, PriorityScheme::kIabp);
  VirtualChannelMemory vcm(2, 2);
  scheduler.bind(vcm);
  vcm.push(0, make_flit(0), 0);
  vcm.push(1, make_flit(1), 0);
  CandidateSet set(2, 1);
  scheduler.select(vcm, 8, set);
  // Same age; VC 1 has the shorter IAT (more slots) -> higher IABP ratio.
  EXPECT_EQ(set.at(static_cast<std::size_t>(set.index_of(0, 0))).vc, 1u);
}

TEST(LinkScheduler, SelectionIsDeterministic) {
  LinkScheduler scheduler = make_scheduler(4, {0, 1, 2, 3}, {1, 1, 1, 1});
  VirtualChannelMemory vcm(4, 2);
  scheduler.bind(vcm);
  for (std::uint32_t vc = 0; vc < 4; ++vc) vcm.push(vc, make_flit(vc), vc);
  CandidateSet a(4, 4);
  CandidateSet b(4, 4);
  scheduler.select(vcm, 10, a);
  scheduler.select(vcm, 10, b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.at(i).vc, b.at(i).vc);
    EXPECT_EQ(a.at(i).priority, b.at(i).priority);
  }
}

TEST(LinkScheduler, ManyVcsSelectTopLOnly) {
  std::vector<std::uint32_t> outputs(64, 0);
  std::vector<std::uint32_t> slots(64);
  for (std::uint32_t vc = 0; vc < 64; ++vc) slots[vc] = vc + 1;
  LinkScheduler scheduler = make_scheduler(4, outputs, slots);
  VirtualChannelMemory vcm(64, 2);
  scheduler.bind(vcm);
  for (std::uint32_t vc = 0; vc < 64; ++vc) vcm.push(vc, make_flit(vc), 0);
  CandidateSet set(4, 4);
  scheduler.select(vcm, 3, set);
  ASSERT_EQ(set.size(), 4u);
  // Top four slot counts: 64, 63, 62, 61.
  for (std::uint32_t level = 0; level < 4; ++level) {
    EXPECT_EQ(set.at(static_cast<std::size_t>(set.index_of(0, level))).vc,
              63u - level);
  }
}

// --- Differential tests: the ready-index selection against a full scan ---

/// Reference selection: rank every eligible occupied VC by (biased
/// priority desc, head arrival asc, vc asc) and keep the first `levels`.
std::vector<Candidate> reference_select(
    const LinkScheduler& scheduler, const VirtualChannelMemory& vcm,
    const std::vector<std::uint32_t>& output_of_vc, Cycle now,
    const std::vector<bool>& eligible) {
  struct Ranked {
    Priority priority;
    Cycle arrived;
    std::uint32_t vc;
  };
  std::vector<Ranked> ranked;
  for (std::uint32_t vc = 0; vc < vcm.vcs(); ++vc) {
    if (vcm.empty(vc) || !eligible[vc]) continue;
    ranked.push_back(
        {scheduler.head_priority(vcm, vc, now), vcm.head_arrival(vc), vc});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const Ranked& a, const Ranked& b) {
              if (a.priority != b.priority) return a.priority > b.priority;
              if (a.arrived != b.arrived) return a.arrived < b.arrived;
              return a.vc < b.vc;
            });
  std::vector<Candidate> out;
  for (std::uint32_t level = 0;
       level < ranked.size() && level < scheduler.levels(); ++level) {
    Candidate c;
    c.input = 0;
    c.output = static_cast<std::uint16_t>(output_of_vc[ranked[level].vc]);
    c.level = static_cast<std::uint8_t>(level);
    c.vc = ranked[level].vc;
    c.priority = ranked[level].priority;
    out.push_back(c);
  }
  return out;
}

void expect_same_selection(const LinkScheduler& scheduler,
                           const VirtualChannelMemory& vcm,
                           const std::vector<std::uint32_t>& output_of_vc,
                           Cycle now, const std::vector<bool>& eligible) {
  const LinkScheduler::Eligibility filter = [&eligible](std::uint32_t vc) {
    return static_cast<bool>(eligible[vc]);
  };
  CandidateSet set(8, scheduler.levels());
  scheduler.select(vcm, now, set, &filter);
  set.check_invariants();
  const std::vector<Candidate> expected =
      reference_select(scheduler, vcm, output_of_vc, now, eligible);
  ASSERT_EQ(set.size(), expected.size()) << "now=" << now;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const Candidate& got = set.at(i);
    EXPECT_EQ(got.vc, expected[i].vc) << "level " << i << " now=" << now;
    EXPECT_EQ(got.priority, expected[i].priority) << "level " << i;
    EXPECT_EQ(got.output, expected[i].output) << "level " << i;
    EXPECT_EQ(got.level, expected[i].level);
  }
}

/// A small pool of QoS constants so many VCs share a group, plus one value
/// equal to the demotion constants.
QosParams pool_qos(std::uint32_t index) {
  QosParams qos;
  qos.slots_per_round = 1 + index % 5;
  qos.iat_router_cycles = 700.0 / (1 + index % 7);
  return qos;
}

/// A VBR-like pool: as when every MPEG trace has its own mean rate, slots
/// and IAT vary independently, so each slot value comes with many IATs and
/// each IAT with many slot values (9 x 23 pairs).
QosParams vbr_pool_qos(std::uint32_t index) {
  QosParams qos;
  qos.slots_per_round = 1 + index % 9;
  qos.iat_router_cycles = 640.0 + 17.0 * (index % 23);
  return qos;
}

/// QoS constants drawn as `make(rng() % size)`.
struct QosPool {
  QosParams (*make)(std::uint32_t index);
  std::uint32_t size;
};
constexpr QosPool kSmallPool{pool_qos, 6};
constexpr QosPool kVbrPool{vbr_pool_qos, 9 * 23};

struct DifferentialPort {
  std::uint32_t vcs;
  std::vector<std::uint32_t> output_of_vc;
  std::vector<QosParams> qos_of_vc;
};

DifferentialPort make_port(std::uint32_t vcs, std::mt19937_64& rng,
                           const QosPool& pool = kSmallPool) {
  DifferentialPort port{vcs, std::vector<std::uint32_t>(vcs),
                        std::vector<QosParams>(vcs)};
  for (std::uint32_t vc = 0; vc < vcs; ++vc) {
    port.output_of_vc[vc] = static_cast<std::uint32_t>(rng() % 8);
    port.qos_of_vc[vc] =
        pool.make(static_cast<std::uint32_t>(rng() % pool.size));
  }
  return port;
}

/// Randomized push / pop / drain / rebind churn with demoted heads and a
/// changing eligibility mask; after every step the index-driven selection
/// must equal the reference scan.
void run_differential(PriorityScheme scheme, std::uint32_t levels,
                      std::uint64_t seed, const QosPool& pool) {
  std::mt19937_64 rng(seed);
  const auto vcs = static_cast<std::uint32_t>(8 + rng() % 90);
  DifferentialPort port = make_port(vcs, rng, pool);
  LinkScheduler scheduler(/*input_port=*/0, levels, PriorityFunction(scheme),
                          /*phits_per_flit=*/rng() % 2 == 0 ? 1U : 16U,
                          port.output_of_vc, port.qos_of_vc);
  // Half the runs demote into a group VCs also use, half into its own.
  scheduler.set_demoted_qos(rng() % 2 == 0 ? pool.make(0)
                                           : QosParams{1, 12345.0});
  VirtualChannelMemory vcm(vcs, 1 + static_cast<std::uint32_t>(rng() % 4));
  scheduler.bind(vcm);

  std::vector<bool> eligible(vcs, true);
  Cycle now = 0;
  for (int step = 0; step < 400; ++step) {
    now += rng() % 3;
    const auto vc = static_cast<std::uint32_t>(rng() % vcs);
    switch (rng() % 10) {
      case 0:
      case 1:
      case 2:
      case 3: {
        if (!vcm.can_accept(vc)) break;
        Flit flit = make_flit(vc);
        flit.demoted = rng() % 4 == 0;
        vcm.push(vc, flit, now);
        break;
      }
      case 4:
      case 5:
      case 6:
        if (!vcm.empty(vc)) (void)vcm.pop(vc);
        break;
      case 7:  // drain (fault teardown)
        while (!vcm.empty(vc)) (void)vcm.pop(vc);
        break;
      case 8: {  // rebind, often while occupied; sometimes to a new value
        const std::uint32_t output = static_cast<std::uint32_t>(rng() % 8);
        QosParams qos =
            pool.make(static_cast<std::uint32_t>(rng() % pool.size));
        if (rng() % 3 == 0) qos.iat_router_cycles += static_cast<double>(step);
        scheduler.set_vc(vc, output, qos, vcm);
        port.output_of_vc[vc] = output;
        break;
      }
      default:
        for (std::uint32_t v = 0; v < vcs; ++v) eligible[v] = rng() % 4 != 0;
        break;
    }
    vcm.check_invariants();
    scheduler.check_binding(vcm);
    expect_same_selection(scheduler, vcm, port.output_of_vc, now, eligible);
    if (::testing::Test::HasFailure()) return;
  }
}

/// run_differential for every scheme and every level count, with seeds
/// counting up from `seed`.
void run_every_scheme_and_level(std::uint64_t seed, const QosPool& pool) {
  const PriorityScheme schemes[] = {PriorityScheme::kSiabp,
                                    PriorityScheme::kIabp,
                                    PriorityScheme::kFifoAge,
                                    PriorityScheme::kStatic};
  for (PriorityScheme scheme : schemes) {
    for (std::uint32_t levels = 1; levels <= kMaxCandidateLevels; ++levels) {
      SCOPED_TRACE(::testing::Message()
                   << "scheme " << static_cast<int>(scheme) << " levels "
                   << levels);
      run_differential(scheme, levels, seed++, pool);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(LinkSchedulerDifferential, MatchesFullScanForEverySchemeAndLevel) {
  run_every_scheme_and_level(1, kSmallPool);
}

TEST(LinkSchedulerDifferential, MatchesFullScanOnVbrLikeQos) {
  // Groups merge VCs whose unread constants differ (SIABP: many IATs per
  // slot value; IABP: many slot values per IAT): the merged groups must
  // still select exactly what the full scan does.
  run_every_scheme_and_level(1001, kVbrPool);
}

TEST(LinkSchedulerDifferential, SelectionSurvivesCheckpointLoad) {
  // Churn (with rebinds), save VC memory and scheduler, load both into a
  // freshly constructed pair as a router resume does, rebind, and the two
  // must select identically now and after identical further traffic.
  std::mt19937_64 rng(11);
  DifferentialPort port = make_port(48, rng);
  const auto make = [&port] {
    return LinkScheduler(0, 4, PriorityFunction(PriorityScheme::kSiabp), 16,
                         port.output_of_vc, port.qos_of_vc);
  };
  LinkScheduler scheduler = make();
  VirtualChannelMemory vcm(48, 3);
  scheduler.bind(vcm);
  Cycle now = 0;
  std::vector<std::uint32_t> outputs = port.output_of_vc;
  const auto churn = [&](LinkScheduler& s, VirtualChannelMemory& m,
                         std::mt19937_64& r, int steps) {
    for (int i = 0; i < steps; ++i, ++now) {
      const auto vc = static_cast<std::uint32_t>(r() % 48);
      const std::uint64_t op = r() % 8;
      if (op < 4) {
        Flit flit = make_flit(vc);
        flit.demoted = r() % 5 == 0;
        if (m.can_accept(vc)) m.push(vc, flit, now);
      } else if (op < 7) {
        if (!m.empty(vc)) (void)m.pop(vc);
      } else {
        const auto output = static_cast<std::uint32_t>(r() % 8);
        s.set_vc(vc, output, pool_qos(static_cast<std::uint32_t>(r() % 9)), m);
        outputs[vc] = output;
      }
    }
  };
  churn(scheduler, vcm, rng, 1'500);

  snapshot::Snapshot saved;
  snapshot::SaveWalker save(saved);
  save.section("port");
  vcm.snap(save);
  scheduler.snap(save);

  LinkScheduler restored_scheduler = make();
  VirtualChannelMemory restored(48, 3);
  restored_scheduler.bind(restored);
  snapshot::LoadWalker load(saved);
  load.section("port");
  restored.snap(load);
  restored_scheduler.snap(load);
  load.finish();
  restored_scheduler.bind(restored);
  restored.check_invariants();
  restored_scheduler.check_binding(restored);

  const std::vector<bool> all(48, true);
  const auto same_now = [&] {
    CandidateSet a(8, 4);
    CandidateSet b(8, 4);
    scheduler.select(vcm, now, a);
    restored_scheduler.select(restored, now, b);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.at(i).vc, b.at(i).vc);
      EXPECT_EQ(a.at(i).output, b.at(i).output);
      EXPECT_EQ(a.at(i).priority, b.at(i).priority);
    }
    expect_same_selection(restored_scheduler, restored, outputs, now, all);
  };
  same_now();
  std::mt19937_64 rng_a(5);
  std::mt19937_64 rng_b(5);
  const Cycle resume = now;
  churn(scheduler, vcm, rng_a, 500);
  const std::vector<std::uint32_t> outputs_a = outputs;
  now = resume;
  churn(restored_scheduler, restored, rng_b, 500);
  EXPECT_EQ(outputs, outputs_a);
  same_now();
}

TEST(LinkScheduler, GroupsKeyOnTheConstantsTheSchemeReads) {
  // One group per distinct slot value under SIABP and Static, per distinct
  // IAT under IABP, and a single group under FIFO-age; the demoted group
  // counts where its key is not a VC's.
  std::mt19937_64 rng(7);
  const DifferentialPort port = make_port(200, rng, kVbrPool);
  for (const QosParams demoted : {vbr_pool_qos(0), QosParams{97, 12345.0}}) {
    std::set<std::uint32_t> slots{demoted.slots_per_round};
    std::set<double> iats{demoted.iat_router_cycles};
    for (const QosParams& qos : port.qos_of_vc) {
      slots.insert(qos.slots_per_round);
      iats.insert(qos.iat_router_cycles);
    }
    ASSERT_GT(iats.size(), slots.size());
    for (const auto& [scheme, expected] :
         {std::pair{PriorityScheme::kSiabp, slots.size()},
          std::pair{PriorityScheme::kStatic, slots.size()},
          std::pair{PriorityScheme::kIabp, iats.size()},
          std::pair{PriorityScheme::kFifoAge, std::size_t{1}}}) {
      LinkScheduler scheduler(0, 4, PriorityFunction(scheme), 16,
                              port.output_of_vc, port.qos_of_vc);
      scheduler.set_demoted_qos(demoted);
      VirtualChannelMemory vcm(port.vcs, 2);
      scheduler.bind(vcm);
      scheduler.check_binding(vcm);
      std::set<std::uint32_t> groups{vcm.demoted_group()};
      for (std::uint32_t vc = 0; vc < port.vcs; ++vc)
        groups.insert(vcm.bound_group(vc));
      EXPECT_EQ(groups.size(), expected)
          << "scheme " << to_string(scheme) << " demoted slots "
          << demoted.slots_per_round;
    }
  }
}

TEST(LinkSchedulerDifferential, MoreThan256DistinctQosValuesStayDistinct) {
  // 300 VCs, each with its own QoS constants: group numbers run past 255,
  // so a narrow group tag would alias groups and mis-rank heads.
  constexpr std::uint32_t kVcs = 300;
  std::vector<std::uint32_t> outputs(kVcs);
  std::vector<QosParams> qos(kVcs);
  for (std::uint32_t vc = 0; vc < kVcs; ++vc) {
    outputs[vc] = vc % 8;
    qos[vc].slots_per_round = 1 + (vc * 7919U) % kVcs;
    qos[vc].iat_router_cycles = 3.0 + vc;
  }
  for (PriorityScheme scheme :
       {PriorityScheme::kSiabp, PriorityScheme::kIabp,
        PriorityScheme::kStatic}) {
    LinkScheduler scheduler(0, 8, PriorityFunction(scheme), 16, outputs, qos);
    VirtualChannelMemory vcm(kVcs, 2);
    scheduler.bind(vcm);
    std::vector<std::uint32_t> groups;
    for (std::uint32_t vc = 0; vc < kVcs; ++vc)
      groups.push_back(vcm.bound_group(vc));
    std::sort(groups.begin(), groups.end());
    EXPECT_EQ(std::unique(groups.begin(), groups.end()), groups.end());
    EXPECT_GT(groups.back(), 255u);

    std::mt19937_64 rng(3);
    const std::vector<bool> all(kVcs, true);
    for (Cycle now = 0; now < 200; ++now) {
      const auto vc = static_cast<std::uint32_t>(rng() % kVcs);
      if (rng() % 3 != 0) {
        if (vcm.can_accept(vc)) vcm.push(vc, make_flit(vc), now);
      } else if (!vcm.empty(vc)) {
        (void)vcm.pop(vc);
      }
      expect_same_selection(scheduler, vcm, outputs, now, all);
      if (HasFailure()) return;
    }
    vcm.check_invariants();
  }
}

}  // namespace
}  // namespace mmr
