#include "workloads.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "mmr/mmu/mmu.hpp"
#include "mmr/network/network.hpp"
#include "mmr/network/routing.hpp"
#include "mmr/overload/policer.hpp"

namespace perfbench {
namespace {

using mmr::perf::now_ns;

/// Calls `call`, recording its interval in `span`, and returns its result.
template <typename F>
auto timed(Call& span, F&& call) {
  span.start_ns = now_ns();
  if constexpr (std::is_void_v<decltype(call())>) {
    call();
    span.end_ns = now_ns();
  } else {
    auto result = call();
    span.end_ns = now_ns();
    return result;
  }
}

/// Runs one single-router simulation: `build` makes its inputs.
template <typename Build>
RunRecord run_router(const mmr::SimConfig& config, Build&& build,
                     bool traced) {
  RunRecord record;
  mmr::Workload workload = timed(record.workload, build);
  record.construct.start_ns = now_ns();
  mmr::MmrSimulation simulation(config, std::move(workload));
  record.construct.end_ns = now_ns();
  {
    const mmr::perf::ProbeScope arm(traced ? &record.probe : nullptr);
    record.metrics = timed(record.run, [&] { return simulation.run(); });
  }
  timed(record.invariants, [&] { simulation.check_invariants(); });
  record.state_hash =
      timed(record.hash, [&] { return simulation.state_hash(); });

  const mmr::SimulationMetrics& m = record.metrics;
  record.router_cycles = config.total_cycles();
  record.saturated = m.saturated();
  record.flits_delivered = m.flits_delivered;
  record.backlog_flits = m.backlog_flits;
  record.crossbar_utilization = simulation.router().crossbar().utilization();
  record.mean_matching_size = m.mean_matching_size;
  for (std::uint32_t link = 0; link < config.ports; ++link)
    record.flits_injected += simulation.nic(link).total_queued();
  if (const mmr::mmu::SharedBufferMmu* mmu = simulation.shared_mmu()) {
    record.mmu_pause_events = mmu->pause_events();
    record.mmu_ecn_marked = mmu->ecn_marked();
    record.mmu_drops_lossy = mmu->drops_lossy();
    record.mmu_drops_lossless = mmu->drops_lossless();
  }
  if (const mmr::overload::InjectionPolicer* policer = simulation.policer()) {
    for (const std::uint64_t n : policer->policed_per_connection())
      record.policed += n;
  }
  record.watchdog_escalations = m.overload.watchdog_escalations;

  // Conservation over the whole run: what was delivered cannot exceed what
  // the NICs took in, less what is still queued or was dropped.
  const std::uint64_t left =
      simulation.backlog() + record.mmu_drops_lossy + record.mmu_drops_lossless;
  if (m.flits_delivered + left > record.flits_injected)
    record.failure = "more flits delivered than injected";
  return record;
}

// --- paper-cbr / paper-vbr --------------------------------------------------

/// A load sweep on the paper's router (Figs. 5, 8, 9): every (arbiter, load,
/// replication) cell is one point, seeded exactly as run_sweep seeds it.
class SweepWorkload final : public Workload {
 public:
  SweepWorkload(std::string name, std::uint64_t seed, bool tiny,
                mmr::SweepSpec spec)
      : Workload(std::move(name)), spec_(std::move(spec)) {
    spec_.base.seed = seed;
    if (tiny) {
      spec_.base.warmup_cycles = 300;
      spec_.base.measure_cycles = 1'200;
      spec_.replications = 1;
    }
    spec_.validate();
    for (const std::string& arbiter : spec_.arbiters) {
      for (std::size_t l = 0; l < spec_.loads.size(); ++l) {
        for (std::uint32_t r = 0; r < spec_.replications; ++r)
          points_.push_back({arbiter, spec_.loads[l], l, r, 0});
      }
    }
  }

  [[nodiscard]] bool is_sweep() const override { return true; }

  [[nodiscard]] RunRecord run(const PointSpec& point,
                              bool traced) const override {
    const auto arbiter_index = static_cast<std::uint64_t>(
        std::find(spec_.arbiters.begin(), spec_.arbiters.end(),
                  point.arbiter) -
        spec_.arbiters.begin());
    mmr::SimConfig config = spec_.base;
    config.arbiter = point.arbiter;
    config.seed = mmr::mix_seed(spec_.base.seed, arbiter_index,
                                point.replication);
    return run_router(
        config,
        [&] {
          return mmr::build_sweep_workload(spec_, point.load_index,
                                           point.replication);
        },
        traced);
  }

 private:
  mmr::SweepSpec spec_;
};

mmr::SweepSpec paper_cbr_spec() {
  mmr::SweepSpec spec;
  spec.kind = mmr::WorkloadKind::kCbr;
  spec.loads = {0.20, 0.40, 0.60, 0.70, 0.78, 0.85, 0.92};
  spec.cbr.destinations = mmr::DestinationPolicy::kUniformRandom;
  // A replication is one draw of connections shared by every load and
  // arbiter, and how many points saturate depends on that draw (a hot
  // output), so many short replications keep the cost steady across seeds.
  spec.replications = 16;
  spec.base.warmup_cycles = 1'000;
  spec.base.measure_cycles = 4'000;
  return spec;
}

mmr::SweepSpec paper_vbr_spec() {
  mmr::SweepSpec spec;
  spec.kind = mmr::WorkloadKind::kVbr;
  spec.loads = {0.50, 0.65, 0.75, 0.85, 0.90};
  spec.vbr.model = mmr::InjectionModel::kBackToBack;
  spec.vbr.trace_gops = 8;
  // A frame lasts ~23k cycles: a run must span about two, or whether it
  // saturates near the knee depends on its frame phases and the set of
  // saturated runs (and their cost) changes with the seed.
  spec.replications = 4;
  spec.base.warmup_cycles = 5'000;
  spec.base.measure_cycles = 40'000;
  return spec;
}

// --- incast-shared ----------------------------------------------------------

/// 16 inputs converging on output 0 at 1.8x its capacity under the
/// shared-buffer MMU with demote policing and a bursting rogue source.
class IncastWorkload final : public Workload {
 public:
  IncastWorkload(std::uint64_t seed, bool tiny) : Workload("incast-shared") {
    base_.ports = 16;
    base_.vcs_per_link = 64;
    base_.arbiter = "coa";
    base_.flow_spec = "shared";
    base_.police_spec = "demote";
    base_.rogue_spec =
        "count:1,scale:4,burst_scale:2,burst_period:5000,burst_len:1000,"
        "class:cbr";
    base_.seed = seed;
    base_.warmup_cycles = tiny ? 300 : 2'000;
    base_.measure_cycles = tiny ? 1'200 : 8'000;
    base_.validate();
    // How costly a replication's connections are varies by a few percent
    // with its draw (seeds spread 0.96-1.04 at 6 replications), so a round
    // averages over 24 of them.
    for (std::uint32_t r = 0; r < (tiny ? 1u : 24u); ++r)
      points_.push_back({base_.arbiter, kHotLoad, 0, r, 0});
  }

  [[nodiscard]] RunRecord run(const PointSpec& point,
                              bool traced) const override {
    mmr::SimConfig config = base_;
    config.seed = mmr::mix_seed(base_.seed, 0, point.replication);
    return run_router(
        config,
        [&] {
          mmr::Rng rng(config.seed, 1);
          mmr::CbrMixSpec mix;
          mix.target_load = point.load;
          mix.classes = {mmr::kCbrHigh};
          mix.class_weights = {1.0};
          mix.hot_output = 0;
          mmr::Workload workload = mmr::build_cbr_mix(config, mix, rng);
          mmr::BestEffortSpec background;
          background.load = 0.1;
          background.connections_per_link = 2;
          mmr::Rng be_rng = rng.fork(0xBE);
          mmr::add_best_effort(workload, config, background, be_rng);
          return workload;
        },
        traced);
  }

 private:
  static constexpr double kHotLoad = 1.8 / 16.0;  ///< per input, all to out 0
  mmr::SimConfig base_;
};

// --- torus-fabric -----------------------------------------------------------

/// A 16x16 torus of 5-port routers carrying a CBR mix, serial engine.
class TorusWorkload final : public Workload {
 public:
  TorusWorkload(std::uint64_t seed, bool tiny)
      : Workload("torus-fabric"),
        topology_(mmr::NetworkTopology::torus2d(tiny ? 4 : 16, tiny ? 4 : 16,
                                                5)) {
    base_.ports = 5;
    base_.vcs_per_link = 32;
    base_.seed = seed;
    base_.warmup_cycles = tiny ? 100 : 500;
    base_.measure_cycles = tiny ? 300 : 1'500;
    base_.validate_network();
    points_.push_back({base_.arbiter, 0.35, 0, 0, 0});
  }

  [[nodiscard]] bool is_network() const override { return true; }

  [[nodiscard]] RunRecord run(const PointSpec& point,
                              bool traced) const override {
    mmr::SimConfig config = base_;
    config.net_threads = point.net_threads;
    RunRecord record;
    mmr::NetworkWorkload workload = timed(record.workload, [&] {
      mmr::Rng rng(config.seed, 0x5CA1E);
      mmr::CbrMixSpec mix;
      mix.target_load = point.load;
      mix.classes = {mmr::kCbrHigh, mmr::kCbrMedium};
      mix.class_weights = {3.0, 1.0};
      return mmr::build_network_cbr_mix(config, topology_, mix, rng);
    });
    if (traced) replay_routing(workload, record);
    record.construct.start_ns = now_ns();
    mmr::MmrNetworkSimulation simulation(config, std::move(workload));
    record.construct.end_ns = now_ns();
    mmr::NetworkMetrics m;
    {
      const mmr::perf::ProbeScope arm(traced ? &record.probe : nullptr);
      m = timed(record.run, [&] { return simulation.run(); });
    }
    timed(record.invariants, [&] { simulation.check_invariants(); });
    record.state_hash =
        timed(record.hash, [&] { return simulation.state_hash(); });

    record.router_cycles =
        static_cast<std::uint64_t>(topology_.routers()) * config.total_cycles();
    record.saturated = m.saturated();
    record.flits_delivered = m.flits_delivered;
    record.backlog_flits = m.backlog_flits;
    record.hops_mean = m.delivered_hops.empty() ? 0.0 : m.delivered_hops.mean();
    double switched = 0.0;
    for (std::uint32_t r = 0; r < topology_.routers(); ++r)
      switched += simulation.router(r).crossbar().utilization();
    record.crossbar_utilization =
        switched / static_cast<double>(topology_.routers());
    // No flit-count check here: the network reports only measurement-window
    // counts, and flits generated before the window are delivered inside
    // it, so delivered may exceed generated in a correct run.
    return record;
  }

 private:
  /// Routing is folded into the network workload builder; the traced pass
  /// times it by recomputing every connection's path with compute_path,
  /// which must reproduce the path the builder reserved.
  void replay_routing(const mmr::NetworkWorkload& workload,
                      RunRecord& record) const {
    std::size_t mismatches = 0;
    timed(record.routing, [&] {
      for (const mmr::NetworkConnection& c : workload.connections) {
        const std::vector<mmr::Hop> path = mmr::compute_path(
            topology_, c.first_hop().router, c.first_hop().in_port,
            c.last_hop().router, c.last_hop().out_port);
        bool same = path.size() == c.path.size();
        for (std::size_t h = 0; same && h < path.size(); ++h) {
          same = path[h].router == c.path[h].router &&
                 path[h].in_port == c.path[h].in_port &&
                 path[h].out_port == c.path[h].out_port;
        }
        if (!same) ++mismatches;
      }
    });
    if (mismatches != 0)
      record.failure =
          std::to_string(mismatches) + " paths differ from compute_path";
  }

  mmr::NetworkTopology topology_;
  mmr::SimConfig base_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper-cbr", "paper-vbr", "incast-shared", "torus-fabric"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool tiny) {
  if (name == "paper-cbr")
    return std::make_unique<SweepWorkload>(name, seed, tiny, paper_cbr_spec());
  if (name == "paper-vbr")
    return std::make_unique<SweepWorkload>(name, seed, tiny, paper_vbr_spec());
  if (name == "incast-shared")
    return std::make_unique<IncastWorkload>(seed, tiny);
  if (name == "torus-fabric")
    return std::make_unique<TorusWorkload>(seed, tiny);
  return nullptr;
}

}  // namespace perfbench
