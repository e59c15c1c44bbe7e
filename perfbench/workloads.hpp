// The benchmark's four workloads, defined entirely through the simulator's
// public entry points: the workload builders, the MmrSimulation and
// MmrNetworkSimulation constructors, run(), check_invariants(),
// state_hash(), saturation_load() and the perf-probe phase counters.
//
// A workload is a closed batch of simulation runs ("points").  Running a
// point builds its inputs from the benchmark seed, constructs the
// simulator, runs it, checks it and hashes its final state, timing each of
// those calls; a traced run also arms a PerfProbe around run() so the
// simulator's own phase counters split the run's wall time by layer.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mmr/core/experiment.hpp"
#include "mmr/perf/probe.hpp"

namespace perfbench {

/// One simulation of a workload.
struct PointSpec {
  std::string arbiter;
  double load = 0.0;
  std::size_t load_index = 0;
  std::uint32_t replication = 0;
  std::uint32_t net_threads = 0;  ///< network engine width (0 = serial)
};

/// Host-time interval of one call the benchmark made into the simulator,
/// in steady-clock nanoseconds (both 0 when the call was not made).
struct Call {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  [[nodiscard]] std::uint64_t ns() const { return end_ns - start_ns; }
};

/// What one run of one point did and what each call into the simulator
/// cost.
struct RunRecord {
  Call workload;    ///< workload builder (traffic + qos admission)
  Call construct;   ///< simulator constructor
  Call run;         ///< run()
  Call invariants;  ///< check_invariants()
  Call hash;        ///< state_hash()
  Call routing;     ///< network, traced only: compute_path replay

  std::uint64_t router_cycles = 0;  ///< routers x simulated cycles
  std::uint64_t state_hash = 0;
  std::string failure;  ///< empty when every check passed

  // Simulated results (model side, independent of host speed).
  bool saturated = false;
  std::uint64_t flits_delivered = 0;
  std::uint64_t flits_injected = 0;  ///< single router: NIC deposits
  std::uint64_t backlog_flits = 0;
  double crossbar_utilization = 0.0;
  double mean_matching_size = 0.0;
  double hops_mean = 0.0;
  std::uint64_t mmu_pause_events = 0;
  std::uint64_t mmu_ecn_marked = 0;
  std::uint64_t mmu_drops_lossy = 0;
  std::uint64_t mmu_drops_lossless = 0;
  std::uint64_t policed = 0;
  std::uint64_t watchdog_escalations = 0;
  mmr::SimulationMetrics metrics;  ///< single router only (saturation_load)

  mmr::perf::PerfProbe probe;  ///< phase totals; filled only when traced
};

class Workload {
 public:
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<PointSpec>& points() const {
    return points_;
  }
  /// True for the paper sweeps, whose results carry the accuracy readout.
  [[nodiscard]] virtual bool is_sweep() const { return false; }
  /// True for the network workload, which carries the sharded readout.
  [[nodiscard]] virtual bool is_network() const { return false; }

  /// Builds, constructs, runs, checks and hashes one point.  With `traced`
  /// a PerfProbe is armed around run() and returned in the record.
  [[nodiscard]] virtual RunRecord run(const PointSpec& point,
                                      bool traced) const = 0;

 protected:
  explicit Workload(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::vector<PointSpec> points_;
};

/// The workload names, in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Creates the named workload for `seed`; nullptr for an unknown name.
/// `tiny` shrinks it to smoke-test size: fewer and shorter runs, and a 4x4
/// torus.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      bool tiny);

}  // namespace perfbench
