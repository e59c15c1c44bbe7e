// The single-router experimental setup of Section 5: one MMR, one NIC per
// input link with infinite source buffers, credit-based flow control across
// short links, traffic sources injecting into the NICs.  run() executes
// warmup + measurement and returns the paper's metrics.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <vector>

#include "mmr/core/metrics.hpp"
#include "mmr/mmu/spec.hpp"
#include "mmr/router/link.hpp"
#include "mmr/router/nic.hpp"
#include "mmr/router/router.hpp"
#include "mmr/sim/config.hpp"
#include "mmr/traffic/mix.hpp"

namespace mmr {

namespace audit {
class SimAuditor;
}  // namespace audit

namespace mmu {
class SharedBufferMmu;
class EcnReactor;
}  // namespace mmu

namespace overload {
class InjectionPolicer;
class SaturationWatchdog;
}  // namespace overload

namespace snapshot {
class SnapshotManager;
class Walker;
}  // namespace snapshot

namespace trace {
class Tracer;
}  // namespace trace

class MmrSimulation {
 public:
  MmrSimulation(SimConfig config, Workload workload);
  ~MmrSimulation();  ///< out-of-line for the SimAuditor forward declaration

  /// Runs warmup_cycles + measure_cycles and returns the metrics.  May only
  /// be called once per instance.
  SimulationMetrics run();

  /// Runs a single cycle (exposed for fine-grained integration tests).
  void step_one();

  [[nodiscard]] Cycle now() const { return now_; }
  [[nodiscard]] const SimConfig& config() const { return config_; }
  [[nodiscard]] const ConnectionTable& table() const { return workload_.table; }
  [[nodiscard]] const MmrRouter& router() const { return router_; }
  [[nodiscard]] const Nic& nic(std::uint32_t link) const;

  /// Flits queued in NICs plus buffered in the router right now.
  [[nodiscard]] std::uint64_t backlog() const;

  /// Observer invoked for every departure with its delivery cycle (tests,
  /// tracing, custom sinks).  Set before running.
  using DepartureObserver =
      std::function<void(const MmrRouter::Departure&, Cycle)>;
  void set_departure_observer(DepartureObserver observer) {
    observer_ = std::move(observer);
  }

  [[nodiscard]] SimulationMetrics finalize() const;

  /// The runtime invariant auditor, or nullptr when `audit=0` (default).
  [[nodiscard]] const audit::SimAuditor* auditor() const {
    return auditor_.get();
  }

  /// The injection policer, or nullptr when `police=` is unset.
  [[nodiscard]] const overload::InjectionPolicer* policer() const {
    return policer_.get();
  }
  /// The saturation watchdog, or nullptr when policing is off or the spec
  /// disables it (wd_window:0).
  [[nodiscard]] const overload::SaturationWatchdog* watchdog() const {
    return watchdog_.get();
  }
  /// ConnectionIds wrapped as rogue sources (empty when `rogue=` is unset).
  [[nodiscard]] const std::vector<ConnectionId>& rogue_connections() const {
    return rogue_ids_;
  }

  /// The shared-buffer MMU, or nullptr when `flow=` is unset or "credit".
  [[nodiscard]] const mmu::SharedBufferMmu* shared_mmu() const {
    return mmu_.get();
  }
  /// The ECN reactor, or nullptr when the MMU is off or marking disabled.
  [[nodiscard]] const mmu::EcnReactor* ecn_reactor() const {
    return ecn_.get();
  }

  /// The event tracer, or nullptr when `trace=` is unset.  Non-const so
  /// tests can snapshot/export after a run; emission itself never touches
  /// simulation state.
  [[nodiscard]] trace::Tracer* tracer() { return tracer_.get(); }
  [[nodiscard]] const trace::Tracer* tracer() const { return tracer_.get(); }

  void check_invariants() const;

  // --- checkpoint/restore (mmr/snapshot/, `snap=` override) -----------------
  /// The one serialization walk: every mutable piece of simulation state, in
  /// a fixed order, serving SaveWalker, LoadWalker and HashWalker alike.
  /// Conditional sections (policer, MMU, tracer, ...) appear exactly when
  /// the config constructs the subsystem, which the config digest pins.
  void snap_walk(snapshot::Walker& w);

  /// 64-bit FNV-1a StateHash of the current state (the per-cycle divergence
  /// fingerprint).  Works with or without `snap=`.
  [[nodiscard]] std::uint64_t state_hash();

  /// Writes an mmr-snap-v1 checkpoint of the current state to `path`
  /// (atomic: temp file + rename).
  void save_checkpoint(const std::string& path);

  /// Overlays a checkpoint onto this freshly constructed simulation and
  /// fast-forwards the clock.  The (config, workload) must match the saving
  /// run; a config-digest mismatch throws SnapshotError.  `snap=resume:PATH`
  /// calls this from the constructor.
  void restore_checkpoint(const std::string& path);

  /// The snapshot manager, or nullptr when `snap=` is unset.
  [[nodiscard]] const snapshot::SnapshotManager* snapshot_manager() const {
    return snap_mgr_.get();
  }

 private:
  /// run() with snapshot duties armed: periodic checkpoints + state hashes,
  /// crash/watchdog post-mortems, cooperative SIGINT/SIGTERM shutdown.
  SimulationMetrics run_managed(Cycle total);

  /// Normalizes the flow regime before member construction: `flow=shared`
  /// re-sizes the per-VC buffer/credit allowance to the MMU's admission
  /// allowance (MmuSpec::vc_slots), because a single field feeds both the
  /// router's VCM capacity and the NIC's credit budget, and stores the
  /// parsed spec in `shared`.  Unset / "credit" returns the config untouched.
  [[nodiscard]] static SimConfig with_flow_regime(
      SimConfig config, std::optional<mmu::MmuSpec>& shared);

  /// A flit's loss class at the MMU: policed-demoted excess is lossy
  /// best-effort regardless of the VC's traffic class.
  [[nodiscard]] TrafficClass loss_class(const Flit& flit) const;

  /// Pushes the reactor's current factor for `connection` into its traffic
  /// source and the policer's token bucket.
  void apply_ecn_factor(ConnectionId connection);

  /// The `flow=shared` spec, parsed once by with_flow_regime; declared
  /// before config_, whose initializer fills it.
  std::optional<mmu::MmuSpec> shared_flow_;
  SimConfig config_;
  Workload workload_;
  MmrRouter router_;
  std::vector<Nic> nics_;
  std::vector<LinkPipeline> input_links_;  ///< NIC -> router, one per port
  MetricsCollector collector_;
  double generated_load_nominal_;

  /// Min-heap of (next emission cycle, source index).
  using Emission = std::pair<Cycle, std::uint32_t>;
  std::priority_queue<Emission, std::vector<Emission>, std::greater<>> heap_;

  DepartureObserver observer_;
  std::unique_ptr<audit::SimAuditor> auditor_;  ///< set when audit_every > 0
  std::unique_ptr<trace::Tracer> tracer_;       ///< set when trace= is present
  std::unique_ptr<snapshot::SnapshotManager> snap_mgr_;  ///< snap= present

  // Overload protection (set only when police= / rogue= are present; an
  // unset spec leaves every pointer null and the hot path untouched).
  std::unique_ptr<overload::InjectionPolicer> policer_;
  std::unique_ptr<overload::SaturationWatchdog> watchdog_;
  std::vector<ConnectionId> rogue_ids_;
  std::vector<char> is_rogue_;  ///< per-connection flag (empty = none)
  double qos_deadline_cycles_ = kQosDeadlineCycles;  ///< violation split
  std::uint64_t compliant_delivered_ = 0;
  std::uint64_t compliant_violations_ = 0;
  std::uint64_t rogue_delivered_ = 0;
  std::uint64_t rogue_violations_ = 0;
  StreamingStats shape_delay_us_;
  std::vector<Flit> release_buffer_;

  // Shared-buffer MMU backpressure (set only when flow=shared; null pointers
  // leave the credit-regime hot path bit-identical to a pre-MMU build).
  std::unique_ptr<mmu::SharedBufferMmu> mmu_;
  std::unique_ptr<mmu::EcnReactor> ecn_;
  /// In-flight Xon/Xoff frames on the credit channel; effective times are
  /// non-decreasing (every frame is stamped now + credit_latency), so a
  /// front-drain applies them in emission order.
  struct PauseFrame {
    Cycle effective_at = 0;
    std::uint32_t port = 0;
    bool xoff = false;
  };
  std::deque<PauseFrame> pause_frames_;
  std::vector<std::uint32_t> source_of_connection_;  ///< ECN throttle lookup
  std::vector<ConnectionId> ecn_changed_;            ///< recovery scratch

  Cycle now_ = 0;
  bool ran_ = false;
  std::vector<Flit> flit_buffer_;
  std::vector<LinkTransfer> arrival_buffer_;
  std::vector<MmrRouter::Departure> departure_buffer_;
};

}  // namespace mmr
