// Shared-buffer MMU configuration (`flow=` SimConfig override).  The MMR
// paper models dedicated per-VC buffers with credit flow control as the only
// loss-avoidance mechanism; `flow=shared` replaces that with a datacenter-
// style memory-management unit (the ns-3 SwitchMmu shape): a buffer pool
// shared across VCs and ports with per-port/per-class accounting —
//
//   * a reserved quota per (port, traffic class) that is always admittable,
//   * alpha-scaled dynamic-threshold admission into the shared pool
//     (admit while used < alpha x remaining free pool),
//   * per-port headroom sized to absorb the flits still in flight after an
//     Xoff pause frame is emitted (the lossless guarantee), and
//   * ECN-style occupancy marking (kmin/kmax/pmax) that sources and the
//     injection policer react to by shaping down.
//
// The spec is pure data.  An empty `flow=` string (or "credit") means the
// MMU machinery is never instantiated and results stay bit-identical to a
// build without the subsystem.
#pragma once

#include <cstdint>
#include <string>

#include "mmr/sim/config.hpp"
#include "mmr/sim/time.hpp"

namespace mmr::mmu {

/// Which flow-control regime the simulation runs.
enum class FlowMode : std::uint8_t {
  kCredit,  ///< dedicated per-VC buffers + credits (the paper's model)
  kShared,  ///< shared-buffer MMU with dynamic thresholds + Xon/Xoff + ECN
};

[[nodiscard]] const char* to_string(FlowMode m);

struct MmuSpec {
  FlowMode mode = FlowMode::kCredit;

  // Pool geometry (flits).  0 = derive a default from the SimConfig in
  // resolve(); see the field comments for the formulas.
  std::uint64_t pool_flits = 0;  ///< shared pool size (default 48 x ports)
  std::uint32_t reserved_per_class = 2;  ///< guaranteed flits / port / class
  std::uint32_t headroom_flits = 0;  ///< per-port pause absorption buffer
                                     ///< (default credit+link latency + 2)

  // Dynamic-threshold admission: a (port, class) may keep taking shared
  // slots while its usage < alpha x (free shared pool).
  double alpha = 1.0;      ///< QoS (lossless) classes
  double alpha_be = 0.25;  ///< best-effort (lossy) class

  // Xon/Xoff pause on per-port buffered-flit usage (hysteresis pair).
  std::uint32_t xoff_flits = 0;  ///< pause above (default max(8, pool/2P))
  std::uint32_t xon_flits = 0;   ///< resume at or below (default xoff / 2)

  // ECN-style marking on shared-pool occupancy: mark probability ramps
  // linearly from 0 at kmin to pmax at kmax and is 1 beyond kmax.
  bool ecn = true;
  std::uint64_t ecn_kmin = 0;  ///< default pool / 8
  std::uint64_t ecn_kmax = 0;  ///< default pool / 2
  double ecn_pmax = 0.1;

  // Reaction to marks (EcnReactor): multiplicative rate cut per mark,
  // additive recovery towards 1.0 every recover window.
  double ecn_cut = 0.5;           ///< factor *= cut on a mark
  double ecn_floor = 0.125;       ///< factor never drops below this
  Cycle ecn_recover = 1024;       ///< recovery period, cycles (0 = never)
  double ecn_step = 0.05;         ///< factor += step per recovery period

  Cycle sample_every = 64;  ///< shared-pool occupancy sampling period

  /// Parses "credit" or "shared[,key:value...]", keys as in the field table
  /// of spec.cpp (`ecn` takes 0|1).  Throws std::invalid_argument on unknown
  /// or malformed tokens.
  [[nodiscard]] static MmuSpec parse(const std::string& spec);

  /// Returns a copy with every derivable 0 replaced by its default for
  /// `config`, validated.  Only meaningful for kShared.
  [[nodiscard]] MmuSpec resolve(const SimConfig& config) const;

  /// Per-VC buffer/credit allowance in shared mode: one VC may in principle
  /// occupy a whole port's admission allowance, so the per-VC credit budget
  /// stops being the binding constraint and the MMU gates admission instead.
  /// Only valid on a resolved spec.
  [[nodiscard]] std::uint32_t vc_slots() const;

  /// Aborts with a readable message on nonsense combinations.  Expects a
  /// resolved spec (no remaining zeros in derivable fields).
  void validate() const;
};

}  // namespace mmr::mmu
