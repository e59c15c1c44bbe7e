// Link scheduling / candidate selection (Sections 3.1 and 4): per input
// port, pick the L virtual channels whose head flits carry the highest
// biased priorities.  Level 0 is the top-priority candidate.  Queue ages are
// measured in router (phit) cycles since the head flit entered the VCM, as
// SIABP's hardware counters do.
//
// Selection reads the VC memory's ready index (DESIGN.md §19): occupied
// VCs grouped by the QoS constants the priority scheme reads
// (PriorityFunction::group_key: slots under SIABP and Static, the IAT
// under IABP, one group under FIFO-age), each group ordered oldest head
// first.  Equal keys give equal priorities at every age, and every biasing
// function is monotone in age, so within a group that order already is the
// priority order, and the exact top-L needs only each group's leading
// entries.
#pragma once

#include <functional>
#include <vector>

#include "mmr/arbiter/candidate.hpp"
#include "mmr/qos/priority.hpp"
#include "mmr/router/vcm.hpp"
#include "mmr/sim/assert.hpp"

namespace mmr {

class LinkScheduler {
 public:
  /// `output_of_vc[vc]` — the output port each VC's connection was routed
  /// to at setup; `qos_of_vc[vc]` — the priority-function constants.
  LinkScheduler(std::uint32_t input_port, std::uint32_t levels,
                PriorityFunction priority, std::uint32_t phits_per_flit,
                std::vector<std::uint32_t> output_of_vc,
                std::vector<QosParams> qos_of_vc);

  /// Filter deciding whether a VC may compete this cycle (multi-router
  /// networks gate on downstream buffer credit; nullptr = all eligible).
  using Eligibility = std::function<bool(std::uint32_t vc)>;

  /// Builds this port's QoS group table (one group per distinct group
  /// key, the demotion constants' included) and binds `vcm`'s VCs to it.
  /// Call once the demotion constants are set, and again after a checkpoint
  /// load.  O(VCs x groups).
  void bind(VirtualChannelMemory& vcm);

  /// Appends this port's candidates (up to `levels`) to `out`: the same
  /// top-L, in the same order, as ranking every eligible occupied VC by
  /// (biased priority desc, head arrival asc, vc asc).  `vcm` must be bound.
  void select(const VirtualChannelMemory& vcm, Cycle now, CandidateSet& out,
              const Eligibility* eligible = nullptr) const;

  /// The biased priority the head flit of `vc` has at `now` (test hook).
  [[nodiscard]] Priority head_priority(const VirtualChannelMemory& vcm,
                                       std::uint32_t vc, Cycle now) const;

  /// Rebinds `vc` to a new connection (fault recovery: a torn-down
  /// connection is re-admitted on a fresh VC of its rerouted path) and
  /// moves it to its new group in the bound `vcm`.
  void set_vc(std::uint32_t vc, std::uint32_t output, QosParams qos,
              VirtualChannelMemory& vcm);

  /// Priority constants applied to head flits carrying the `demoted` flag
  /// (overload policing): the claim of a minimal best-effort reservation.
  /// Set before bind().
  void set_demoted_qos(QosParams qos) {
    MMR_ASSERT_MSG(groups_.empty(), "demotion constants set after bind");
    demoted_qos_ = qos;
  }
  [[nodiscard]] const QosParams& demoted_qos() const { return demoted_qos_; }

  [[nodiscard]] std::uint32_t levels() const { return levels_; }

  /// Checks that every VC of `vcm`, and the demoted group, is bound to a
  /// group whose key is the one the scheme reads from its constants.
  void check_binding(const VirtualChannelMemory& vcm) const;

  /// Checkpoint walk: the VC bindings (mutable via set_vc during fault
  /// recovery) and the demotion constants.  The group table is derived:
  /// not walked, rebuilt by bind() after a load.
  void snap(snapshot::Walker& w);

 private:
  std::uint32_t input_port_;
  std::uint32_t levels_;
  PriorityFunction priority_;
  std::uint32_t phits_per_flit_;
  std::vector<std::uint32_t> output_of_vc_;
  std::vector<QosParams> qos_of_vc_;
  QosParams demoted_qos_{1, 1.0};

  /// One QoS group: its key and the constants of its first member, which
  /// give every member's priority.
  struct Group {
    std::uint64_t key;
    QosParams qos;
  };
  /// The group of `qos`'s key, appended if new.  A linear search: ports
  /// hold a handful of groups.
  std::uint32_t group_of(const QosParams& qos);

  std::vector<Group> groups_;
};

}  // namespace mmr
