#include "mmr/router/link_scheduler.hpp"

#include <algorithm>
#include <utility>

#include "mmr/router/top_candidates.hpp"
#include "mmr/sim/assert.hpp"
#include "mmr/snapshot/walker.hpp"

namespace mmr {

LinkScheduler::LinkScheduler(std::uint32_t input_port, std::uint32_t levels,
                             PriorityFunction priority,
                             std::uint32_t phits_per_flit,
                             std::vector<std::uint32_t> output_of_vc,
                             std::vector<QosParams> qos_of_vc)
    : input_port_(input_port),
      levels_(levels),
      priority_(priority),
      phits_per_flit_(phits_per_flit),
      output_of_vc_(std::move(output_of_vc)),
      qos_of_vc_(std::move(qos_of_vc)) {
  MMR_ASSERT(levels_ >= 1);
  MMR_ASSERT(phits_per_flit_ >= 1);
  MMR_ASSERT(output_of_vc_.size() == qos_of_vc_.size());
}

std::uint32_t LinkScheduler::group_of(const QosParams& qos) {
  const std::uint64_t key = priority_.group_key(qos);
  const auto known =
      std::find_if(groups_.begin(), groups_.end(),
                   [key](const Group& group) { return group.key == key; });
  if (known != groups_.end())
    return static_cast<std::uint32_t>(known - groups_.begin());
  groups_.push_back({key, qos});
  return static_cast<std::uint32_t>(groups_.size() - 1);
}

void LinkScheduler::bind(VirtualChannelMemory& vcm) {
  MMR_ASSERT(vcm.vcs() == qos_of_vc_.size());
  groups_.clear();
  std::vector<std::uint32_t> group_of_vc(qos_of_vc_.size());
  for (std::size_t vc = 0; vc < qos_of_vc_.size(); ++vc)
    group_of_vc[vc] = group_of(qos_of_vc_[vc]);
  vcm.bind_groups(group_of_vc, group_of(demoted_qos_));
}

void LinkScheduler::set_vc(std::uint32_t vc, std::uint32_t output,
                           QosParams qos, VirtualChannelMemory& vcm) {
  MMR_ASSERT(vc < output_of_vc_.size());
  output_of_vc_[vc] = output;
  qos_of_vc_[vc] = qos;
  // Re-admitted connections bring QoS constants from the same connection
  // table, so the group table stays as small as its distinct keys.
  vcm.rebind_group(vc, group_of(qos));
}

void LinkScheduler::check_binding(const VirtualChannelMemory& vcm) const {
  MMR_ASSERT(vcm.vcs() == qos_of_vc_.size());
  const auto holds = [this](std::uint32_t group, const QosParams& qos) {
    return group < groups_.size() &&
           groups_[group].key == priority_.group_key(qos);
  };
  MMR_ASSERT_MSG(holds(vcm.demoted_group(), demoted_qos_),
                 "demoted group does not hold the demotion constants");
  for (std::uint32_t vc = 0; vc < vcm.vcs(); ++vc) {
    MMR_ASSERT_MSG(holds(vcm.bound_group(vc), qos_of_vc_[vc]),
                   "VC bound to a group with other QoS constants");
  }
}

Priority LinkScheduler::head_priority(const VirtualChannelMemory& vcm,
                                      std::uint32_t vc, Cycle now) const {
  MMR_ASSERT(vc < qos_of_vc_.size());
  const Cycle arrived = vcm.head_arrival(vc);
  MMR_ASSERT(arrived <= now);
  const std::uint64_t age_router_cycles = (now - arrived) * phits_per_flit_;
  // Policed-excess flits compete with a minimal best-effort claim instead
  // of their connection's reserved one (demote policy).
  const QosParams& qos =
      vcm.head(vc).demoted ? demoted_qos_ : qos_of_vc_[vc];
  return priority_(qos, age_router_cycles);
}

void LinkScheduler::select(const VirtualChannelMemory& vcm, Cycle now,
                           CandidateSet& out,
                           const Eligibility* eligible) const {
  TopCandidates best(levels_);
  const std::vector<VirtualChannelMemory::ReadyEntry>& ready = vcm.ready();
  auto it = ready.begin();
  while (it != ready.end()) {
    const std::uint32_t group = it->group;
    MMR_ASSERT_MSG(group < groups_.size(),
                   "VC memory not bound to this scheduler's groups");
    const QosParams& qos = groups_[group].qos;
    for (; it != ready.end() && it->group == group; ++it) {
      if (eligible != nullptr && !(*eligible)(it->vc)) continue;
      MMR_ASSERT(it->arrived <= now);
      const std::uint64_t age_router_cycles =
          (now - it->arrived) * phits_per_flit_;
      if (!best.offer({priority_(qos, age_router_cycles), it->arrived, it->vc,
                       output_of_vc_[it->vc]})) {
        // The rest of the group is younger (or a higher VC at the same
        // age), so it ranks no better than this head: skip to the next.
        it = std::partition_point(
            it, ready.end(),
            [group](const VirtualChannelMemory::ReadyEntry& entry) {
              return entry.group == group;
            });
        break;
      }
    }
  }
  best.emit(input_port_, now, out);
}

void LinkScheduler::snap(snapshot::Walker& w) {
  snapshot::walk_vector_pod(w, output_of_vc_);
  snapshot::walk_vector(w, qos_of_vc_, [](snapshot::Walker& v, QosParams& q) {
    snapshot::value(v, q.slots_per_round);
    snapshot::value(v, q.iat_router_cycles);
  });
  snapshot::value(w, demoted_qos_.slots_per_round);
  snapshot::value(w, demoted_qos_.iat_router_cycles);
}

}  // namespace mmr
