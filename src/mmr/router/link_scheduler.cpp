#include "mmr/router/link_scheduler.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <unordered_map>

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

namespace {

/// Groups are distinct QosParams bit patterns: equal bits give equal
/// priorities under every scheme.
struct QosKey {
  std::uint32_t slots;
  std::uint64_t iat_bits;
  bool operator==(const QosKey&) const = default;
};

QosKey key_of(const QosParams& qos) {
  return {qos.slots_per_round,
          std::bit_cast<std::uint64_t>(qos.iat_router_cycles)};
}

struct QosKeyHash {
  std::size_t operator()(const QosKey& key) const {
    return std::hash<std::uint64_t>{}(key.iat_bits * 0x9E3779B97F4A7C15ULL ^
                                      key.slots);
  }
};

}  // namespace

void LinkScheduler::bind(VirtualChannelMemory& vcm) {
  MMR_ASSERT(vcm.vcs() == qos_of_vc_.size());
  groups_.clear();
  std::unordered_map<QosKey, std::uint32_t, QosKeyHash> group_of_key;
  auto group_of = [&](const QosParams& qos) {
    const auto [it, fresh] = group_of_key.try_emplace(
        key_of(qos), static_cast<std::uint32_t>(groups_.size()));
    if (fresh) groups_.push_back(qos);
    return it->second;
  };
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
  // table, so the group table stays as small as its distinct values.
  auto known =
      std::find_if(groups_.begin(), groups_.end(), [&qos](const QosParams& g) {
        return key_of(g) == key_of(qos);
      });
  if (known == groups_.end()) known = groups_.insert(groups_.end(), qos);
  vcm.rebind_group(vc, static_cast<std::uint32_t>(known - groups_.begin()));
}

void LinkScheduler::check_binding(const VirtualChannelMemory& vcm) const {
  MMR_ASSERT(vcm.vcs() == qos_of_vc_.size());
  MMR_ASSERT_MSG(vcm.demoted_group() < groups_.size() &&
                     key_of(groups_[vcm.demoted_group()]) ==
                         key_of(demoted_qos_),
                 "demoted group does not hold the demotion constants");
  for (std::uint32_t vc = 0; vc < vcm.vcs(); ++vc) {
    MMR_ASSERT_MSG(vcm.bound_group(vc) < groups_.size() &&
                       key_of(groups_[vcm.bound_group(vc)]) ==
                           key_of(qos_of_vc_[vc]),
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
    const QosParams& qos = groups_[group];
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
