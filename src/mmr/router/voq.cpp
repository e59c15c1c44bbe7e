#include "mmr/router/voq.hpp"

#include "mmr/router/top_candidates.hpp"
#include "mmr/sim/assert.hpp"
#include "mmr/snapshot/walker.hpp"

namespace mmr {

VoqMemory::VoqMemory(std::uint32_t outputs, std::uint32_t vcs,
                     std::uint32_t capacity_per_vc)
    : capacity_(capacity_per_vc),
      fifos_(outputs),
      vc_count_(vcs, 0),
      occupied_pos_(outputs, -1) {
  MMR_ASSERT(outputs > 0);
  MMR_ASSERT(vcs > 0);
  MMR_ASSERT(capacity_per_vc > 0);
}

bool VoqMemory::can_accept(std::uint32_t vc) const {
  MMR_ASSERT(vc < vcs());
  return vc_count_[vc] < capacity_;
}

void VoqMemory::push(std::uint32_t output, std::uint32_t vc, const Flit& flit,
                     Cycle now) {
  MMR_ASSERT(output < outputs());
  MMR_ASSERT(vc < vcs());
  MMR_ASSERT_MSG(can_accept(vc),
                 "VOQ overflow: credit flow control was violated");
  if (fifos_.empty(output)) {
    occupied_pos_[output] = static_cast<std::int32_t>(occupied_.size());
    occupied_.push_back(output);
  }
  fifos_.push_back(output, {flit, now, vc});
  ++vc_count_[vc];
  ++total_;
}

bool VoqMemory::empty(std::uint32_t output) const {
  MMR_ASSERT(output < outputs());
  return fifos_.empty(output);
}

std::uint32_t VoqMemory::occupancy(std::uint32_t output) const {
  MMR_ASSERT(output < outputs());
  return fifos_.size(output);
}

const VoqMemory::Slot& VoqMemory::head(std::uint32_t output) const {
  MMR_ASSERT(output < outputs());
  return fifos_.front(output);
}

VoqMemory::Slot VoqMemory::pop(std::uint32_t output) {
  MMR_ASSERT(output < outputs());
  const Slot slot = fifos_.pop_front(output);
  MMR_ASSERT(vc_count_[slot.vc] > 0);
  --vc_count_[slot.vc];
  --total_;
  if (fifos_.empty(output)) {
    const auto pos = static_cast<std::size_t>(occupied_pos_[output]);
    const std::uint32_t moved = occupied_.back();
    occupied_[pos] = moved;
    occupied_pos_[moved] = static_cast<std::int32_t>(pos);
    occupied_.pop_back();
    occupied_pos_[output] = -1;
  }
  return slot;
}

std::uint32_t VoqMemory::vc_occupancy(std::uint32_t vc) const {
  MMR_ASSERT(vc < vcs());
  return vc_count_[vc];
}

void VoqMemory::check_invariants() const {
  std::uint64_t counted = 0;
  std::vector<std::uint32_t> per_vc(vc_count_.size(), 0);
  for (std::uint32_t output = 0; output < outputs(); ++output) {
    counted += fifos_.size(output);
    fifos_.for_each(output, [&per_vc](const Slot& slot) { ++per_vc[slot.vc]; });
    const bool listed = occupied_pos_[output] != -1;
    MMR_ASSERT(listed == !fifos_.empty(output));
    if (listed) {
      const auto pos = static_cast<std::size_t>(occupied_pos_[output]);
      MMR_ASSERT(pos < occupied_.size());
      MMR_ASSERT(occupied_[pos] == output);
    }
  }
  for (std::uint32_t vc = 0; vc < vcs(); ++vc) {
    MMR_ASSERT(per_vc[vc] == vc_count_[vc]);
    MMR_ASSERT(vc_count_[vc] <= capacity_);
  }
  MMR_ASSERT(counted == total_);
  MMR_ASSERT(occupied_.size() <= outputs());
}

void snap_voq_slot(snapshot::Walker& w, VoqMemory::Slot& slot) {
  snap_flit(w, slot.flit);
  snapshot::value(w, slot.arrived);
  snapshot::value(w, slot.vc);
}

void VoqMemory::snap(snapshot::Walker& w) {
  fifos_.snap(w, snap_voq_slot);
  snapshot::walk_vector_pod(w, vc_count_);
  snapshot::walk_vector_pod(w, occupied_);
  snapshot::walk_vector_pod(w, occupied_pos_);
  snapshot::value(w, total_);
}

VoqScheduler::VoqScheduler(std::uint32_t input_port, std::uint32_t levels,
                           PriorityFunction priority,
                           std::uint32_t phits_per_flit,
                           std::vector<QosParams> qos_of_vc)
    : input_port_(input_port),
      levels_(levels),
      priority_(priority),
      phits_per_flit_(phits_per_flit),
      qos_of_vc_(std::move(qos_of_vc)) {
  MMR_ASSERT(levels_ >= 1);
  MMR_ASSERT(phits_per_flit_ >= 1);
}

void VoqScheduler::set_vc(std::uint32_t vc, QosParams qos) {
  MMR_ASSERT(vc < qos_of_vc_.size());
  qos_of_vc_[vc] = qos;
}

Priority VoqScheduler::head_priority(const VoqMemory& voq,
                                     std::uint32_t output, Cycle now) const {
  const VoqMemory::Slot& slot = voq.head(output);
  MMR_ASSERT(slot.vc < qos_of_vc_.size());
  MMR_ASSERT(slot.arrived <= now);
  const std::uint64_t age_router_cycles =
      (now - slot.arrived) * phits_per_flit_;
  const QosParams& qos =
      slot.flit.demoted ? demoted_qos_ : qos_of_vc_[slot.vc];
  return priority_(qos, age_router_cycles);
}

void VoqScheduler::select(const VoqMemory& voq, Cycle now, CandidateSet& out,
                          const Eligibility* eligible) const {
  // The link scheduler's top-L policy over VOQ heads: the head flit's VC
  // breaks ties exactly as it would competing from a per-VC queue.  At most
  // `outputs` heads, so a plain scan.
  TopCandidates best(levels_);
  for (std::uint32_t output : voq.occupied_outputs()) {
    const VoqMemory::Slot& slot = voq.head(output);
    if (eligible != nullptr && !(*eligible)(slot.vc)) continue;
    best.offer({head_priority(voq, output, now), slot.arrived, slot.vc, output});
  }
  best.emit(input_port_, now, out);
}

void VoqScheduler::snap(snapshot::Walker& w) {
  snapshot::walk_vector(w, qos_of_vc_, [](snapshot::Walker& v, QosParams& q) {
    snapshot::value(v, q.slots_per_round);
    snapshot::value(v, q.iat_router_cycles);
  });
  snapshot::value(w, demoted_qos_.slots_per_round);
  snapshot::value(w, demoted_qos_.iat_router_cycles);
}

}  // namespace mmr
