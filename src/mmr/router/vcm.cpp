#include "mmr/router/vcm.hpp"

#include "mmr/sim/assert.hpp"
#include "mmr/snapshot/walker.hpp"

namespace mmr {

VirtualChannelMemory::VirtualChannelMemory(std::uint32_t vcs,
                                           std::uint32_t capacity_per_vc,
                                           std::uint32_t banks)
    : capacity_(capacity_per_vc),
      fifos_(vcs),
      pushes_per_vc_(vcs, 0),
      bank_used_(banks, 0),
      occupied_pos_(vcs, -1) {
  MMR_ASSERT(vcs > 0);
  MMR_ASSERT(capacity_per_vc > 0);
  MMR_ASSERT(banks > 0);
}

bool VirtualChannelMemory::can_accept(std::uint32_t vc) const {
  MMR_ASSERT(vc < vcs());
  return fifos_.size(vc) < capacity_;
}

void VirtualChannelMemory::push(std::uint32_t vc, const Flit& flit,
                                Cycle now) {
  MMR_ASSERT(vc < vcs());
  MMR_ASSERT_MSG(can_accept(vc),
                 "VC buffer overflow: credit flow control was violated");
  Slot slot;
  slot.flit = flit;
  slot.arrived = now;
  slot.bank = static_cast<std::uint32_t>(
      (vc + pushes_per_vc_[vc]) % bank_used_.size());
  ++pushes_per_vc_[vc];
  ++bank_used_[slot.bank];
  if (fifos_.empty(vc)) {
    occupied_pos_[vc] = static_cast<std::int32_t>(occupied_.size());
    occupied_.push_back(vc);
  }
  fifos_.push_back(vc, slot);
  ++total_;
}

bool VirtualChannelMemory::empty(std::uint32_t vc) const {
  MMR_ASSERT(vc < vcs());
  return fifos_.empty(vc);
}

std::uint32_t VirtualChannelMemory::occupancy(std::uint32_t vc) const {
  MMR_ASSERT(vc < vcs());
  return fifos_.size(vc);
}

const Flit& VirtualChannelMemory::head(std::uint32_t vc) const {
  MMR_ASSERT(vc < vcs());
  return fifos_.front(vc).flit;
}

Cycle VirtualChannelMemory::head_arrival(std::uint32_t vc) const {
  MMR_ASSERT(vc < vcs());
  return fifos_.front(vc).arrived;
}

Flit VirtualChannelMemory::pop(std::uint32_t vc) {
  MMR_ASSERT(vc < vcs());
  const Slot slot = fifos_.pop_front(vc);
  MMR_ASSERT(bank_used_[slot.bank] > 0);
  --bank_used_[slot.bank];
  --total_;
  if (fifos_.empty(vc)) {
    // Swap-remove from the occupied list.
    const auto pos = static_cast<std::size_t>(occupied_pos_[vc]);
    const std::uint32_t moved = occupied_.back();
    occupied_[pos] = moved;
    occupied_pos_[moved] = static_cast<std::int32_t>(pos);
    occupied_.pop_back();
    occupied_pos_[vc] = -1;
  }
  return slot.flit;
}

void VirtualChannelMemory::check_invariants() const {
  std::uint64_t counted = 0;
  std::uint64_t bank_total = 0;
  for (std::uint32_t used : bank_used_) bank_total += used;
  for (std::uint32_t vc = 0; vc < vcs(); ++vc) {
    counted += fifos_.size(vc);
    MMR_ASSERT(fifos_.size(vc) <= capacity_);
    const bool listed = occupied_pos_[vc] != -1;
    MMR_ASSERT(listed == !fifos_.empty(vc));
    if (listed) {
      const auto pos = static_cast<std::size_t>(occupied_pos_[vc]);
      MMR_ASSERT(pos < occupied_.size());
      MMR_ASSERT(occupied_[pos] == vc);
    }
  }
  MMR_ASSERT(counted == total_);
  MMR_ASSERT(bank_total == total_);
  MMR_ASSERT(occupied_.size() <= vcs());
}

void VirtualChannelMemory::snap(snapshot::Walker& w) {
  fifos_.snap(w, [](snapshot::Walker& v, Slot& slot) {
    snap_flit(v, slot.flit);
    snapshot::value(v, slot.arrived);
    snapshot::value(v, slot.bank);
  });
  snapshot::walk_vector_pod(w, pushes_per_vc_);
  snapshot::walk_vector_pod(w, bank_used_);
  snapshot::walk_vector_pod(w, occupied_);
  snapshot::walk_vector_pod(w, occupied_pos_);
  snapshot::value(w, total_);
}

}  // namespace mmr
