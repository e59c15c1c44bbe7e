#include "mmr/router/vcm.hpp"

#include <algorithm>

#include "mmr/sim/assert.hpp"
#include "mmr/snapshot/walker.hpp"

namespace mmr {

namespace {

bool ready_before(const VirtualChannelMemory::ReadyEntry& a,
                  const VirtualChannelMemory::ReadyEntry& b) {
  if (a.group != b.group) return a.group < b.group;
  if (a.arrived != b.arrived) return a.arrived < b.arrived;
  return a.vc < b.vc;
}

}  // namespace

VirtualChannelMemory::VirtualChannelMemory(std::uint32_t vcs,
                                           std::uint32_t capacity_per_vc,
                                           std::uint32_t banks)
    : capacity_(capacity_per_vc),
      fifos_(vcs),
      vc_state_(vcs),
      bank_used_(banks, 0) {
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
  VcState& state = vc_state_[vc];
  Slot slot;
  slot.flit = flit;
  slot.arrived = now;
  slot.bank =
      static_cast<std::uint32_t>((vc + state.pushes) % bank_used_.size());
  ++state.pushes;
  ++bank_used_[slot.bank];
  if (fifos_.empty(vc)) {
    state.occupied_pos = static_cast<std::int32_t>(occupied_.size());
    occupied_.push_back(vc);
    ready_insert(ready_entry(vc, slot));
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
  const ReadyEntry popped = ready_entry(vc, slot);
  if (fifos_.empty(vc)) {
    ready_.erase(ready_find(popped));
    // Swap-remove from the occupied list.
    VcState& state = vc_state_[vc];
    const auto pos = static_cast<std::size_t>(state.occupied_pos);
    const std::uint32_t moved = occupied_.back();
    occupied_[pos] = moved;
    vc_state_[moved].occupied_pos = static_cast<std::int32_t>(pos);
    occupied_.pop_back();
    state.occupied_pos = -1;
  } else {
    ready_move(popped, ready_entry(vc, fifos_.front(vc)));
  }
  return slot.flit;
}

void VirtualChannelMemory::bind_groups(
    const std::vector<std::uint32_t>& group_of_vc,
    std::uint32_t demoted_group) {
  MMR_ASSERT(group_of_vc.size() == vcs());
  for (std::uint32_t vc = 0; vc < vcs(); ++vc)
    vc_state_[vc].group = group_of_vc[vc];
  demoted_group_ = demoted_group;
  rebuild_ready();
}

void VirtualChannelMemory::rebind_group(std::uint32_t vc,
                                        std::uint32_t group) {
  MMR_ASSERT(vc < vcs());
  if (fifos_.empty(vc)) {
    vc_state_[vc].group = group;
    return;
  }
  const ReadyEntry before = ready_entry(vc, fifos_.front(vc));
  vc_state_[vc].group = group;
  ready_move(before, ready_entry(vc, fifos_.front(vc)));
}

VirtualChannelMemory::ReadyEntry VirtualChannelMemory::ready_entry(
    std::uint32_t vc, const Slot& head) const {
  return {head.arrived,
          head.flit.demoted ? demoted_group_ : vc_state_[vc].group, vc};
}

void VirtualChannelMemory::ready_insert(const ReadyEntry& entry) {
  ready_.insert(
      std::lower_bound(ready_.begin(), ready_.end(), entry, ready_before),
      entry);
}

std::vector<VirtualChannelMemory::ReadyEntry>::iterator
VirtualChannelMemory::ready_find(const ReadyEntry& entry) {
  const auto it =
      std::lower_bound(ready_.begin(), ready_.end(), entry, ready_before);
  MMR_ASSERT_MSG(it != ready_.end() && it->vc == entry.vc &&
                     it->group == entry.group && it->arrived == entry.arrived,
                 "ready index lost an occupied VC");
  return it;
}

void VirtualChannelMemory::ready_move(const ReadyEntry& from,
                                      const ReadyEntry& to) {
  const auto at = ready_find(from);
  const auto place =
      std::lower_bound(ready_.begin(), ready_.end(), to, ready_before);
  if (place > at) {
    // `to` sorts after `from`: close the gap leftwards, land before place.
    std::move(at + 1, place, at);
    *(place - 1) = to;
  } else {
    std::move_backward(place, at, at + 1);
    *place = to;
  }
}

void VirtualChannelMemory::rebuild_ready() {
  ready_.clear();
  for (std::uint32_t vc : occupied_)
    ready_.push_back(ready_entry(vc, fifos_.front(vc)));
  std::sort(ready_.begin(), ready_.end(), ready_before);
}

void VirtualChannelMemory::check_invariants() const {
  std::uint64_t counted = 0;
  std::uint64_t bank_total = 0;
  for (std::uint32_t used : bank_used_) bank_total += used;
  for (std::uint32_t vc = 0; vc < vcs(); ++vc) {
    counted += fifos_.size(vc);
    MMR_ASSERT(fifos_.size(vc) <= capacity_);
    const bool listed = vc_state_[vc].occupied_pos != -1;
    MMR_ASSERT(listed == !fifos_.empty(vc));
    if (listed) {
      const auto pos = static_cast<std::size_t>(vc_state_[vc].occupied_pos);
      MMR_ASSERT(pos < occupied_.size());
      MMR_ASSERT(occupied_[pos] == vc);
    }
  }
  MMR_ASSERT(counted == total_);
  MMR_ASSERT(bank_total == total_);
  MMR_ASSERT(occupied_.size() <= vcs());

  // Ready index: each occupied VC exactly once, in (group, arrival, vc)
  // order, filed under its current head's arrival and group.
  MMR_ASSERT_MSG(ready_.size() == occupied_.size(),
                 "ready index and occupied list disagree");
  std::vector<bool> seen(vcs(), false);
  for (std::size_t i = 0; i < ready_.size(); ++i) {
    const ReadyEntry& entry = ready_[i];
    MMR_ASSERT(entry.vc < vcs());
    MMR_ASSERT_MSG(!fifos_.empty(entry.vc), "ready index lists an empty VC");
    MMR_ASSERT_MSG(!seen[entry.vc], "ready index lists a VC twice");
    seen[entry.vc] = true;
    if (i > 0)
      MMR_ASSERT_MSG(ready_before(ready_[i - 1], entry),
                     "ready index out of (group, arrival, vc) order");
    const ReadyEntry expected = ready_entry(entry.vc, fifos_.front(entry.vc));
    MMR_ASSERT_MSG(entry.arrived == expected.arrived,
                   "ready index arrival differs from the head's");
    MMR_ASSERT_MSG(entry.group == expected.group,
                   "ready index group is neither the demoted nor the bound "
                   "group");
  }
}

void VirtualChannelMemory::snap(snapshot::Walker& w) {
  fifos_.snap(w, [](snapshot::Walker& v, Slot& slot) {
    snap_flit(v, slot.flit);
    snapshot::value(v, slot.arrived);
    snapshot::value(v, slot.bank);
  });
  // The per-VC counters walk as the two scalar vectors they once were
  // (count, then the values), keeping the byte stream unchanged.
  auto walk_per_vc = [this, &w](auto field) {
    std::uint64_t count = vc_state_.size();
    snapshot::value(w, count);
    if (count != vc_state_.size())
      throw snapshot::SnapshotError("VC memory VC count mismatch");
    for (VcState& state : vc_state_) snapshot::value(w, state.*field);
  };
  walk_per_vc(&VcState::pushes);
  snapshot::walk_vector_pod(w, bank_used_);
  snapshot::walk_vector_pod(w, occupied_);
  walk_per_vc(&VcState::occupied_pos);
  snapshot::value(w, total_);
  if (w.loading()) {
    for (std::uint32_t vc : occupied_) {
      if (vc >= vcs() || fifos_.empty(vc))
        throw snapshot::SnapshotError("VC memory lists an empty VC");
    }
    rebuild_ready();
  }
}

}  // namespace mmr
