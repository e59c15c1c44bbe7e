// Virtual Channel Memory: the MMR's per-input-link buffer pool (Figure 2).
// One small FIFO per virtual channel, physically organised as interleaved
// RAM banks behind an address generator.  The interleave is functionally
// transparent (the address generator guarantees conflict-free access for
// one enqueue + one dequeue per cycle); we model the per-bank occupancy for
// inspection but storage behaves as per-VC FIFOs, pooled per port.
//
// The memory also keeps the link scheduler's ready index (DESIGN.md §19):
// its occupied VCs sorted by (QoS group, head arrival, vc), updated only
// when a VC's head changes.  Group numbers are bound by the link scheduler,
// one per distinct value of the constants its priority scheme reads; the
// memory only files heads under them.
#pragma once

#include <limits>
#include <vector>

#include "mmr/router/fifo_pool.hpp"
#include "mmr/sim/time.hpp"
#include "mmr/traffic/flit.hpp"

namespace mmr {

namespace snapshot {
class Walker;
}

class VirtualChannelMemory {
 public:
  VirtualChannelMemory(std::uint32_t vcs, std::uint32_t capacity_per_vc,
                       std::uint32_t banks = 4);

  [[nodiscard]] std::uint32_t vcs() const { return fifos_.fifos(); }
  [[nodiscard]] std::uint32_t capacity_per_vc() const { return capacity_; }

  [[nodiscard]] bool can_accept(std::uint32_t vc) const;
  void push(std::uint32_t vc, const Flit& flit, Cycle now);

  [[nodiscard]] bool empty(std::uint32_t vc) const;
  [[nodiscard]] std::uint32_t occupancy(std::uint32_t vc) const;
  [[nodiscard]] const Flit& head(std::uint32_t vc) const;
  /// Cycle the current head flit entered this memory (its queuing-delay
  /// epoch for priority biasing).
  [[nodiscard]] Cycle head_arrival(std::uint32_t vc) const;

  Flit pop(std::uint32_t vc);

  /// VCs currently holding at least one flit (unordered; O(1) maintenance).
  [[nodiscard]] const std::vector<std::uint32_t>& occupied_vcs() const {
    return occupied_;
  }

  /// Group of VCs not yet bound to one.
  static constexpr std::uint32_t kNoGroup =
      std::numeric_limits<std::uint32_t>::max();

  /// One occupied VC in the ready index: the QoS group its head competes
  /// in (the demoted group for a demoted head, else the VC's bound group)
  /// and the cycle that head arrived.
  struct ReadyEntry {
    Cycle arrived;
    std::uint32_t group;
    std::uint32_t vc;
  };
  /// Every occupied VC once, sorted by (group, arrival, vc).
  [[nodiscard]] const std::vector<ReadyEntry>& ready() const { return ready_; }

  /// Binds every VC's group (`group_of_vc[vc]`) and the group demoted heads
  /// join, then rebuilds the ready index.
  void bind_groups(const std::vector<std::uint32_t>& group_of_vc,
                   std::uint32_t demoted_group);
  /// Rebinds one VC's group, moving its head if it is queued under it.
  void rebind_group(std::uint32_t vc, std::uint32_t group);
  [[nodiscard]] std::uint32_t bound_group(std::uint32_t vc) const {
    return vc_state_[vc].group;
  }
  [[nodiscard]] std::uint32_t demoted_group() const { return demoted_group_; }
  [[nodiscard]] std::uint64_t total_flits() const { return total_; }

  /// Words (flit slots) currently used per RAM bank; banks are assigned
  /// round-robin per (vc, slot) as the interleaved address generator would.
  [[nodiscard]] const std::vector<std::uint32_t>& bank_occupancy() const {
    return bank_used_;
  }

  void check_invariants() const;

  /// Checkpoint walk: per-VC FIFOs (flits + arrival stamps + bank tags),
  /// bank occupancy, the occupied-VC index, and counters.  The ready index
  /// and group bindings are derived state: not walked, rebuilt on load.
  void snap(snapshot::Walker& w);

 private:
  struct Slot {
    Flit flit;
    Cycle arrived;
    std::uint32_t bank;
  };

  /// Per-VC bookkeeping in one 16-byte record, so push and pop touch one
  /// per-VC line beside the FIFO header.
  struct VcState {
    std::uint64_t pushes = 0;        ///< drives bank interleave
    std::int32_t occupied_pos = -1;  ///< index in occupied_, -1 if empty
    std::uint32_t group = kNoGroup;  ///< bound QoS group
  };

  [[nodiscard]] ReadyEntry ready_entry(std::uint32_t vc,
                                       const Slot& head) const;
  void ready_insert(const ReadyEntry& entry);
  /// The entry equal to `entry`, which must be present.
  std::vector<ReadyEntry>::iterator ready_find(const ReadyEntry& entry);
  /// Moves `from` (present) to `to`'s sorted place in one shift.
  void ready_move(const ReadyEntry& from, const ReadyEntry& to);
  void rebuild_ready();

  std::uint32_t capacity_;
  FifoPool<Slot> fifos_;  ///< one FIFO per VC
  std::vector<VcState> vc_state_;
  std::vector<std::uint32_t> bank_used_;
  std::vector<std::uint32_t> occupied_;
  std::vector<ReadyEntry> ready_;
  std::uint32_t demoted_group_ = kNoGroup;
  std::uint64_t total_ = 0;
};

}  // namespace mmr
