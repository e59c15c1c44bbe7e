// Virtual Channel Memory: the MMR's per-input-link buffer pool (Figure 2).
// One small FIFO per virtual channel, physically organised as interleaved
// RAM banks behind an address generator.  The interleave is functionally
// transparent (the address generator guarantees conflict-free access for
// one enqueue + one dequeue per cycle); we model the per-bank occupancy for
// inspection but storage behaves as per-VC FIFOs, pooled per port.
#pragma once

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
  [[nodiscard]] std::uint64_t total_flits() const { return total_; }

  /// Words (flit slots) currently used per RAM bank; banks are assigned
  /// round-robin per (vc, slot) as the interleaved address generator would.
  [[nodiscard]] const std::vector<std::uint32_t>& bank_occupancy() const {
    return bank_used_;
  }

  void check_invariants() const;

  /// Checkpoint walk: per-VC FIFOs (flits + arrival stamps + bank tags),
  /// bank occupancy, the occupied-VC index, and counters.
  void snap(snapshot::Walker& w);

 private:
  struct Slot {
    Flit flit;
    Cycle arrived;
    std::uint32_t bank;
  };

  std::uint32_t capacity_;
  FifoPool<Slot> fifos_;  ///< one FIFO per VC
  std::vector<std::uint64_t> pushes_per_vc_;  ///< drives bank interleave
  std::vector<std::uint32_t> bank_used_;
  std::vector<std::uint32_t> occupied_;
  std::vector<std::int32_t> occupied_pos_;  ///< vc -> index in occupied_
  std::uint64_t total_ = 0;
};

}  // namespace mmr
