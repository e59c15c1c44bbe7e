// Pooled FIFOs: many small FIFOs (one per VC, VOQ or crosspoint) sharing
// one contiguous slot pool.  Each FIFO is an index-linked chain through the
// pool; popped slots go on a free list and are reused before the pool
// grows, so the pool holds the peak total occupancy rather than
// fifos x capacity.  That matters under flow=shared, where a single VC may
// hold a whole port allowance but the port as a whole rarely does.
//
// Compared with one std::deque per FIFO this is one heap block per pool
// instead of one per FIFO, and push/pop touch one slot plus the FIFO's
// head/tail word.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "mmr/sim/assert.hpp"
#include "mmr/snapshot/walker.hpp"

namespace mmr {

template <typename T>
class FifoPool {
 public:
  explicit FifoPool(std::uint32_t fifos) : fifos_(fifos) {}

  [[nodiscard]] std::uint32_t fifos() const {
    return static_cast<std::uint32_t>(fifos_.size());
  }
  [[nodiscard]] std::uint32_t size(std::uint32_t q) const {
    return fifos_[q].size;
  }
  [[nodiscard]] bool empty(std::uint32_t q) const {
    return fifos_[q].size == 0;
  }
  [[nodiscard]] const T& front(std::uint32_t q) const {
    MMR_ASSERT_MSG(!empty(q), "front of an empty FIFO");
    return slots_[fifos_[q].head].value;
  }
  /// Slots allocated so far (the peak total occupancy).
  [[nodiscard]] std::size_t pool_slots() const { return slots_.size(); }

  void push_back(std::uint32_t q, const T& value) {
    std::uint32_t index = free_;
    if (index != kNil) {
      free_ = slots_[index].next;
      slots_[index] = {value, kNil};
    } else {
      MMR_ASSERT(slots_.size() < kNil);
      index = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back({value, kNil});
    }
    Fifo& fifo = fifos_[q];
    if (fifo.size == 0) {
      fifo.head = index;
    } else {
      slots_[fifo.tail].next = index;
    }
    fifo.tail = index;
    ++fifo.size;
  }

  T pop_front(std::uint32_t q) {
    Fifo& fifo = fifos_[q];
    MMR_ASSERT_MSG(fifo.size != 0, "pop from an empty FIFO");
    const std::uint32_t index = fifo.head;
    Slot& slot = slots_[index];
    fifo.head = slot.next;
    --fifo.size;
    slot.next = free_;
    free_ = index;
    return slot.value;
  }

  /// Visits `q`'s elements front to back.
  template <typename Fn>
  void for_each(std::uint32_t q, Fn fn) const {
    std::uint32_t index = fifos_[q].head;
    for (std::uint32_t n = fifos_[q].size; n != 0; --n) {
      fn(slots_[index].value);
      index = slots_[index].next;
    }
  }

  /// Checkpoint walk, byte-identical to walk_vector over a
  /// std::vector<std::deque<T>> with walk_deque(fn) per FIFO: the FIFO
  /// count, then per FIFO its length and elements front to back.  The pool
  /// layout and free list are not walked; loading rebuilds them compactly.
  template <typename Fn>
  void snap(snapshot::Walker& w, Fn fn) {
    std::uint64_t count = fifos_.size();
    snapshot::value(w, count);
    if (w.loading()) {
      fifos_.assign(static_cast<std::size_t>(count), Fifo{});
      slots_.clear();
      free_ = kNil;
    }
    for (std::uint32_t q = 0; q < fifos_.size(); ++q) {
      std::uint64_t length = fifos_[q].size;
      snapshot::value(w, length);
      if (w.loading()) {
        for (std::uint64_t i = 0; i < length; ++i) {
          T value{};
          fn(w, value);
          push_back(q, value);
        }
        continue;
      }
      std::uint32_t index = fifos_[q].head;
      for (std::uint64_t i = 0; i < length; ++i) {
        fn(w, slots_[index].value);
        index = slots_[index].next;
      }
    }
  }

 private:
  static constexpr std::uint32_t kNil =
      std::numeric_limits<std::uint32_t>::max();

  struct Slot {
    T value;
    std::uint32_t next;  ///< next slot of the same FIFO, or of the free list
  };
  struct Fifo {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    std::uint32_t size = 0;
  };

  std::vector<Fifo> fifos_;
  std::vector<Slot> slots_;
  std::uint32_t free_ = kNil;  ///< head of the free-slot list
};

}  // namespace mmr
