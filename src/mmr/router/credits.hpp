// Credit-based flow control between NIC and MMR (Section 2, "Flow
// Control").  One credit per VC buffer slot; the NIC consumes a credit when
// it forwards a flit and the router returns it (after a small propagation
// latency) when the flit leaves the VC buffer through the crossbar.  This
// is what lets the MMR avoid data losses with only a few flits of buffering.
#pragma once

#include <deque>
#include <vector>

#include "mmr/sim/assert.hpp"
#include "mmr/sim/time.hpp"

namespace mmr {

namespace snapshot {
class Walker;
}

class CreditManager {
 public:
  CreditManager(std::uint32_t vcs, std::uint32_t credits_per_vc,
                Cycle return_latency);

  [[nodiscard]] std::uint32_t vcs() const {
    return static_cast<std::uint32_t>(credits_.size());
  }
  [[nodiscard]] std::uint32_t credits(std::uint32_t vc) const;
  [[nodiscard]] bool has_credit(std::uint32_t vc) const {
    return credits(vc) > 0;
  }

  /// NIC side: consumes one credit to send a flit.
  void consume(std::uint32_t vc);

  /// Router side: schedules a credit return; it becomes usable at
  /// `now + return_latency`.
  void release(std::uint32_t vc, Cycle now);

  /// Applies every credit whose return has propagated by `now`.  Must be
  /// called with non-decreasing `now`.
  void tick(Cycle now) { tick(now, [](std::uint32_t) {}); }

  /// tick(), calling `on_first_credit(vc)` for each VC whose count goes
  /// from 0 to 1 (the NIC's ready set only changes on that edge).
  template <typename Fn>
  void tick(Cycle now, Fn&& on_first_credit) {
    while (!pending_.empty() && pending_.front().ready <= now) {
      const std::uint32_t vc = pending_.front().vc;
      pending_.pop_front();
      MMR_ASSERT_MSG(credits_[vc] < credits_per_vc_,
                     "credit returned beyond buffer capacity");
      if (credits_[vc]++ == 0) on_first_credit(vc);
    }
  }

  [[nodiscard]] std::uint32_t in_flight() const {
    return static_cast<std::uint32_t>(pending_.size());
  }

  /// Credits of `vc` currently travelling back (subset of in_flight()).
  [[nodiscard]] std::uint32_t pending_for(std::uint32_t vc) const;

  [[nodiscard]] std::uint32_t capacity_per_vc() const {
    return credits_per_vc_;
  }

  /// Fault recovery: re-creates `count` credits that leaked (their flits
  /// were lost on a faulty link, so no release() will ever arrive).  The
  /// caller — the credit-resync watchdog — is responsible for having audited
  /// that the credits are genuinely unaccounted for.  The CICQ burst-
  /// stabilization protocol uses the same entry point to unlock a
  /// crosspoint's parked credits when a VOQ backs up.
  void restore(std::uint32_t vc, std::uint32_t count);

  /// Inverse of restore(): parks `count` of `vc`'s immediately available
  /// credits so they cannot be consumed (CICQ base allotment — a crosspoint
  /// exposes one credit until burst stabilization unlocks its full depth).
  /// Only credits currently held can be parked; in-flight returns and
  /// occupied slots are untouchable.
  void reclaim(std::uint32_t vc, std::uint32_t count);

  void check_invariants() const;

  /// Checkpoint walk: live credit counts and every in-flight return.
  void snap(snapshot::Walker& w);

 private:
  struct PendingReturn {
    Cycle ready;
    std::uint32_t vc;
  };

  std::uint32_t credits_per_vc_;
  Cycle return_latency_;
  std::vector<std::uint32_t> credits_;
  std::deque<PendingReturn> pending_;  ///< FIFO: release() times non-decreasing
};

}  // namespace mmr
