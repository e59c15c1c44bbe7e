// Top-L candidate buffer shared by the per-VC link scheduler and the VOQ
// scheduler: keeps the L best offered heads ordered by (priority desc,
// older arrival first, lower VC first) — a strict total order on one port,
// since a VC is one head at a time — and appends them to the candidate set
// as levels 0..L-1.  A small sorted insertion buffer beats sorting all
// offers for L << VCs.
#pragma once

#include <algorithm>
#include <cstdint>

#include "mmr/arbiter/candidate.hpp"
#include "mmr/sim/assert.hpp"
#include "mmr/sim/config.hpp"
#include "mmr/sim/time.hpp"
#include "mmr/trace/event.hpp"
#include "mmr/trace/tracer.hpp"

namespace mmr {

class TopCandidates {
 public:
  struct Entry {
    Priority priority;
    Cycle arrived;
    std::uint32_t vc;
    std::uint32_t output;
  };

  explicit TopCandidates(std::uint32_t levels) : levels_(levels) {
    MMR_ASSERT_MSG(levels_ >= 1 && levels_ <= kMaxCandidateLevels,
                   "candidate levels beyond selection buffer");
  }

  [[nodiscard]] static bool better(const Entry& a, const Entry& b) {
    if (a.priority != b.priority) return a.priority > b.priority;
    if (a.arrived != b.arrived) return a.arrived < b.arrived;
    return a.vc < b.vc;
  }

  /// Keeps `entry` if it ranks among the L best offered so far.  Returns
  /// false when the buffer is full and `entry` does not beat its last one.
  bool offer(const Entry& entry) {
    if (filled_ == levels_ && !better(entry, best_[filled_ - 1])) return false;
    std::uint32_t pos = std::min(filled_, levels_ - 1);
    if (filled_ < levels_) ++filled_;
    while (pos > 0 && better(entry, best_[pos - 1])) {
      best_[pos] = best_[pos - 1];
      --pos;
    }
    best_[pos] = entry;
    return true;
  }

  /// Appends the kept entries to `out`, best first, as `input`'s levels.
  void emit(std::uint32_t input, Cycle now, CandidateSet& out) const {
    for (std::uint32_t level = 0; level < filled_; ++level) {
      Candidate candidate;
      candidate.input = static_cast<std::uint16_t>(input);
      candidate.output = static_cast<std::uint16_t>(best_[level].output);
      candidate.level = static_cast<std::uint8_t>(level);
      candidate.vc = best_[level].vc;
      candidate.priority = best_[level].priority;
      out.add(candidate);
      MMR_TRACE_EVENT(trace::candidate_event(now, candidate.input,
                                             candidate.output, candidate.vc,
                                             candidate.level,
                                             candidate.priority));
    }
  }

 private:
  std::uint32_t levels_;
  std::uint32_t filled_ = 0;
  Entry best_[kMaxCandidateLevels];
};

}  // namespace mmr
