#include "mmr/router/link_scheduler.hpp"

#include <algorithm>

#include "mmr/sim/assert.hpp"
#include "mmr/sim/config.hpp"
#include "mmr/snapshot/walker.hpp"
#include "mmr/trace/event.hpp"
#include "mmr/trace/tracer.hpp"

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

void LinkScheduler::set_vc(std::uint32_t vc, std::uint32_t output,
                           QosParams qos) {
  MMR_ASSERT(vc < output_of_vc_.size());
  output_of_vc_[vc] = output;
  qos_of_vc_[vc] = qos;
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
  struct Entry {
    Priority priority;
    Cycle arrived;
    std::uint32_t vc;
  };
  // Top-L selection by (priority desc, older-first, vc asc): a small sorted
  // insertion buffer beats sorting the whole occupied list for L << VCs.
  Entry best[kMaxCandidateLevels];
  MMR_ASSERT_MSG(levels_ <= kMaxCandidateLevels,
                 "candidate levels beyond selection buffer");
  std::uint32_t filled = 0;

  auto better = [](const Entry& a, const Entry& b) {
    if (a.priority != b.priority) return a.priority > b.priority;
    if (a.arrived != b.arrived) return a.arrived < b.arrived;
    return a.vc < b.vc;
  };

  for (std::uint32_t vc : vcm.occupied_vcs()) {
    MMR_ASSERT(vc < output_of_vc_.size());
    if (eligible != nullptr && !(*eligible)(vc)) continue;
    Entry entry{head_priority(vcm, vc, now), vcm.head_arrival(vc), vc};
    if (filled == levels_ && !better(entry, best[filled - 1])) continue;
    // Insertion sort into the buffer.
    std::uint32_t pos = std::min(filled, levels_ - 1);
    if (filled < levels_) ++filled;
    while (pos > 0 && better(entry, best[pos - 1])) {
      best[pos] = best[pos - 1];
      --pos;
    }
    best[pos] = entry;
  }

  for (std::uint32_t level = 0; level < filled; ++level) {
    Candidate candidate;
    candidate.input = static_cast<std::uint16_t>(input_port_);
    candidate.output = static_cast<std::uint16_t>(output_of_vc_[best[level].vc]);
    candidate.level = static_cast<std::uint8_t>(level);
    candidate.vc = best[level].vc;
    candidate.priority = best[level].priority;
    out.add(candidate);
    MMR_TRACE_EVENT(trace::candidate_event(now, candidate.input,
                                           candidate.output, candidate.vc,
                                           candidate.level,
                                           candidate.priority));
  }
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
