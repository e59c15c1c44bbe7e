#include "mmr/router/credits.hpp"

#include "mmr/sim/assert.hpp"
#include "mmr/snapshot/walker.hpp"

namespace mmr {

CreditManager::CreditManager(std::uint32_t vcs, std::uint32_t credits_per_vc,
                             Cycle return_latency)
    : credits_per_vc_(credits_per_vc),
      return_latency_(return_latency),
      credits_(vcs, credits_per_vc) {
  MMR_ASSERT(vcs > 0);
  MMR_ASSERT(credits_per_vc > 0);
}

std::uint32_t CreditManager::credits(std::uint32_t vc) const {
  MMR_ASSERT(vc < vcs());
  return credits_[vc];
}

void CreditManager::consume(std::uint32_t vc) {
  MMR_ASSERT(vc < vcs());
  MMR_ASSERT_MSG(credits_[vc] > 0, "sent without a credit");
  --credits_[vc];
}

void CreditManager::release(std::uint32_t vc, Cycle now) {
  MMR_ASSERT(vc < vcs());
  MMR_ASSERT_MSG(pending_.empty() || pending_.back().ready <= now + return_latency_,
                 "credit releases must be issued in time order");
  pending_.push_back({now + return_latency_, vc});
}

std::uint32_t CreditManager::pending_for(std::uint32_t vc) const {
  MMR_ASSERT(vc < vcs());
  std::uint32_t count = 0;
  for (const PendingReturn& p : pending_) {
    if (p.vc == vc) ++count;
  }
  return count;
}

void CreditManager::restore(std::uint32_t vc, std::uint32_t count) {
  MMR_ASSERT(vc < vcs());
  MMR_ASSERT_MSG(credits_[vc] + pending_for(vc) + count <= credits_per_vc_,
                 "restore would exceed the per-VC credit budget");
  credits_[vc] += count;
}

void CreditManager::reclaim(std::uint32_t vc, std::uint32_t count) {
  MMR_ASSERT(vc < vcs());
  MMR_ASSERT_MSG(credits_[vc] >= count,
                 "reclaim of credits that are not currently available");
  credits_[vc] -= count;
}

void CreditManager::check_invariants() const {
  // Conservation: credits held + credits travelling back never exceed the
  // per-VC budget (the remainder are slots occupied in the router).
  std::vector<std::uint32_t> in_flight(credits_.size(), 0);
  for (const PendingReturn& p : pending_) ++in_flight[p.vc];
  for (std::uint32_t vc = 0; vc < credits_.size(); ++vc) {
    MMR_ASSERT(credits_[vc] + in_flight[vc] <= credits_per_vc_);
  }
}

void CreditManager::snap(snapshot::Walker& w) {
  snapshot::walk_vector_pod(w, credits_);
  snapshot::walk_deque(w, pending_, [](snapshot::Walker& v, PendingReturn& p) {
    snapshot::value(v, p.ready);
    snapshot::value(v, p.vc);
  });
}

}  // namespace mmr
