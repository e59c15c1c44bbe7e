#include "mmr/router/nic.hpp"

#include "mmr/sim/assert.hpp"
#include "mmr/sim/bits.hpp"
#include "mmr/snapshot/walker.hpp"

namespace mmr {

Nic::Nic(std::uint32_t vcs, std::uint32_t credits_per_vc, Cycle credit_latency)
    : queues_(vcs),
      credits_(vcs, credits_per_vc, credit_latency),
      ready_(bit_words(vcs), 0) {
  MMR_ASSERT(vcs > 0);
}

void Nic::update_ready(std::uint32_t vc) {
  if (sendable(vc)) {
    bits_set(ready_.data(), vc);
  } else {
    bits_clear(ready_.data(), vc);
  }
}

void Nic::deposit(std::uint32_t vc, const Flit& flit) {
  MMR_ASSERT(vc < vcs());
  const bool was_empty = queues_[vc].empty();
  queues_[vc].push_back(flit);
  ++total_queued_;
  if (was_empty) {
    ++nonempty_;
    update_ready(vc);
  }
}

std::optional<LinkTransfer> Nic::select_and_send(Cycle now) {
  credits_.tick(now, [this](std::uint32_t vc) {
    if (!queues_[vc].empty()) bits_set(ready_.data(), vc);
  });
  if (paused_ || nonempty_ == 0) return std::nullopt;
  // Demand-driven round-robin: the first VC at or after the cursor with a
  // flit and a credit.
  const std::int32_t pick = bits_first_cyclic(
      ready_.data(), static_cast<std::uint32_t>(ready_.size()), rr_next_);
  if (pick < 0) return std::nullopt;
  const auto vc = static_cast<std::uint32_t>(pick);
  credits_.consume(vc);
  LinkTransfer transfer;
  transfer.flit = queues_[vc].front();
  transfer.vc = vc;
  queues_[vc].pop_front();
  if (queues_[vc].empty()) --nonempty_;
  update_ready(vc);
  ++total_sent_;
  // Resume after the connection just served.
  rr_next_ = vc + 1 == vcs() ? 0 : vc + 1;
  return transfer;
}

void Nic::move_queue(std::uint32_t from_vc, std::uint32_t to_vc) {
  MMR_ASSERT(from_vc < vcs());
  MMR_ASSERT(to_vc < vcs());
  if (from_vc == to_vc || queues_[from_vc].empty()) return;
  if (queues_[to_vc].empty()) ++nonempty_;
  for (const Flit& flit : queues_[from_vc]) queues_[to_vc].push_back(flit);
  queues_[from_vc].clear();
  --nonempty_;
  update_ready(from_vc);
  update_ready(to_vc);
}

std::size_t Nic::queued(std::uint32_t vc) const {
  MMR_ASSERT(vc < vcs());
  return queues_[vc].size();
}

void Nic::check_invariants() const {
  std::uint64_t counted = 0;
  std::uint32_t nonempty = 0;
  for (const auto& queue : queues_) {
    counted += queue.size();
    if (!queue.empty()) ++nonempty;
  }
  MMR_ASSERT(counted == total_queued_ - total_sent_);
  MMR_ASSERT(nonempty == nonempty_);
  for (std::uint32_t vc = 0; vc < vcs(); ++vc) {
    MMR_ASSERT_MSG(bits_test(ready_.data(), vc) == sendable(vc),
                   "NIC ready set out of step with queues and credits");
  }
  credits_.check_invariants();
}

void Nic::snap(snapshot::Walker& w) {
  snapshot::walk_vector(w, queues_, [](snapshot::Walker& v,
                                       std::deque<Flit>& q) {
    snapshot::walk_deque(v, q, snap_flit);
  });
  credits_.snap(w);
  snapshot::value(w, rr_next_);
  snapshot::value(w, total_queued_);
  snapshot::value(w, total_sent_);
  snapshot::value(w, nonempty_);
  snapshot::value(w, paused_);
  if (w.loading()) {
    if (rr_next_ >= vcs())
      throw snapshot::SnapshotError("NIC round-robin cursor beyond its VCs");
    ready_.assign(bit_words(vcs()), 0);
    for (std::uint32_t vc = 0; vc < vcs(); ++vc) update_ready(vc);
  }
}

}  // namespace mmr
