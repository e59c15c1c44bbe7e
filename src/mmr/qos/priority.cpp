#include "mmr/qos/priority.hpp"

#include <bit>
#include <cmath>

#include "mmr/sim/assert.hpp"

namespace mmr {

namespace {

// Saturation ceiling: far above any realistic bias yet small enough that
// priorities can be added without overflow in diagnostics.
constexpr Priority kPriorityCap = Priority{1} << 48;

}  // namespace

std::uint32_t siabp_shift(std::uint64_t age_router_cycles) {
  // bit_width(0) == 0: a flit that has not waited keeps its initial value.
  return static_cast<std::uint32_t>(std::bit_width(age_router_cycles));
}

Priority siabp_priority(std::uint32_t slots_per_round,
                        std::uint64_t age_router_cycles) {
  MMR_ASSERT(slots_per_round > 0);
  const std::uint32_t shift = siabp_shift(age_router_cycles);
  if (shift >= 48) return kPriorityCap;
  const Priority biased = static_cast<Priority>(slots_per_round) << shift;
  return biased < kPriorityCap ? biased : kPriorityCap;
}

Priority iabp_priority(double iat_router_cycles,
                       std::uint64_t age_router_cycles) {
  MMR_ASSERT(iat_router_cycles > 0.0);
  const double ratio =
      static_cast<double>(age_router_cycles) / iat_router_cycles;
  const double scaled = std::ceil(ratio * 65536.0);
  if (scaled >= static_cast<double>(kPriorityCap)) return kPriorityCap;
  // Floor at 1: an age-0 QoS flit must not tie with priority-0 best-effort
  // traffic in mixed comparisons (SIABP's floor is slots_per_round >= 1).
  return scaled < 1.0 ? Priority{1} : static_cast<Priority>(scaled);
}

Priority PriorityFunction::operator()(const QosParams& qos,
                                      std::uint64_t age_router_cycles) const {
  switch (scheme_) {
    case PriorityScheme::kSiabp:
      return siabp_priority(qos.slots_per_round, age_router_cycles);
    case PriorityScheme::kIabp:
      return iabp_priority(qos.iat_router_cycles, age_router_cycles);
    case PriorityScheme::kFifoAge:
      return age_router_cycles < kPriorityCap
                 ? static_cast<Priority>(age_router_cycles)
                 : kPriorityCap;
    case PriorityScheme::kStatic:
      return qos.slots_per_round;
  }
  MMR_ASSERT_MSG(false, "unreachable priority scheme");
  return 0;
}

std::uint64_t PriorityFunction::group_key(const QosParams& qos) const {
  switch (scheme_) {
    case PriorityScheme::kSiabp:
    case PriorityScheme::kStatic:
      return qos.slots_per_round;
    case PriorityScheme::kIabp:
      return std::bit_cast<std::uint64_t>(qos.iat_router_cycles);
    case PriorityScheme::kFifoAge:
      return 0;
  }
  MMR_ASSERT_MSG(false, "unreachable priority scheme");
  return 0;
}

}  // namespace mmr
