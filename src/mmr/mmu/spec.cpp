#include "mmr/mmu/spec.hpp"

#include <cmath>
#include <stdexcept>

#include "mmr/sim/assert.hpp"
#include "mmr/sim/spec_grammar.hpp"

namespace mmr::mmu {

const char* to_string(FlowMode m) {
  switch (m) {
    case FlowMode::kCredit: return "credit";
    case FlowMode::kShared: return "shared";
  }
  return "?";
}

MmuSpec MmuSpec::parse(const std::string& spec) {
  MmuSpec out;
  opt::Grammar("flow spec",
               {opt::u64("pool", out.pool_flits),
                opt::u32("reserved", out.reserved_per_class),
                opt::u32("headroom", out.headroom_flits),
                opt::real("alpha", out.alpha),
                opt::real("alpha_be", out.alpha_be),
                opt::u32("xoff", out.xoff_flits),
                opt::u32("xon", out.xon_flits),
                opt::flag("ecn", out.ecn),
                opt::u64("kmin", out.ecn_kmin),
                opt::u64("kmax", out.ecn_kmax),
                opt::real("pmax", out.ecn_pmax),
                opt::real("ecn_cut", out.ecn_cut),
                opt::real("ecn_floor", out.ecn_floor),
                opt::u64("ecn_recover", out.ecn_recover),
                opt::real("ecn_step", out.ecn_step),
                opt::u64("sample", out.sample_every)})
      .head(out.mode, {FlowMode::kCredit, FlowMode::kShared}, /*leading=*/true)
      .parse(spec);
  if (out.mode == FlowMode::kCredit &&
      (out.pool_flits != 0 || out.xoff_flits != 0))
    throw std::invalid_argument(
        "flow spec: pool/pause keys are meaningless under flow=credit");
  return out;
}

MmuSpec MmuSpec::resolve(const SimConfig& config) const {
  MMR_ASSERT_MSG(mode == FlowMode::kShared,
                 "only the shared regime has derivable pool geometry");
  MmuSpec r = *this;
  if (r.pool_flits == 0) r.pool_flits = 48ull * config.ports;
  if (r.headroom_flits == 0) {
    // Worst case between the Xoff decision and the NIC observing it: the
    // pause frame propagates for credit_latency cycles (the NIC sends one
    // flit per cycle meanwhile), link_latency flits are already on the
    // wire, plus slack for the same-cycle arrival that triggered the pause.
    r.headroom_flits = static_cast<std::uint32_t>(config.credit_latency +
                                                  config.link_latency + 2);
  }
  if (r.xoff_flits == 0) {
    const std::uint64_t half_share = r.pool_flits / (2ull * config.ports);
    r.xoff_flits = static_cast<std::uint32_t>(half_share < 8 ? 8 : half_share);
  }
  if (r.xon_flits == 0) r.xon_flits = r.xoff_flits / 2;
  if (r.ecn_kmin == 0) r.ecn_kmin = r.pool_flits / 8;
  if (r.ecn_kmax == 0) r.ecn_kmax = r.pool_flits / 2;
  r.validate();
  return r;
}

std::uint32_t MmuSpec::vc_slots() const {
  const std::uint64_t port_allowance = 3ull * reserved_per_class + pool_flits +
                                       headroom_flits;
  MMR_ASSERT_MSG(port_allowance <= ~std::uint32_t{0},
                 "shared pool too large for 32-bit credit accounting");
  return static_cast<std::uint32_t>(port_allowance);
}

void MmuSpec::validate() const {
  if (mode == FlowMode::kCredit) return;
  MMR_ASSERT_MSG(pool_flits >= 1, "shared pool must hold at least one flit");
  MMR_ASSERT_MSG(headroom_flits >= 1,
                 "headroom must absorb at least one in-flight flit");
  MMR_ASSERT_MSG(std::isfinite(alpha) && alpha > 0.0 &&
                     std::isfinite(alpha_be) && alpha_be > 0.0,
                 "dynamic-threshold alphas must be positive");
  MMR_ASSERT_MSG(xon_flits < xoff_flits,
                 "Xon must sit strictly below Xoff (hysteresis)");
  MMR_ASSERT_MSG(ecn_kmin < ecn_kmax, "ECN needs kmin < kmax");
  MMR_ASSERT_MSG(ecn_pmax > 0.0 && ecn_pmax <= 1.0,
                 "ECN pmax must be in (0, 1]");
  MMR_ASSERT_MSG(ecn_cut > 0.0 && ecn_cut < 1.0,
                 "ECN cut must be a fraction in (0, 1)");
  MMR_ASSERT_MSG(ecn_floor > 0.0 && ecn_floor <= 1.0,
                 "ECN floor must be in (0, 1]");
  MMR_ASSERT_MSG(ecn_step > 0.0, "ECN recovery step must be positive");
  MMR_ASSERT_MSG(sample_every >= 1, "occupancy sample period must be >= 1");
}

}  // namespace mmr::mmu
