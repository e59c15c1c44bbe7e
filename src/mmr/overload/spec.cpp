#include "mmr/overload/spec.hpp"

#include <cmath>

#include "mmr/sim/assert.hpp"
#include "mmr/sim/spec_grammar.hpp"

namespace mmr::overload {

const char* to_string(OverloadPolicy p) {
  switch (p) {
    case OverloadPolicy::kDrop: return "drop";
    case OverloadPolicy::kShape: return "shape";
    case OverloadPolicy::kDemote: return "demote";
  }
  return "?";
}

const char* to_string(RogueSpec::Classes c) {
  switch (c) {
    case RogueSpec::Classes::kAny: return "any";
    case RogueSpec::Classes::kCbrOnly: return "cbr";
    case RogueSpec::Classes::kVbrOnly: return "vbr";
  }
  return "?";
}

PoliceSpec PoliceSpec::parse(const std::string& spec) {
  PoliceSpec parsed;
  opt::Grammar("police spec",
               {opt::real("burst", parsed.burst_rounds),
                opt::real("vbr_burst", parsed.vbr_burst_rounds),
                opt::u32("penalty", parsed.penalty_flits),
                opt::real("deadline", parsed.qos_deadline_cycles),
                opt::u64("wd_window", parsed.wd_window),
                opt::real("wd_alpha", parsed.wd_alpha),
                opt::real("wd_high", parsed.wd_high),
                opt::real("wd_low", parsed.wd_low),
                opt::u32("wd_escalate", parsed.wd_escalate_after),
                opt::u32("wd_recover", parsed.wd_recover_after),
                opt::u64("wd_pause_limit", parsed.wd_pause_limit)})
      .head(parsed.policy,
            {OverloadPolicy::kDrop, OverloadPolicy::kShape,
             OverloadPolicy::kDemote},
            /*leading=*/false)
      .parse(spec);
  parsed.validate();
  return parsed;
}

void PoliceSpec::validate() const {
  MMR_ASSERT_MSG(std::isfinite(burst_rounds) && burst_rounds > 0.0,
                 "police burst depth must be positive");
  MMR_ASSERT_MSG(std::isfinite(vbr_burst_rounds) && vbr_burst_rounds > 0.0,
                 "police VBR burst depth must be positive");
  MMR_ASSERT_MSG(penalty_flits >= 1, "shape penalty queue must hold >= 1 flit");
  MMR_ASSERT_MSG(
      std::isfinite(qos_deadline_cycles) && qos_deadline_cycles > 0.0,
      "QoS deadline must be positive");
  MMR_ASSERT_MSG(std::isfinite(wd_alpha) && wd_alpha > 0.0 && wd_alpha <= 1.0,
                 "watchdog EWMA alpha must be in (0, 1]");
  MMR_ASSERT_MSG(std::isfinite(wd_high) && std::isfinite(wd_low) &&
                     wd_low >= 0.0 && wd_high > wd_low,
                 "watchdog watermarks need wd_high > wd_low >= 0 (hysteresis)");
  MMR_ASSERT_MSG(wd_window == 0 || (wd_escalate_after >= 1 &&
                                    wd_recover_after >= 1),
                 "watchdog escalate/recover window counts must be >= 1");
}

RogueSpec RogueSpec::parse(const std::string& spec) {
  RogueSpec parsed;
  opt::Grammar("rogue spec",
               {opt::real("frac", parsed.fraction),
                opt::u32("count", parsed.count),
                opt::real("scale", parsed.scale),
                opt::real("burst_scale", parsed.burst_scale),
                opt::u64("burst_period", parsed.burst_period),
                opt::u64("burst_len", parsed.burst_len),
                opt::u64("seed", parsed.seed),
                opt::choice("class", parsed.classes,
                            {Classes::kAny, Classes::kCbrOnly,
                             Classes::kVbrOnly})})
      .parse(spec);
  parsed.validate();
  return parsed;
}

void RogueSpec::validate() const {
  MMR_ASSERT_MSG(std::isfinite(fraction) && fraction >= 0.0 && fraction <= 1.0,
                 "rogue fraction must be in [0, 1]");
  MMR_ASSERT_MSG(std::isfinite(scale) && scale >= 1.0,
                 "rogue scale must be >= 1 (1 = compliant)");
  MMR_ASSERT_MSG(std::isfinite(burst_scale) && burst_scale >= 1.0,
                 "rogue burst scale must be >= 1");
  MMR_ASSERT_MSG(burst_period == 0 || burst_len <= burst_period,
                 "rogue burst window longer than its period");
  MMR_ASSERT_MSG(burst_scale == 1.0 || burst_period > 0,
                 "rogue burst scale needs a burst_period");
}

}  // namespace mmr::overload
