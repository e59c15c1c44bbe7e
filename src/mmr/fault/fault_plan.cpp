#include "mmr/fault/fault_plan.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>

#include "mmr/sim/assert.hpp"
#include "mmr/sim/spec_grammar.hpp"

namespace mmr {

bool FaultPlan::empty() const {
  if (!down_windows.empty()) return false;
  if (default_rates.any()) return false;
  for (const auto& [channel, rates] : channel_rates) {
    (void)channel;
    if (rates.any()) return false;
  }
  return true;
}

ChannelFaultRates FaultPlan::rates_for(std::uint32_t channel) const {
  ChannelFaultRates rates = default_rates;
  for (const auto& [ch, override_rates] : channel_rates) {
    if (ch == channel) rates = override_rates;
  }
  return rates;
}

namespace {

void validate_rates(const ChannelFaultRates& rates) {
  auto probability = [](double p) { return p >= 0.0 && p <= 1.0; };
  MMR_ASSERT_MSG(probability(rates.drop_probability),
                 "drop probability must be in [0, 1]");
  MMR_ASSERT_MSG(probability(rates.corrupt_probability),
                 "corrupt probability must be in [0, 1]");
  MMR_ASSERT_MSG(probability(rates.credit_loss_probability),
                 "credit-loss probability must be in [0, 1]");
}

}  // namespace

void FaultPlan::validate(std::uint32_t channels) const {
  validate_rates(default_rates);
  for (const auto& [channel, rates] : channel_rates) {
    MMR_ASSERT_MSG(channel < channels, "rate override on unknown channel");
    validate_rates(rates);
  }
  // Windows: in range, non-empty, non-overlapping per channel.
  std::map<std::uint32_t, std::vector<LinkDownWindow>> per_channel;
  for (const LinkDownWindow& w : down_windows) {
    MMR_ASSERT_MSG(w.channel < channels, "down window on unknown channel");
    MMR_ASSERT_MSG(w.down_at < w.up_at, "down window must have down_at < up_at");
    per_channel[w.channel].push_back(w);
  }
  for (auto& [channel, windows] : per_channel) {
    (void)channel;
    std::sort(windows.begin(), windows.end(),
              [](const LinkDownWindow& a, const LinkDownWindow& b) {
                return a.down_at < b.down_at;
              });
    for (std::size_t i = 0; i + 1 < windows.size(); ++i) {
      MMR_ASSERT_MSG(windows[i].up_at <= windows[i + 1].down_at,
                     "down windows on one channel must not overlap");
    }
  }
  MMR_ASSERT_MSG(resync_period >= 1, "resync period must be >= 1 cycle");
  MMR_ASSERT_MSG(qos_deadline_cycles > 0.0, "QoS deadline must be positive");
}

namespace {

/// The multi-value `down:CH:FROM:TO` token: three ':'-separated integers.
LinkDownWindow down_window(const opt::Token& token) {
  std::array<std::uint64_t, 3> n{};
  opt::Token part = token;
  std::string_view rest = token.value;
  for (std::size_t i = 0; i < n.size(); ++i) {
    const std::size_t colon = rest.find(':');
    if ((colon == std::string_view::npos) != (i + 1 == n.size()))
      token.fail("must be down:CH:FROM:TO");
    part.value = rest.substr(0, colon);
    n[i] = part.unsigned_int(i == 0 ? opt::k32Bit : opt::Limit{});
    rest.remove_prefix(std::min(colon + 1, rest.size()));
  }
  return {static_cast<std::uint32_t>(n[0]), n[1], n[2]};
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  if (spec.empty()) return plan;
  constexpr opt::Range kProbability{0.0, 1.0};
  ChannelFaultRates& rates = plan.default_rates;
  opt::Grammar(
      "fault spec",
      {opt::real("drop", rates.drop_probability, kProbability),
       opt::real("corrupt", rates.corrupt_probability, kProbability),
       opt::real("credit_loss", rates.credit_loss_probability, kProbability),
       {"down",
        [&plan](const opt::Token& t) {
          plan.down_windows.push_back(down_window(t));
        }},
       opt::u64("resync_period", plan.resync_period),
       opt::u64("resync_timeout", plan.resync_timeout),
       opt::real("deadline", plan.qos_deadline_cycles,
                 {0.0, HUGE_VAL, /*min_open=*/true}),
       opt::u64("seed", plan.seed)})
      .parse(spec);
  return plan;
}

FaultPlan FaultPlan::random_windows(std::uint32_t channels, std::uint32_t count,
                                    Cycle horizon_begin, Cycle horizon_end,
                                    Cycle min_len, Cycle max_len, Rng& rng) {
  MMR_ASSERT(channels > 0);
  MMR_ASSERT(min_len >= 1 && min_len <= max_len);
  MMR_ASSERT(horizon_begin + max_len < horizon_end);
  FaultPlan plan;
  // Per-channel cursor keeps windows on one channel disjoint by placing them
  // in increasing time order.
  std::vector<Cycle> cursor(channels, horizon_begin);
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto channel = static_cast<std::uint32_t>(rng.uniform(channels));
    const Cycle len = min_len + rng.uniform(max_len - min_len + 1);
    if (cursor[channel] + len >= horizon_end) continue;  // channel is full
    const Cycle slack = horizon_end - cursor[channel] - len;
    const Cycle start = cursor[channel] + rng.uniform(slack);
    plan.down_windows.push_back({channel, start, start + len});
    cursor[channel] = start + len;
  }
  return plan;
}

}  // namespace mmr
