#include "mmr/sim/config.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "mmr/sim/assert.hpp"
#include "mmr/sim/spec_grammar.hpp"

namespace mmr {

const char* to_string(PriorityScheme s) {
  switch (s) {
    case PriorityScheme::kSiabp: return "siabp";
    case PriorityScheme::kIabp: return "iabp";
    case PriorityScheme::kFifoAge: return "fifo-age";
    case PriorityScheme::kStatic: return "static";
  }
  return "?";
}

PriorityScheme priority_scheme_from_string(const std::string& s) {
  if (s == "siabp") return PriorityScheme::kSiabp;
  if (s == "iabp") return PriorityScheme::kIabp;
  if (s == "fifo-age") return PriorityScheme::kFifoAge;
  if (s == "static") return PriorityScheme::kStatic;
  throw std::invalid_argument("unknown priority scheme: " + s +
                              " (expected siabp|iabp|fifo-age|static)");
}

void SimConfig::validate() const {
  MMR_ASSERT_MSG(ports >= 2 && ports <= kMaxPorts,
                 "ports out of range (2..kMaxPorts)");
  MMR_ASSERT_MSG(vcs_per_link >= 1, "need at least one VC per link");
  MMR_ASSERT_MSG(std::isfinite(link_bandwidth_bps) && link_bandwidth_bps > 0.0,
                 "link bandwidth must be finite and positive");
  MMR_ASSERT_MSG(flit_bits > 0 && phit_bits > 0, "flit/phit bits positive");
  MMR_ASSERT_MSG(flit_bits % phit_bits == 0,
                 "flit must be a whole number of phits");
  MMR_ASSERT_MSG(buffer_flits_per_vc >= 1, "VC buffer must hold >= 1 flit");
  MMR_ASSERT_MSG(candidate_levels >= 1, "need >= 1 candidate level");
  MMR_ASSERT_MSG(candidate_levels <= vcs_per_link,
                 "more candidate levels than VCs is meaningless");
  MMR_ASSERT_MSG(candidate_levels <= kMaxCandidateLevels,
                 "candidate levels beyond kMaxCandidateLevels");
  MMR_ASSERT_MSG(round_multiple >= 1, "round must cover every VC");
  MMR_ASSERT_MSG(std::isfinite(concurrency_factor) && concurrency_factor >= 1.0,
                 "concurrency factor must be finite and >= 1");
  MMR_ASSERT_MSG(link_latency <= kMaxLatency && credit_latency <= kMaxLatency,
                 "link/credit latency beyond kMaxLatency");
  MMR_ASSERT_MSG(measure_cycles > 0, "nothing to measure");
}

void SimConfig::validate_network() const {
  validate();
  const auto conflict = [](const std::string& key_value, const char* why) {
    throw std::invalid_argument("error: conflicting keys " + key_value +
                                " with a multi-router network run: " + why);
  };
  // Head words read exactly as MmuSpec::parse and QdSpec::parse read them.
  if (opt::head_word(flow_spec) == "shared") {
    conflict("flow=" + flow_spec,
             "the shared-buffer MMU is a single-router regime and the "
             "network layer supports flow=credit only; drop flow= (or set "
             "flow=credit), or run the single-router simulation");
  }
  if (!qd_spec.empty() && opt::head_word(qd_spec) != "vc") {
    conflict("qd=" + qd_spec,
             "VOQ/CICQ queue disciplines are single-router regimes and the "
             "network layer supports qd=vc only; drop qd= (or set qd=vc), or "
             "run the single-router simulation");
  }
  if (!police_spec.empty()) {
    conflict("police=" + police_spec,
             "injection policing is a single-router regime the network "
             "layer does not run; drop police=, or run the single-router "
             "simulation");
  }
  if (!rogue_spec.empty()) {
    conflict("rogue=" + rogue_spec,
             "rogue sources are a single-router regime the network layer "
             "does not run; drop rogue=, or run the single-router simulation");
  }
  if (audit_every != 0) {
    conflict("audit=" + std::to_string(audit_every),
             "the runtime invariant auditor runs on single-router "
             "simulations only; drop audit=, or run the single-router "
             "simulation");
  }
}

void SimConfig::validate_single_router() const {
  validate();
  if (!fault_spec.empty()) {
    throw std::invalid_argument(
        "error: conflicting keys fault=" + fault_spec +
        " with a single-router run: the fault injector acts on inter-router "
        "channels of a multi-router network; drop fault=, or run a network "
        "simulation (cluster_ring, degraded_ring)");
  }
}

namespace {

/// Largest accepted net_threads: far above any real machine, small enough
/// to catch a mistyped value before it allocates per-shard state.
constexpr std::uint32_t kMaxNetThreads = 4096;

}  // namespace

std::vector<std::string> apply_overrides(
    SimConfig& config, const std::vector<std::string>& overrides) {
  const opt::Field net_threads{"net_threads", [&config](const opt::Token& t) {
    config.net_threads =
        t.value == "hw"
            ? std::max(1u, std::thread::hardware_concurrency())
            : static_cast<std::uint32_t>(t.unsigned_int(
                  {kMaxNetThreads, "kMaxNetThreads, or 'hw'"}));
  }};
  const opt::Limit latency{kMaxLatency, "kMaxLatency, mmr/sim/config.hpp"};
  const opt::Grammar grammar(
      "config",
      {opt::u32("ports", config.ports,
                {kMaxPorts, "kMaxPorts, mmr/sim/config.hpp", 1}),
       opt::u32("vcs", config.vcs_per_link),
       opt::real("link_bps", config.link_bandwidth_bps,
                 {0.0, HUGE_VAL, /*min_open=*/true}),
       opt::u32("flit_bits", config.flit_bits),
       opt::u32("phit_bits", config.phit_bits),
       opt::u32("buffer_flits", config.buffer_flits_per_vc),
       opt::u32("levels", config.candidate_levels,
                {kMaxCandidateLevels, "kMaxCandidateLevels, mmr/sim/config.hpp"}),
       opt::u64("link_latency", config.link_latency, latency),
       opt::u64("credit_latency", config.credit_latency, latency),
       opt::u32("round_multiple", config.round_multiple),
       opt::real("concurrency_factor", config.concurrency_factor, {1.0}),
       opt::choice("priority", config.priority_scheme,
                   {PriorityScheme::kSiabp, PriorityScheme::kIabp,
                    PriorityScheme::kFifoAge, PriorityScheme::kStatic}),
       opt::text("arbiter", config.arbiter),
       opt::u64("seed", config.seed),
       opt::u64("warmup", config.warmup_cycles),
       opt::u64("measure", config.measure_cycles),
       opt::text("fault", config.fault_spec),
       opt::text("flow", config.flow_spec),
       opt::u32("audit", config.audit_every),
       opt::text("police", config.police_spec),
       opt::text("rogue", config.rogue_spec),
       opt::text("trace", config.trace_spec),
       opt::text("snap", config.snap_spec),
       opt::text("qd", config.qd_spec),
       net_threads},
      '=');
  std::vector<std::string> applied;
  for (const std::string& kv : overrides)
    applied.emplace_back(grammar.apply(kv));
  return applied;
}

}  // namespace mmr
