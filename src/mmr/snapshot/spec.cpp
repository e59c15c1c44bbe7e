#include "mmr/snapshot/spec.hpp"

#include <stdexcept>
#include <type_traits>

#include "mmr/sim/assert.hpp"
#include "mmr/sim/config.hpp"
#include "mmr/sim/spec_grammar.hpp"
#include "mmr/snapshot/format.hpp"

namespace mmr::snapshot {

SnapSpec SnapSpec::parse(const std::string& spec) {
  SnapSpec parsed;
  opt::Grammar("snap spec", {opt::u64("every", parsed.every),
                             opt::u64("hash_every", parsed.hash_every),
                             opt::text("prefix", parsed.prefix),
                             opt::text("hash_out", parsed.hash_out),
                             opt::text("resume", parsed.resume),
                             opt::flag("crash", parsed.on_crash)})
      .parse(spec);
  parsed.validate();
  return parsed;
}

void SnapSpec::validate() const {
  MMR_ASSERT_MSG(!prefix.empty(), "snap prefix must not be empty");
  MMR_ASSERT_MSG(hash_out.empty() || hash_every > 0,
                 "snap hash_out: needs hash_every:N > 0");
}

namespace {

void fold_bytes(std::uint64_t& hash, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x00000100000001b3ull;
  }
}

template <typename T>
void fold(std::uint64_t& hash, T scalar) {
  static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>,
                "fold structs field-by-field");
  fold_bytes(hash, &scalar, sizeof(scalar));
}

void fold_str(std::uint64_t& hash, const std::string& text) {
  fold(hash, static_cast<std::uint64_t>(text.size()));
  fold_bytes(hash, text.data(), text.size());
}

}  // namespace

std::uint64_t config_digest(const SimConfig& config) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  fold(hash, config.ports);
  fold(hash, config.vcs_per_link);
  fold(hash, config.link_bandwidth_bps);
  fold(hash, config.flit_bits);
  fold(hash, config.phit_bits);
  fold(hash, config.buffer_flits_per_vc);
  fold(hash, config.candidate_levels);
  fold(hash, config.link_latency);
  fold(hash, config.credit_latency);
  fold(hash, config.round_multiple);
  fold(hash, config.concurrency_factor);
  fold(hash, config.priority_scheme);
  fold_str(hash, config.arbiter);
  fold(hash, config.seed);
  fold(hash, config.warmup_cycles);
  fold(hash, config.measure_cycles);
  fold_str(hash, config.fault_spec);
  fold_str(hash, config.police_spec);
  fold_str(hash, config.rogue_spec);
  fold_str(hash, config.flow_spec);
  fold_str(hash, config.trace_spec);
  fold_str(hash, config.qd_spec);
  fold(hash, config.audit_every);
  return hash;
}

void validate_spec(const SimConfig& config) {
  if (config.snap_spec.empty()) return;
  const SnapSpec spec = SnapSpec::parse(config.snap_spec);
  if (spec.resume.empty()) return;
  const Snapshot snapshot = load_file(spec.resume);
  if (snapshot.config_digest != config_digest(config)) {
    throw std::invalid_argument(
        "snapshot " + spec.resume +
        " was captured under a different configuration (config digest "
        "mismatch); resume with the same seed/arbiter/traffic setup");
  }
}

}  // namespace mmr::snapshot
