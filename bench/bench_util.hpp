// Shared plumbing for the paper-reproduction bench binaries.
//
// Every bench accepts `key=value` arguments: SimConfig keys (see
// src/mmr/sim/config.hpp) plus the bench keys
//   loads=0.1,0.3,...   sweep points (fractions)
//   arbiters=coa,wfa    arbiters to compare
//   threads=N           parallel sweep workers (0 = hardware)
//   full=1              paper-scale cycle counts (also via MMR_FULL=1)
// A rejected argument prints `error: ...` and exits with status 1.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "mmr/core/experiment.hpp"
#include "mmr/core/report.hpp"
#include "mmr/sim/spec_grammar.hpp"

namespace mmr::bench {

/// Largest accepted threads=: far above any real machine, small enough to
/// catch a mistyped value before the sweep pool sizes itself by it.
inline constexpr std::uint64_t kMaxBenchThreads = 1024;

struct BenchArgs {
  std::vector<double> loads;
  std::vector<std::string> arbiters = {"coa", "wfa"};
  std::size_t threads = 0;
  bool full = false;
  std::vector<std::string> config_overrides;
};

inline std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::istringstream in(text);
  std::string part;
  while (std::getline(in, part, sep)) parts.push_back(part);
  return parts;
}

/// Runs `step`; a rejected argument ends the bench as the examples end:
/// `error: ...` on stderr and exit status 1.
template <typename Fn>
void exit_on_error(Fn&& step) {
  try {
    step();
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    std::cerr << (what.rfind("error:", 0) == 0 ? "" : "error: ") << what
              << '\n';
    std::exit(1);
  }
}

/// threads=: at most kMaxBenchThreads.
inline opt::Field threads_field(std::uint64_t& out) {
  return opt::u64("threads", out,
                  {kMaxBenchThreads, "kMaxBenchThreads, bench/bench_util.hpp"});
}

/// A count that must be at least 1 (gops=, trials=, ports=, ...).
inline constexpr opt::Limit kCount{opt::k32Bit.max, opt::k32Bit.name, 1};

/// A comma-separated list of 32-bit values within `limit`; empty items are
/// skipped.
inline opt::Field u32_list(std::string_view key,
                           std::vector<std::uint32_t>& out,
                           opt::Limit limit = opt::k32Bit) {
  return {key, [&out, limit](const opt::Token& t) {
            out.clear();
            for (const std::string& part : split(std::string(t.value), ',')) {
              if (part.empty()) continue;
              std::uint32_t x = 0;
              opt::u32(t.key, x, limit).apply({t.grammar, t.key, part, t.sep});
              out.push_back(x);
            }
          }};
}

/// A bench's own keys, parsed as the `bench` grammar.  A bad value ends the
/// bench as the examples end: `error: ...` on stderr and exit status 1.
class BenchKeys {
 public:
  explicit BenchKeys(std::vector<opt::Field> fields)
      : grammar_("bench", fields, '=') {
    for (const opt::Field& field : fields) keys_.push_back(field.key);
  }

  /// Applies `arg` if its key is one of these; says whether it was.
  bool take(std::string_view arg) const {
    const std::string_view key = arg.substr(0, arg.find('='));
    if (std::find(keys_.begin(), keys_.end(), key) == keys_.end())
      return false;
    exit_on_error([&] { grammar_.apply(arg); });
    return true;
  }

  /// Applies, and removes from `args`, every argument these keys name.
  void take_from(std::vector<std::string>& args) const {
    std::erase_if(args, [this](const std::string& arg) { return take(arg); });
  }

 private:
  opt::Grammar grammar_;
  std::vector<std::string_view> keys_;
};

inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  if (const char* env = std::getenv("MMR_FULL");
      env != nullptr && std::string(env) == "1") {
    args.full = true;
  }
  const opt::Field loads{"loads", [&args](const opt::Token& t) {
    args.loads.clear();
    for (const std::string& part : split(std::string(t.value), ',')) {
      double load = 0.0;
      opt::real("loads", load, {0.0, std::numeric_limits<double>::max(), true})
          .apply({t.grammar, t.key, part, t.sep});
      args.loads.push_back(load);
    }
  }};
  const opt::Field arbiters{"arbiters", [&args](const opt::Token& t) {
    args.arbiters = split(std::string(t.value), ',');
  }};
  std::uint64_t threads = 0;
  const BenchKeys keys({loads, arbiters, threads_field(threads)});
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (keys.take(arg)) continue;
    if (arg.substr(0, arg.find('=')) == "full") {
      args.full = arg != "full=0";
    } else {
      args.config_overrides.emplace_back(arg);
    }
  }
  args.threads = static_cast<std::size_t>(threads);
  return args;
}

/// Applies run-length presets and user overrides to a config.  Single-router
/// benches reject network-only keys (fault=); `network` benches keep them.
inline void apply_run_scale(SimConfig& config, const BenchArgs& args,
                            Cycle quick_measure, Cycle full_measure,
                            bool network = false) {
  config.warmup_cycles = args.full ? 50'000 : 20'000;
  config.measure_cycles = args.full ? full_measure : quick_measure;
  exit_on_error([&] {
    apply_overrides(config, args.config_overrides);
    if (network) {
      config.validate();
    } else {
      config.validate_single_router();
    }
  });
}

inline void print_header(const std::string& title, const SweepSpec& spec,
                         bool full) {
  std::cout << "==== " << title << " ====\n";
  std::cout << "router " << spec.base.ports << "x" << spec.base.ports << ", "
            << spec.base.vcs_per_link << " VCs/link, "
            << spec.base.candidate_levels << " candidate levels, "
            << to_string(spec.base.priority_scheme) << " priorities, "
            << (spec.base.link_bandwidth_bps / 1e9) << " Gbps links, "
            << spec.base.flit_bits << "-bit flits\n";
  std::cout << "cycles: " << spec.base.warmup_cycles << " warmup + "
            << spec.base.measure_cycles << " measured ("
            << (full ? "full/paper scale" : "quick preset; MMR_FULL=1 for "
                                            "paper scale")
            << ")\n\n";
}

inline void print_csv_block(const std::vector<SweepPoint>& points,
                            const std::vector<std::pair<std::string,
                                                        MetricExtractor>>&
                                extractors) {
  std::cout << "\n--- CSV ---\n";
  write_sweep_csv(std::cout, points, extractors);
  std::cout << "--- end CSV ---\n";
}

}  // namespace mmr::bench
