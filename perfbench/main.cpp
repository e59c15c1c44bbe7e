// The repository benchmark driver: runs one workload for a fixed host-time
// budget and prints its metrics.
//
//   perfbench_main --workload NAME --seed N --seconds S --trace 0|1 [--tiny]
//
// A run repeats the workload's closed batch of simulations ("a round")
// until S seconds have passed.  Every round rebuilds its inputs from the
// seed, so every round does identical work, and every metric is a median
// over rounds.
//
// --trace 0 reports the end-to-end metrics: simulated router-cycles per
// second, over all runs and over the saturated ones, set-up time and peak
// memory.  Their seconds are reference seconds (see HostReference): host
// time divided by the host's speed, measured beside every round.
// --trace 1 alternates untraced rounds with traced rounds, in which a
// PerfProbe is armed around run(), and reports the per-layer split of host
// time plus the probes' own overhead; on torus-fabric every traced
// round also times the sharded network engine against the serial one.  The
// traced rounds record a span around every call into the simulator and
// write them, as JSON lines, to spans/<workload>-seed<N>.jsonl under the
// working directory when the benchmark ends.
//
// Correctness: a run fails when it throws, when its own conservation check
// fails, when its final state_hash() differs from the first untraced run of
// the same point (probes and engine width must not touch state), or, on
// incast-shared, when the MMU dropped a lossless flit.  check_invariants()
// aborts the process on a violation.  The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "workloads.hpp"

namespace perfbench {
namespace {

using mmr::perf::Counter;
using mmr::perf::Phase;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 25.0;
  bool trace = false;
  bool tiny = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_main: " << why
            << "\nusage: perfbench_main --workload NAME --seed N --seconds S "
               "--trace 0|1 [--tiny]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::string label(const PointSpec& point) {
  std::ostringstream out;
  out << point.arbiter << '@' << point.load << '#' << point.replication;
  if (point.net_threads != 0) out << "/net_threads=" << point.net_threads;
  return out.str();
}

/// The simulator layer each probe phase belongs to (src/mmr/ module names).
const char* layer_of(Phase phase) {
  switch (phase) {
    case Phase::kTraffic: return "traffic";
    case Phase::kLinkSchedule: return "router.link_schedule";
    case Phase::kArbitration: return "arbiter";
    case Phase::kCrossbar: return "router.crossbar";
    case Phase::kCredits: return "router.credits";
    case Phase::kMetrics: return "core.metrics";
    case Phase::kOther: return "other";
  }
  return "?";
}

/// The host's speed, as the host time of one reference second.
///
/// The shared host the benchmark was tuned on slows by up to 2x in spells
/// of seconds to minutes as co-tenants load its caches and memory, and
/// the simulator slows with it: rounds of one workload in one process
/// spread by 20-30 %.  Random read-modify-writes over an 8 MiB table (four
/// times a core's L2, so they run from the shared L3) slow in step.  After
/// every 100 ms or so of benchmark work, and at the end of every round, a
/// batch of them runs for about a tenth of that work's time, and the
/// end-to-end metrics count each round's host time in reference seconds at
/// the speed its batches measured.  One reference second is the host time
/// of 2^27 iterations, about one second on that host in a quiet spell.
/// The kernel is benchmark code, and a sequential pass over the table
/// before each batch brings it back into the caches whatever ran before,
/// so a change to the simulator moves the metrics in full.
class HostReference {
  static constexpr std::size_t kWords = std::size_t{1} << 21;
  static constexpr double kIterationsPerSecond = 134217728.0;  // 2^27
  static constexpr std::uint64_t kSpanNs = 100'000'000;
  // About 8 ns per iteration: a batch lasts about a tenth of its span.
  static constexpr std::uint64_t kBusyNsPerIteration = 80;
  static constexpr std::uint64_t kMinIterations = 1 << 16;

 public:
  /// Resident size of the table, which peak_rss_mb leaves out.
  static constexpr double kTableMib =
      static_cast<double>(kWords * sizeof(std::uint32_t)) / (1 << 20);

  /// Allocates and touches the whole table.
  HostReference() : table_(kWords) {}

  /// Notes `busy_ns` of benchmark work just done; times a batch once a
  /// span's worth has gathered.
  void after(std::uint64_t busy_ns) {
    pending_ns_ += busy_ns;
    if (pending_ns_ >= kSpanNs) measure();
  }

  /// Host seconds one reference second took over the batches since the
  /// last call (timing one for the work not yet covered); starts the next
  /// interval.
  double second_s() {
    if (pending_ns_ != 0 || iterations_ == 0) measure();
    const double s = static_cast<double>(elapsed_ns_) / 1e9 *
                     kIterationsPerSecond / static_cast<double>(iterations_);
    elapsed_ns_ = 0;
    iterations_ = 0;
    return s;
  }

 private:
  void measure() {
    std::uint64_t acc = 0;
    for (const std::uint32_t word : table_) acc += word;
    const std::uint64_t iterations =
        std::max(kMinIterations, pending_ns_ / kBusyNsPerIteration);
    const std::uint64_t start = mmr::perf::now_ns();
    for (std::uint64_t i = 0; i < iterations; ++i) {
      state_ ^= state_ << 13;
      state_ ^= state_ >> 7;
      state_ ^= state_ << 17;
      std::uint32_t& word = table_[state_ & (kWords - 1)];
      word += static_cast<std::uint32_t>(state_);
      acc += word;
    }
    elapsed_ns_ += mmr::perf::now_ns() - start;
    iterations_ += iterations;
    pending_ns_ = 0;
    sink_ = acc;
  }

  std::vector<std::uint32_t> table_;
  std::uint64_t state_ = 88172645463325252ull;  ///< xorshift64 address stream
  std::uint64_t pending_ns_ = 0;  ///< work since the last batch
  std::uint64_t elapsed_ns_ = 0;  ///< batch time since the last second_s()
  std::uint64_t iterations_ = 0;
  volatile std::uint64_t sink_ = 0;  ///< keeps the batches from being elided
};

/// Peak resident set of this process, from /proc (0 when unavailable).
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

/// In-memory span log of the traced rounds, written out at exit.
class SpanLog {
 public:
  /// Records one point's calls as a "point" span with one child per call
  /// and the probe's phase totals as children of the "run" span.
  void add(std::size_t round, const PointSpec& point, const RunRecord& r) {
    const Call whole{r.workload.start_ns, r.hash.end_ns};
    const std::size_t root = push("point", kNoParent, whole, round, point);
    push("setup.workload", root, r.workload, round, point);
    if (r.routing.end_ns != 0)
      push("network.routing", root, r.routing, round, point);
    push("setup.construct", root, r.construct, round, point);
    const std::size_t run = push("run", root, r.run, round, point);
    push("check_invariants", root, r.invariants, round, point);
    push("snapshot.state_hash", root, r.hash, round, point);
    for (std::size_t p = 0; p < mmr::perf::kPhaseCount; ++p) {
      const auto phase = static_cast<Phase>(p);
      if (r.probe.phase_calls(phase) == 0) continue;
      totals_.push_back({layer_of(phase), run, r.probe.phase_ns(phase),
                         r.probe.phase_calls(phase)});
    }
  }

  void write(const std::filesystem::path& path) const {
    std::error_code error;
    std::filesystem::create_directories(path.parent_path(), error);
    std::ofstream out(path);
    if (!out) {
      std::cerr << "perfbench_main: cannot write spans to " << path << '\n';
      return;
    }
    for (std::size_t id = 0; id < spans_.size(); ++id) {
      const Span& s = spans_[id];
      out << "{\"id\":" << id << ",\"name\":\"" << s.name << "\",\"parent\":";
      if (s.parent == kNoParent) {
        out << "null";
      } else {
        out << s.parent;
      }
      out << ",\"start_ns\":" << s.call.start_ns
          << ",\"end_ns\":" << s.call.end_ns << ",\"round\":" << s.round
          << ",\"point\":\"" << s.point << "\"}\n";
    }
    for (const Total& t : totals_) {
      out << "{\"name\":\"" << t.name << "\",\"parent\":" << t.parent
          << ",\"total_ns\":" << t.ns << ",\"calls\":" << t.calls << "}\n";
    }
  }

 private:
  static constexpr std::size_t kNoParent = ~std::size_t{0};
  struct Span {
    const char* name;
    std::size_t parent;
    Call call;
    std::size_t round;
    std::string point;
  };
  struct Total {
    const char* name;
    std::size_t parent;
    std::uint64_t ns;
    std::uint64_t calls;
  };

  std::size_t push(const char* name, std::size_t parent, Call call,
                   std::size_t round, const PointSpec& point) {
    spans_.push_back({name, parent, call, round, label(point)});
    return spans_.size() - 1;
  }

  std::vector<Span> spans_;
  std::vector<Total> totals_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The benchmark run: rounds, correctness bookkeeping and metric assembly.
/// Every round after the first is reduced to a few numbers as soon as it
/// ends, so the process's memory does not grow with the number of rounds.
class Bench {
 public:
  Bench(const Args& args, std::unique_ptr<Workload> workload)
      : args_(args), workload_(std::move(workload)) {}

  int execute() {
    const std::uint64_t budget_ns =
        static_cast<std::uint64_t>(args_.seconds * 1e9);
    const std::uint64_t start = mmr::perf::now_ns();
    // At least three untraced rounds (for the medians), and in a traced
    // run at least two traced rounds, alternating with untraced ones.
    while (untraced_run_s_.size() < 3 ||
           (args_.trace && traced_run_s_.size() < 2) ||
           mmr::perf::now_ns() - start < budget_ns) {
      round(args_.trace &&
            traced_run_s_.size() + 3 <= untraced_run_s_.size());
    }

    print_failures();
    print_report(args_.trace ? per_layer_metrics() : end_to_end_metrics());
    if (args_.trace) {
      spans_.write(std::filesystem::path("spans") /
                   (workload_->name() + "-seed" + std::to_string(args_.seed) +
                    ".jsonl"));
    }
    return 0;
  }

 private:
  using Round = std::vector<RunRecord>;

  /// Sum of f(run) over a round's runs.
  template <typename F>
  static double sum(const Round& r, F&& f) {
    double total = 0.0;
    for (const RunRecord& x : r) total += static_cast<double>(f(x));
    return total;
  }

  /// A sweep round as its cells: the replications of each (arbiter, load)
  /// merged as run_sweep merges them.
  std::vector<mmr::SweepPoint> sweep_cells(const Round& r) const {
    const std::vector<PointSpec>& points = workload_->points();
    std::map<std::pair<std::string, double>,
             std::vector<mmr::SimulationMetrics>>
        cells;
    for (std::size_t i = 0; i < points.size(); ++i)
      cells[{points[i].arbiter, points[i].load}].push_back(r[i].metrics);
    std::vector<mmr::SweepPoint> sweep;
    for (const auto& [key, runs] : cells)
      sweep.push_back({key.second, key.first, mmr::merge_runs(runs)});
    return sweep;
  }

  static double run_s(const RunRecord& x) {
    return static_cast<double>(x.run.ns()) / 1e9;
  }

  /// Runs every point once, checks each run against the first round and
  /// folds the round into the statistics.
  void round(bool traced) {
    const std::vector<PointSpec>& points = workload_->points();
    const bool first = first_.empty();
    Round records;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const std::uint64_t start = mmr::perf::now_ns();
      RunRecord record = attempt(points[i], traced);
      reference_.after(mmr::perf::now_ns() - start);
      if (!first && record.failure.empty() &&
          record.state_hash != first_[i].state_hash) {
        record.failure = std::string("state hash differs from the first ") +
                         "untraced run" + (traced ? " (probes armed)" : "");
      }
      note_failure(points[i], record);
      if (traced) spans_.add(traced_run_s_.size(), points[i], record);
      records.push_back(std::move(record));
    }
    const double ref_s = reference_.second_s();
    ref_second_s_.push_back(ref_s);

    if (traced) {
      layer_rounds_.push_back(layer_split(records));
      traced_run_s_.push_back(sum(records, run_s) / ref_s);
      if (workload_->is_network()) shard_round();
      return;
    }
    serial_front_s_ = run_s(records.front());
    setup_s_.push_back(sum(records, [](const RunRecord& x) {
      return static_cast<double>(x.workload.ns() + x.construct.ns()) / 1e9;
    }) / ref_s);
    untraced_run_s_.push_back(sum(records, run_s) / ref_s);
    rate_.push_back(cycle_rate(records, false) * ref_s);
    sat_rate_.push_back(cycle_rate(records, true) * ref_s);
    if (first) first_ = std::move(records);
  }

  RunRecord attempt(const PointSpec& point, bool traced) {
    ++attempted_;
    RunRecord record;
    try {
      record = workload_->run(point, traced);
    } catch (const std::exception& error) {
      record.failure = std::string("threw: ") + error.what();
    }
    if (record.failure.empty() && record.mmu_drops_lossless != 0) {
      record.failure = std::to_string(record.mmu_drops_lossless) +
                       " lossless flits dropped by the MMU";
    }
    return record;
  }

  void note_failure(const PointSpec& point, const RunRecord& record) {
    if (!record.failure.empty())
      failures_.push_back(label(point) + ": " + record.failure);
  }

  /// torus-fabric only, once per traced round: the first point on the
  /// sharded engine at 2 and at nproc workers, each against the serial run
  /// of the untraced round before it.
  void shard_round() {
    const std::uint32_t n = std::max(2u, std::thread::hardware_concurrency());
    shard_width_n_ = n;
    for (const std::uint32_t threads : {2u, n}) {
      PointSpec point = workload_->points().front();
      point.net_threads = threads;
      RunRecord record = attempt(point, false);
      if (record.failure.empty() &&
          record.state_hash != first_.front().state_hash) {
        record.failure = "state hash differs from the serial engine";
      }
      note_failure(point, record);
      const double sharded_s = run_s(record);
      (threads == 2 ? shard_speedup_2_ : shard_speedup_n_)
          .push_back(sharded_s == 0.0 ? 0.0 : serial_front_s_ / sharded_s);
    }
  }

  /// Router-cycles per host second of run() over a round's runs, or over
  /// its saturated runs only.  A workload with no saturated run
  /// (torus-fabric) reports the rate of all its runs as its saturated rate;
  /// the report says how many saturated.
  static double cycle_rate(const Round& r, bool saturated_only) {
    const bool any_saturated =
        std::any_of(r.begin(), r.end(),
                    [](const RunRecord& x) { return x.saturated; });
    double cycles = 0.0;
    double ns = 0.0;
    for (const RunRecord& x : r) {
      if (saturated_only && any_saturated && !x.saturated) continue;
      cycles += static_cast<double>(x.router_cycles);
      ns += static_cast<double>(x.run.ns());
    }
    return ns == 0.0 ? 0.0 : cycles * 1e9 / ns;
  }

  [[nodiscard]] std::size_t saturated_runs() const {
    std::size_t n = 0;
    for (const RunRecord& record : first_) n += record.saturated;
    return n;
  }

  std::vector<Metric> end_to_end_metrics() const {
    return {
        {"router_cycles_per_s", median(rate_), "router-cycles/s"},
        {"sat_router_cycles_per_s", median(sat_rate_), "router-cycles/s"},
        {"setup_s", median(setup_s_), "s"},
        {"peak_rss_mb", peak_rss_mib() - HostReference::kTableMib, "MiB"},
    };
  }

  /// Medians over the traced rounds of each round's layer split, then the
  /// readouts measured across rounds.
  std::vector<Metric> per_layer_metrics() const {
    std::vector<Metric> metrics = layer_rounds_.front();
    for (std::size_t m = 0; m < metrics.size(); ++m) {
      std::vector<double> values;
      for (const std::vector<Metric>& r : layer_rounds_)
        values.push_back(r[m].value);
      metrics[m].value = median(values);
    }
    const double untraced_s = median(untraced_run_s_);
    metrics.push_back(
        {"network.shard_speedup_2", median(shard_speedup_2_), "x"});
    metrics.push_back(
        {"network.shard_speedup_n", median(shard_speedup_n_), "x"});
    metrics.push_back(
        {"bench.probe_overhead",
         untraced_s == 0.0 ? 0.0 : median(traced_run_s_) / untraced_s - 1.0,
         "ratio"});
    return metrics;
  }

  /// One traced round's split of host time and work by layer: sums over
  /// the round's runs, per-run means and ratios of sums.
  static std::vector<Metric> layer_split(const Round& r) {
    const auto total = [&r](auto f) { return sum(r, f); };
    const auto mean = [&r](auto f) {
      return sum(r, f) / static_cast<double>(r.size());
    };
    const auto ratio = [&r](auto num, auto den) {
      const double d = sum(r, den);
      return d == 0.0 ? 0.0 : sum(r, num) / d;
    };
    const auto field = [](auto member) {
      return [member](const RunRecord& x) { return x.*member; };
    };
    const auto seconds = [](Call RunRecord::*call) {
      return [call](const RunRecord& x) {
        return static_cast<double>((x.*call).ns()) / 1e9;
      };
    };
    const auto phase_s = [](Phase phase) {
      return [phase](const RunRecord& x) {
        return static_cast<double>(x.probe.phase_ns(phase)) / 1e9;
      };
    };
    const auto phase_ns = [](Phase phase) {
      return [phase](const RunRecord& x) { return x.probe.phase_ns(phase); };
    };
    const auto calls = [](Phase phase) {
      return [phase](const RunRecord& x) { return x.probe.phase_calls(phase); };
    };
    const auto count = [](Counter counter) {
      return [counter](const RunRecord& x) { return x.probe.count(counter); };
    };
    const auto unattributed_s = [](const RunRecord& x) {
      return (static_cast<double>(x.run.ns()) -
              static_cast<double>(x.probe.attributed_ns())) /
             1e9;
    };

    return {
        {"router.credits.self_s", total(phase_s(Phase::kCredits)), "s"},
        {"router.credits.ns_per_cycle",
         ratio(phase_ns(Phase::kCredits), field(&RunRecord::router_cycles)),
         "ns/router-cycle"},
        {"router.link_schedule.self_s", total(phase_s(Phase::kLinkSchedule)),
         "s"},
        {"router.link_schedule.ns_per_call",
         ratio(phase_ns(Phase::kLinkSchedule), calls(Phase::kLinkSchedule)),
         "ns/call"},
        {"arbiter.self_s", total(phase_s(Phase::kArbitration)), "s"},
        {"arbiter.ns_per_call",
         ratio(phase_ns(Phase::kArbitration), calls(Phase::kArbitration)),
         "ns/call"},
        {"arbiter.mean_matching_size",
         mean(field(&RunRecord::mean_matching_size)), "pairs"},
        {"router.crossbar.utilization",
         mean(field(&RunRecord::crossbar_utilization)), "fraction"},
        {"router.crossbar.self_s", total(phase_s(Phase::kCrossbar)), "s"},
        {"traffic.self_s", total(phase_s(Phase::kTraffic)), "s"},
        {"traffic.ns_per_flit",
         ratio(phase_ns(Phase::kTraffic), field(&RunRecord::flits_injected)),
         "ns/flit"},
        {"core.metrics.self_s", total(phase_s(Phase::kMetrics)), "s"},
        {"unattributed.self_s", total(unattributed_s), "s"},
        {"network.hops_mean", mean(field(&RunRecord::hops_mean)), "hops"},
        {"network.routing_s", total(seconds(&RunRecord::routing)), "s"},
        {"setup.workload_s", total(seconds(&RunRecord::workload)), "s"},
        {"setup.construct_s", total(seconds(&RunRecord::construct)), "s"},
        {"mmu.pause_events", total(field(&RunRecord::mmu_pause_events)),
         "count"},
        {"mmu.ecn_marked", total(field(&RunRecord::mmu_ecn_marked)), "count"},
        {"mmu.drops_lossy", total(field(&RunRecord::mmu_drops_lossy)),
         "count"},
        {"mmu.drops_lossless", total(field(&RunRecord::mmu_drops_lossless)),
         "count"},
        {"overload.policed", total(field(&RunRecord::policed)), "count"},
        {"overload.watchdog_escalations",
         total(field(&RunRecord::watchdog_escalations)), "count"},
        {"core.backlog_flits", total(field(&RunRecord::backlog_flits)),
         "flits"},
        {"alloc.candidate_realloc", total(count(Counter::kCandidateRealloc)),
         "count"},
        {"alloc.scratch_realloc", total(count(Counter::kScratchRealloc)),
         "count"},
        {"alloc.departure_realloc", total(count(Counter::kDepartureRealloc)),
         "count"},
        {"alloc.matching_alloc", total(count(Counter::kMatchingAlloc)),
         "count"},
        {"snapshot.state_hash_s", total(seconds(&RunRecord::hash)), "s"},
    };
  }

  void print_failures() const {
    for (const std::string& failure : failures_)
      std::cout << "FAILED " << failure << '\n';
  }

  /// The accuracy readout of the paper sweeps: saturation loads next to
  /// the paper's figures and every run's delivered flits.  Reported, never
  /// gated: a change that moves them changed the model, not just its speed.
  void print_model_readout() const {
    const std::vector<PointSpec>& points = workload_->points();
    for (std::size_t i = 0; i < points.size(); ++i) {
      std::cout << "  model.flits_delivered[" << label(points[i])
                << "] = " << first_[i].flits_delivered << " flits\n";
    }
    const std::vector<mmr::SweepPoint> sweep = sweep_cells(first_);
    const bool vbr = workload_->name() == "paper-vbr";
    const struct {
      const char* arbiter;
      double paper;
    } rows[] = {{"coa", vbr ? 0.85 : 0.83}, {"wfa", vbr ? 0.75 : 0.70}};
    for (const auto& row : rows) {
      std::cout << "  model." << row.arbiter
                << "_sat_load = " << mmr::saturation_load(sweep, row.arbiter)
                << " load\n  paper." << row.arbiter << "_sat_load = "
                << row.paper << " load\n";
    }
  }

  void print_report(const std::vector<Metric>& metrics) const {
    const std::size_t failed = failures_.size();
    std::cout << "workload " << workload_->name() << ", seed " << args_.seed
              << ", " << workload_->points().size() << " runs per round, "
              << untraced_run_s_.size() << " untraced + "
              << traced_run_s_.size()
              << " traced rounds, " << saturated_runs()
              << " saturated runs per round\n";
    std::cout << "  bench.reference_second = " << median(ref_second_s_)
              << " s (host time; the end-to-end seconds are reference "
                 "seconds)\n";
    std::cout << "  error_rate = "
              << static_cast<double>(failed) / static_cast<double>(attempted_)
              << " fraction\n";
    if (workload_->is_sweep()) print_model_readout();
    if (args_.trace && workload_->is_network()) {
      std::cout << "  (network.shard_speedup_n uses net_threads="
                << shard_width_n_ << ")\n";
    }
    for (const Metric& m : metrics)
      std::cout << "  " << m.name << " = " << m.value << ' ' << m.unit << '\n';

    std::ostringstream json;
    json.precision(12);
    json << "{\"correct\": " << (failed == 0 ? "true" : "false")
         << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed
         << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      json << (i == 0 ? "" : ", ") << '"' << metrics[i].name
           << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
           << metrics[i].unit << "\"}";
    }
    json << "}}";
    std::cout << json.str() << std::endl;
  }

  const Args& args_;
  std::unique_ptr<Workload> workload_;
  Round first_;  ///< the first untraced round, kept whole
  HostReference reference_;
  std::vector<double> ref_second_s_;  ///< per round, host s per reference s
  // Per untraced round, in reference seconds: set-up time, run() time,
  // rates.
  std::vector<double> setup_s_;
  std::vector<double> untraced_run_s_;
  std::vector<double> rate_;
  std::vector<double> sat_rate_;
  std::vector<double> traced_run_s_;  ///< per traced round, reference s
  double serial_front_s_ = 0.0;  ///< latest untraced run() of the first point
  std::vector<std::vector<Metric>> layer_rounds_;  ///< per traced round
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  // Per traced round, network only: serial / sharded run() time.
  std::vector<double> shard_speedup_2_;
  std::vector<double> shard_speedup_n_;
  std::uint32_t shard_width_n_ = 0;
  SpanLog spans_;
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  std::unique_ptr<Workload> workload =
      make_workload(args.workload, args.seed, args.tiny);
  if (!workload) {
    std::string known;
    for (const std::string& name : workload_names()) known += " " + name;
    usage("unknown workload '" + args.workload + "'; known:" + known);
  }
  return Bench(args, std::move(workload)).execute();
}
