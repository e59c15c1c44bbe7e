// Pinned StateHash goldens.  Each run below is short, deterministic and
// ends with the StateHash of its full checkpoint walk; the expected values
// live in tests/data/state_hash_golden.txt and were computed once, before
// the router's buffers moved off std::deque.  A storage refactor that keeps
// behaviour and walk bytes bit-identical passes unchanged; one that changes
// either fails here.  Never regenerate the file to make a change pass.
//
// The resume tests (test_snapshot) compare the code only with itself, so
// they cannot see a change in what the walk emits; these goldens can.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "mmr/core/simulation.hpp"
#include "mmr/network/network.hpp"

namespace mmr {
namespace {

std::map<std::string, std::string> load_goldens() {
  std::ifstream in(std::string(MMR_TEST_DATA_DIR) + "/state_hash_golden.txt");
  std::map<std::string, std::string> goldens;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::string hash;
    fields >> name >> hash;
    goldens[name] = hash;
  }
  return goldens;
}

std::string hex(std::uint64_t value) {
  char buffer[19];
  std::snprintf(buffer, sizeof buffer, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

void expect_golden(const std::string& name, std::uint64_t actual) {
  static const std::map<std::string, std::string> goldens = load_goldens();
  const auto it = goldens.find(name);
  ASSERT_NE(it, goldens.end()) << "no golden for " << name << " (got "
                               << hex(actual) << ")";
  EXPECT_EQ(hex(actual), it->second) << name;
}

SimConfig router_config(const std::string& arbiter) {
  SimConfig config;
  config.ports = 4;
  config.vcs_per_link = 64;
  config.warmup_cycles = 1'000;
  config.measure_cycles = 8'000;
  config.arbiter = arbiter;
  return config;
}

std::uint64_t run_cbr(const SimConfig& config, double load) {
  Rng rng(config.seed, 1);
  CbrMixSpec spec;
  spec.target_load = load;
  MmrSimulation simulation(config, build_cbr_mix(config, spec, rng));
  (void)simulation.run();
  return simulation.state_hash();
}

// Past saturation, so per-VC FIFOs fill, drain and refill and the NICs run
// credit-gated.
TEST(StateHashGolden, CbrCoa) {
  expect_golden("cbr-coa", run_cbr(router_config("coa"), 0.9));
}

// Every input sends only to output 0 at 1.6x its capacity: the VCs behind
// it back up, so NIC VCs run out of credits and come back as credits return.
TEST(StateHashGolden, CbrHotOutputCoa) {
  const SimConfig config = router_config("coa");
  Rng rng(config.seed, 1);
  CbrMixSpec spec;
  spec.target_load = 1.6 / 4.0;
  spec.hot_output = 0;
  MmrSimulation simulation(config, build_cbr_mix(config, spec, rng));
  (void)simulation.run();
  expect_golden("cbr-hot-coa", simulation.state_hash());
}

TEST(StateHashGolden, VbrWfa) {
  const SimConfig config = router_config("wfa");
  Rng rng(config.seed, 1);
  VbrMixSpec spec;
  spec.target_load = 0.9;
  spec.trace_gops = 2;
  MmrSimulation simulation(config, build_vbr_mix(config, spec, rng));
  (void)simulation.run();
  expect_golden("vbr-wfa", simulation.state_hash());
}

// Shared-buffer MMU: each VC may hold the whole port allowance, the NICs
// see Xon/Xoff pauses, and demoted flits share the FIFOs.
TEST(StateHashGolden, SharedDemoteRogue) {
  SimConfig config = router_config("coa");
  config.ports = 8;
  config.flow_spec = "shared";
  config.police_spec = "demote";
  config.rogue_spec = "count:1,scale:4,burst_scale:2,burst_period:1000,"
                      "burst_len:300,class:cbr";
  Rng rng(config.seed, 1);
  CbrMixSpec spec;
  spec.target_load = 1.6 / 8.0;
  spec.classes = {kCbrHigh};
  spec.class_weights = {1.0};
  spec.hot_output = 0;
  MmrSimulation simulation(config, build_cbr_mix(config, spec, rng));
  (void)simulation.run();
  expect_golden("shared-demote-rogue", simulation.state_hash());
}

TEST(StateHashGolden, VoqCoa) {
  SimConfig config = router_config("coa");
  config.qd_spec = "voq";
  expect_golden("voq-coa", run_cbr(config, 0.9));
}

TEST(StateHashGolden, CicqStabilized) {
  SimConfig config = router_config("coa");
  config.qd_spec = "cicq,stab:1,xp:3,thresh:2";
  expect_golden("cicq-stab", run_cbr(config, 0.9));
}

TEST(StateHashGolden, SmallTorus) {
  SimConfig config;
  config.ports = 5;
  config.vcs_per_link = 32;
  config.warmup_cycles = 300;
  config.measure_cycles = 1'500;
  Rng rng(config.seed, 7);
  CbrMixSpec mix;
  mix.target_load = 0.5;
  mix.classes = {kCbrHigh, kCbrMedium};
  mix.class_weights = {3.0, 1.0};
  MmrNetworkSimulation simulation(
      config, build_network_cbr_mix(
                  config, NetworkTopology::torus2d(4, 4, config.ports), mix,
                  rng));
  (void)simulation.run();
  expect_golden("torus-4x4", simulation.state_hash());
}

// A link outage tears connections down and re-admits them on new VCs, so
// the NICs move queued flits between VCs (Nic::move_queue).
TEST(StateHashGolden, RingOutageReroute) {
  SimConfig config;
  config.ports = 4;
  config.vcs_per_link = 64;
  config.warmup_cycles = 500;
  config.measure_cycles = 3'000;
  config.fault_spec = "down:0:1000:2000";
  Rng rng(config.seed, 5);
  CbrMixSpec mix;
  mix.target_load = 0.6;
  MmrNetworkSimulation simulation(
      config,
      build_network_cbr_mix(config, NetworkTopology::bidirectional_ring(4, 4),
                            mix, rng));
  const NetworkMetrics metrics = simulation.run();
  EXPECT_GT(metrics.degradation.reroutes, 0u);
  expect_golden("ring-outage", simulation.state_hash());
}

}  // namespace
}  // namespace mmr
