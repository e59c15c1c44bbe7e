#include "mmr/core/simulation.hpp"

#include <optional>

#include "mmr/audit/sim_auditor.hpp"
#include "mmr/mmu/mmu.hpp"
#include "mmr/overload/policer.hpp"
#include "mmr/overload/rogue_apply.hpp"
#include "mmr/overload/watchdog.hpp"
#include "mmr/perf/probe.hpp"
#include "mmr/sim/assert.hpp"
#include "mmr/sim/log.hpp"
#include "mmr/snapshot/format.hpp"
#include "mmr/snapshot/manager.hpp"
#include "mmr/snapshot/signals.hpp"
#include "mmr/snapshot/walker.hpp"
#include "mmr/trace/event.hpp"
#include "mmr/trace/tracer.hpp"

namespace mmr {

namespace {

constexpr Cycle kInvariantCheckPeriod = 1 << 16;

constexpr std::uint32_t kNoSource = ~std::uint32_t{0};

}  // namespace

SimConfig MmrSimulation::with_flow_regime(
    SimConfig config, std::optional<mmu::MmuSpec>& shared) {
  if (config.flow_spec.empty()) return config;
  // Parse eagerly so a malformed spec fails before anything is built; only
  // the shared regime changes the buffer geometry (resolve() reads ports and
  // latencies, never buffer_flits_per_vc, so the order is safe).
  const mmu::MmuSpec spec = mmu::MmuSpec::parse(config.flow_spec);
  if (spec.mode == mmu::FlowMode::kShared) {
    shared = spec;
    config.buffer_flits_per_vc = spec.resolve(config).vc_slots();
  }
  return config;
}

MmrSimulation::MmrSimulation(SimConfig config, Workload workload)
    : config_(with_flow_regime(std::move(config), shared_flow_)),
      workload_(std::move(workload)),
      router_(config_, workload_.table, Rng(config_.seed, 0xA0)),
      collector_(workload_.table, config_),
      generated_load_nominal_(
          workload_.generated_load(config_.time_base())) {
  config_.validate_single_router();
  workload_.check_invariants();

  // Rogue wrapping must precede the emission-heap build below so the heap
  // indexes the wrapped sources.  Wrapping never changes mean_bps(), so the
  // nominal load captured above stays the declared one.
  if (!config_.rogue_spec.empty()) {
    rogue_ids_ = overload::apply_rogue(
        workload_, overload::RogueSpec::parse(config_.rogue_spec));
    is_rogue_.assign(workload_.table.size(), 0);
    for (const ConnectionId id : rogue_ids_) is_rogue_[id] = 1;
  }
  if (!config_.police_spec.empty()) {
    const auto spec = overload::PoliceSpec::parse(config_.police_spec);
    qos_deadline_cycles_ = spec.qos_deadline_cycles;
    policer_ = std::make_unique<overload::InjectionPolicer>(workload_.table,
                                                            config_, spec);
    if (spec.wd_window > 0)
      watchdog_ =
          std::make_unique<overload::SaturationWatchdog>(spec, config_.ports);
  }

  if (shared_flow_) {
    mmu_ = std::make_unique<mmu::SharedBufferMmu>(*shared_flow_, config_);
    if (mmu_->spec().ecn) {
      ecn_ = std::make_unique<mmu::EcnReactor>(workload_.table.size(),
                                               mmu_->spec());
      source_of_connection_.assign(workload_.table.size(), kNoSource);
      for (std::uint32_t i = 0; i < workload_.sources.size(); ++i)
        source_of_connection_[workload_.sources[i]->connection()] = i;
    }
  }

  nics_.reserve(config_.ports);
  input_links_.reserve(config_.ports);
  for (std::uint32_t port = 0; port < config_.ports; ++port) {
    nics_.emplace_back(config_.vcs_per_link, config_.buffer_flits_per_vc,
                       config_.credit_latency);
    input_links_.emplace_back(config_.link_latency);
  }

  for (std::uint32_t i = 0; i < workload_.sources.size(); ++i) {
    const Cycle next = workload_.sources[i]->next_emission();
    if (next != kNever) heap_.emplace(next, i);
  }

  if (config_.audit_every > 0)
    auditor_ = std::make_unique<audit::SimAuditor>(config_);

  if (!config_.trace_spec.empty())
    tracer_ = std::make_unique<trace::Tracer>(
        trace::TraceSpec::parse(config_.trace_spec),
        trace::TraceMeta::from_config(config_));

  // Last: every subsystem the walk visits must already exist before a
  // `resume:` checkpoint is overlaid.
  if (!config_.snap_spec.empty()) {
    const snapshot::SnapSpec spec =
        snapshot::SnapSpec::parse(config_.snap_spec);
    snap_mgr_ = std::make_unique<snapshot::SnapshotManager>(
        spec, snapshot::config_digest(config_));
    if (!spec.resume.empty()) restore_checkpoint(spec.resume);
  }
}

MmrSimulation::~MmrSimulation() = default;

const Nic& MmrSimulation::nic(std::uint32_t link) const {
  MMR_ASSERT(link < nics_.size());
  return nics_[link];
}

std::uint64_t MmrSimulation::backlog() const {
  std::uint64_t total = router_.flits_buffered();
  for (const Nic& n : nics_) total += n.total_queued() - n.total_sent();
  for (const LinkPipeline& link : input_links_) total += link.in_flight();
  if (policer_) total += policer_->penalty_backlog();
  return total;
}

void MmrSimulation::step_one() {
  const Cycle now = now_;
  const bool measure = now >= config_.warmup_cycles;

  // Arm this simulation's tracer for the cycle (keeping any externally
  // armed tracer when trace= is unset, mirroring perf::ProbeScope).  The
  // mirrored clock lets clock-less call sites (arbiters, admission) stamp
  // their events with the right cycle.
  trace::Tracer* const tracer =
      tracer_ != nullptr ? tracer_.get() : trace::current();
  const trace::TraceScope trace_scope(tracer);
  if (tracer != nullptr) tracer->set_now(now);

  // 1. Flits whose link transfer completes this cycle enter the VCM —
  // gated, under flow=shared, by the MMU's pool accounting.
  {
    MMR_PERF_SCOPE(perf::Phase::kCredits);
    for (std::uint32_t port = 0; port < config_.ports; ++port) {
      arrival_buffer_.clear();
      input_links_[port].pop_due(now, arrival_buffer_);
      for (const LinkTransfer& transfer : arrival_buffer_) {
        if (mmu_) {
          const Flit& flit = transfer.flit;
          const auto admit = mmu_->admit(port, loss_class(flit), now);
          if (admit.pool == mmu::AdmitPool::kDropped) {
            // The VCM slot this flit was charged a credit for stays free;
            // return the credit so the NIC's ledger keeps balancing.
            nics_[port].return_credit(transfer.vc, now);
            MMR_TRACE_EVENT(trace::mmu_drop_event(now, port, transfer.vc,
                                                  flit.connection, flit.seq,
                                                  mmu_->occupancy()));
            continue;
          }
          if (admit.marked) {
            MMR_TRACE_EVENT(trace::ecn_mark_event(now, port, transfer.vc,
                                                  flit.connection, flit.seq,
                                                  mmu_->shared_used()));
            if (ecn_ && ecn_->on_mark(flit.connection))
              apply_ecn_factor(flit.connection);
          }
          if (admit.fire_xoff) {
            const Cycle effective = now + config_.credit_latency;
            pause_frames_.push_back({effective, port, /*xoff=*/true});
            MMR_TRACE_EVENT(trace::mmu_pause_event(
                now, port, mmu_->port_usage(port), effective));
          }
        }
        router_.accept(port, transfer.vc, transfer.flit, now);
      }
    }
  }

  // 2. Sources generate; flits land in their NIC's per-connection buffer.
  {
    MMR_PERF_SCOPE(perf::Phase::kTraffic);
    while (!heap_.empty() && heap_.top().first <= now) {
      const std::uint32_t index = heap_.top().second;
      heap_.pop();
      TrafficSource& source = *workload_.sources[index];
      flit_buffer_.clear();
      source.generate(now, flit_buffer_);
      const ConnectionDescriptor& descriptor =
          workload_.table.get(source.connection());
      for (const Flit& flit : flit_buffer_) {
        collector_.on_generated(flit.connection, flit.generated_at);
        if (policer_ == nullptr) {
          nics_[descriptor.input_link].deposit(descriptor.vc, flit);
          MMR_TRACE_EVENT(trace::inject_event(now, descriptor.input_link,
                                              descriptor.vc, flit.connection,
                                              flit.seq));
          continue;
        }
        switch (policer_->police(flit, now)) {
          case overload::Verdict::kPass:
            nics_[descriptor.input_link].deposit(descriptor.vc, flit);
            MMR_TRACE_EVENT(trace::inject_event(now, descriptor.input_link,
                                                descriptor.vc, flit.connection,
                                                flit.seq));
            break;
          case overload::Verdict::kDemoted: {
            Flit demoted = flit;
            demoted.demoted = true;
            nics_[descriptor.input_link].deposit(descriptor.vc, demoted);
            if (MMR_TRACE_ON()) {
              MMR_TRACE_EVENT(trace::police_event(
                  now, descriptor.input_link, descriptor.vc, flit.connection,
                  flit.seq, trace::PoliceAction::kDemoted));
              MMR_TRACE_EVENT(trace::inject_event(
                  now, descriptor.input_link, descriptor.vc, flit.connection,
                  flit.seq, /*demoted=*/true));
            }
            break;
          }
          case overload::Verdict::kShaped:  // held in the penalty queue
            MMR_TRACE_EVENT(trace::police_event(
                now, descriptor.input_link, descriptor.vc, flit.connection,
                flit.seq, trace::PoliceAction::kShaped));
            break;
          case overload::Verdict::kDropped:  // discarded at injection
            if (MMR_TRACE_ON()) {
              // Recover the reason the policer recorded in its tallies:
              // best-effort drops while shedding are watchdog sheds; QoS
              // drops under the shape policy mean the penalty queue was
              // full; everything else is a plain contract drop.
              trace::PoliceAction action = trace::PoliceAction::kDropped;
              if (!descriptor.is_qos() && policer_->shedding()) {
                action = trace::PoliceAction::kShed;
              } else if (descriptor.is_qos() &&
                         policer_->spec().policy ==
                             overload::OverloadPolicy::kShape) {
                action = trace::PoliceAction::kPenaltyOverflow;
              }
              MMR_TRACE_EVENT(trace::police_event(now, descriptor.input_link,
                                                  descriptor.vc,
                                                  flit.connection, flit.seq,
                                                  action));
            }
            break;
        }
      }
      const Cycle next = source.next_emission();
      if (next != kNever) {
        MMR_ASSERT_MSG(next > now, "source failed to advance its clock");
        heap_.emplace(next, index);
      }
    }

    // 2b. Shaped flits whose tokens have accrued enter their NIC now.
    if (policer_) {
      release_buffer_.clear();
      policer_->release_due(now, release_buffer_);
      for (const Flit& flit : release_buffer_) {
        const ConnectionDescriptor& descriptor =
            workload_.table.get(flit.connection);
        nics_[descriptor.input_link].deposit(descriptor.vc, flit);
        MMR_TRACE_EVENT(trace::shape_release_event(
            now, descriptor.input_link, descriptor.vc, flit.connection,
            flit.seq, now - flit.generated_at));
        if (measure && flit.generated_at >= config_.warmup_cycles) {
          shape_delay_us_.add(config_.time_base().cycles_to_us(
              static_cast<double>(now - flit.generated_at)));
        }
      }
    }
  }

  // 2c. ECN recovery: factors step back towards 1.0 once per window.
  if (ecn_) {
    ecn_changed_.clear();
    ecn_->on_cycle(now, ecn_changed_);
    for (const ConnectionId connection : ecn_changed_)
      apply_ecn_factor(connection);
  }

  // 3. Pause frames whose credit-channel propagation completes take effect,
  // then each NIC's link controller forwards at most one flit.
  {
    MMR_PERF_SCOPE(perf::Phase::kCredits);
    while (!pause_frames_.empty() &&
           pause_frames_.front().effective_at <= now) {
      const PauseFrame frame = pause_frames_.front();
      pause_frames_.pop_front();
      nics_[frame.port].set_paused(frame.xoff);
    }
    for (std::uint32_t port = 0; port < config_.ports; ++port) {
      if (auto transfer = nics_[port].select_and_send(now)) {
        input_links_[port].push(*transfer, now);
      }
    }
  }

  // 4. One scheduling cycle: link scheduling, switch arbitration, crossbar
  // transit.  Departures complete at now + 1 (one flit time through the
  // switch and output link) and their credits head back to the NIC.
  departure_buffer_.clear();
  router_.step(now, measure, departure_buffer_);

  MMR_PERF_SCOPE(perf::Phase::kMetrics);
  const bool overload_active = policer_ != nullptr || !rogue_ids_.empty();
  for (const MmrRouter::Departure& departure : departure_buffer_) {
    collector_.on_delivered(departure, now + 1);
    nics_[departure.input].return_credit(departure.vc, now);
    if (mmu_) {
      const auto released =
          mmu_->release(departure.input, loss_class(departure.flit), now);
      if (released.fire_xon) {
        const Cycle effective = now + config_.credit_latency;
        pause_frames_.push_back({effective, departure.input, /*xoff=*/false});
        MMR_TRACE_EVENT(trace::mmu_resume_event(
            now, departure.input, mmu_->port_usage(departure.input),
            released.paused_cycles));
      }
    }
    if (MMR_TRACE_ON()) {
      const Flit& flit = departure.flit;
      const std::uint64_t delay = now + 1 - flit.generated_at;
      MMR_TRACE_EVENT(trace::deliver_event(now, departure.input,
                                           departure.output, departure.vc,
                                           flit.connection, flit.seq, delay));
      MMR_TRACE_EVENT(
          trace::credit_return_event(now, departure.input, departure.vc));
      if (workload_.table.get(flit.connection).is_qos() &&
          static_cast<double>(delay) > qos_deadline_cycles_) {
        MMR_TRACE_EVENT(trace::deadline_miss_event(now, departure.input,
                                                   departure.vc,
                                                   flit.connection, flit.seq,
                                                   delay));
      }
    }
    if (observer_) observer_(departure, now + 1);

    // Compliant-vs-rogue QoS deadline split (overload accounting only).
    if (overload_active && measure) {
      const Flit& flit = departure.flit;
      if (workload_.table.get(flit.connection).is_qos()) {
        const bool rogue = !is_rogue_.empty() && is_rogue_[flit.connection];
        const bool violated =
            static_cast<double>(now + 1 - flit.generated_at) >
            qos_deadline_cycles_;
        if (rogue) {
          ++rogue_delivered_;
          if (violated) ++rogue_violations_;
        } else {
          ++compliant_delivered_;
          if (violated) ++compliant_violations_;
        }
      }
    }
  }

  if (mmu_) mmu_->on_cycle(now);

  if (watchdog_) {
    const std::uint64_t sample =
        watchdog_->wants_sample(now) ? backlog() : 0;
    watchdog_->on_cycle(now, sample, *policer_);
    if (mmu_)
      watchdog_->on_mmu_pause(now, mmu_->longest_open_pause(now), *policer_);
  }

  if (auditor_)
    auditor_->on_cycle(now, router_, nics_, input_links_, departure_buffer_,
                       mmu_.get());

  if ((now + 1) % kInvariantCheckPeriod == 0) check_invariants();
  ++now_;
}

SimulationMetrics MmrSimulation::run() {
  MMR_ASSERT_MSG(!ran_, "run() may only be called once");
  ran_ = true;
  const Cycle total = config_.total_cycles();
  if (snap_mgr_) return run_managed(total);
  while (now_ < total) step_one();
  check_invariants();
  if (tracer_) tracer_->write_outputs();
  return finalize();
}

SimulationMetrics MmrSimulation::run_managed(Cycle total) {
  const auto walk = [this](snapshot::Walker& w) { snap_walk(w); };

  // Crash path: on MMR_ASSERT the post-mortem checkpoint is written first,
  // then the previously installed hook (the tracer's flight-recorder dump)
  // runs — one crash, one bundle.  SIGINT/SIGTERM are polled cooperatively
  // at cycle boundaries below.
  std::optional<snapshot::SignalGuard> signals;
  std::optional<snapshot::CrashScope> crash;
  if (snap_mgr_->spec().on_crash) {
    signals.emplace();
    crash.emplace([this, walk] {
      snap_mgr_->write_checkpoint(now_, walk, "crash", /*nothrow=*/true);
    });
  }

  while (now_ < total) {
    step_one();
    snap_mgr_->after_cycle(now_, walk);
    if (watchdog_ && snap_mgr_->spec().on_crash)
      snap_mgr_->on_alarm_count(
          now_, walk, watchdog_->alarms() + watchdog_->pause_alarms(),
          "watchdog");
    if (signals && snapshot::SignalGuard::pending() != 0) {
      const int signal_number = snapshot::SignalGuard::consume();
      const std::string path =
          snap_mgr_->write_checkpoint(now_, walk, "signal", /*nothrow=*/true);
      if (tracer_) tracer_->write_outputs();
      snap_mgr_->write_hash_log();
      throw snapshot::Interrupted(signal_number, path);
    }
  }
  check_invariants();
  if (tracer_) tracer_->write_outputs();
  snap_mgr_->write_hash_log();
  return finalize();
}

std::uint64_t MmrSimulation::state_hash() {
  snapshot::HashWalker hasher;
  snap_walk(hasher);
  return hasher.digest();
}

void MmrSimulation::save_checkpoint(const std::string& path) {
  snapshot::Snapshot snap;
  snap.config_digest = snapshot::config_digest(config_);
  snap.cycle = now_;
  snapshot::SaveWalker writer(snap);
  snap_walk(writer);
  snapshot::save_file(path, snap);
}

void MmrSimulation::restore_checkpoint(const std::string& path) {
  const snapshot::Snapshot snap = snapshot::load_file(path);
  const std::uint64_t digest = snapshot::config_digest(config_);
  if (snap.config_digest != digest)
    throw snapshot::SnapshotError(
        "checkpoint " + path + " was written under a different SimConfig (" +
        std::to_string(snap.config_digest) + " vs " + std::to_string(digest) +
        "); resume requires the identical config and workload");
  snapshot::LoadWalker reader(snap);
  snap_walk(reader);
  reader.finish();
  MMR_ASSERT_MSG(now_ == snap.cycle,
                 "restored clock disagrees with the snapshot header");
}

void MmrSimulation::snap_walk(snapshot::Walker& w) {
  using snapshot::value;

  w.section("sim");
  value(w, now_);
  value(w, compliant_delivered_);
  value(w, compliant_violations_);
  value(w, rogue_delivered_);
  value(w, rogue_violations_);
  shape_delay_us_.snap(w);
  snapshot::walk_deque(w, pause_frames_,
                       [](snapshot::Walker& wk, PauseFrame& frame) {
                         value(wk, frame.effective_at);
                         value(wk, frame.port);
                         value(wk, frame.xoff);
                       });
  // The emission heap's raw array: rebuilding it from the restored sources'
  // next_emission() would not reproduce the original heap layout (and a
  // source that already queued its next emission must not emit twice).
  {
    auto& heap = snapshot::queue_container(heap_);
    std::uint64_t n = heap.size();
    value(w, n);
    if (w.loading()) heap.assign(static_cast<std::size_t>(n), Emission{});
    for (Emission& emission : heap) {
      value(w, emission.first);
      value(w, emission.second);
    }
  }

  w.section("sources");
  for (const auto& source : workload_.sources) source->snap(w);

  w.section("nics");
  for (Nic& nic : nics_) nic.snap(w);

  w.section("links");
  for (LinkPipeline& link : input_links_) link.snap(w);

  w.section("router");
  router_.snap(w);

  w.section("metrics");
  collector_.snap(w);

  // Conditional subsystems: present exactly when the config constructs them,
  // which the config digest pins — a section-name mismatch means a digest
  // bug, and LoadWalker throws rather than misaligning.
  if (policer_) {
    w.section("policer");
    policer_->snap(w);
  }
  if (watchdog_) {
    w.section("watchdog");
    watchdog_->snap(w);
  }
  if (mmu_) {
    w.section("mmu");
    mmu_->snap(w);
  }
  if (ecn_) {
    w.section("ecn");
    ecn_->snap(w);
  }
  if (auditor_) {
    w.section("audit");
    auditor_->snap(w);
  }
  if (tracer_) {
    w.section("trace");
    tracer_->snap(w);
  }
}

SimulationMetrics MmrSimulation::finalize() const {
  SimulationMetrics m =
      collector_.finalize(router_, generated_load_nominal_, backlog());

  if (mmu_) {
    MmuMetrics& mm = m.mmu;
    mm.enabled = true;
    mm.admitted_reserved = mmu_->admitted_reserved();
    mm.admitted_shared = mmu_->admitted_shared();
    mm.admitted_headroom = mmu_->admitted_headroom();
    mm.drops_lossless = mmu_->drops_lossless();
    mm.drops_lossy = mmu_->drops_lossy();
    mm.pause_events = mmu_->pause_events();
    mm.resume_events = mmu_->resume_events();
    mm.pause_cycles_total = mmu_->pause_cycles_total(now_);
    mm.pause_cycles_max = mmu_->pause_cycles_max(now_);
    mm.headroom_highwater = mmu_->headroom_highwater();
    mm.pool_highwater = mmu_->pool_highwater();
    mm.pool_occupancy = mmu_->pool_occupancy();
    mm.ecn_marked = mmu_->ecn_marked();
    mm.ecn_eligible = mmu_->ecn_eligible();
    if (ecn_) mm.ecn_cuts = ecn_->cuts();
  }

  OverloadMetrics& o = m.overload;
  o.enabled = policer_ != nullptr || !rogue_ids_.empty();
  if (!o.enabled) return m;
  o.policy = policer_ ? to_string(policer_->spec().policy) : "off";
  o.rogue_connections = static_cast<std::uint32_t>(rogue_ids_.size());
  o.compliant_delivered = compliant_delivered_;
  o.compliant_violations = compliant_violations_;
  o.rogue_delivered = rogue_delivered_;
  o.rogue_violations = rogue_violations_;
  if (policer_) {
    o.noncompliant_connections = policer_->noncompliant_connections();
    for (const TrafficClass cls :
         {TrafficClass::kCbr, TrafficClass::kVbr, TrafficClass::kBestEffort}) {
      const overload::ClassTally& t = policer_->tally(cls);
      PolicedClassTally& out = o.policed[static_cast<std::size_t>(cls)];
      out.conforming = t.conforming;
      out.dropped = t.dropped;
      out.demoted = t.demoted;
      out.shaped = t.shaped;
      out.penalty_overflow = t.penalty_overflow;
      out.shed = t.shed;
    }
    o.shape_delay_us = shape_delay_us_;
    const std::vector<std::uint64_t>& policed =
        policer_->policed_per_connection();
    for (ConnectionId id = 0; id < policed.size(); ++id) {
      const bool rogue = !is_rogue_.empty() && is_rogue_[id];
      (rogue ? o.rogue_policed : o.compliant_policed) += policed[id];
    }
  }
  if (watchdog_) {
    o.watchdog_escalations = watchdog_->escalations();
    o.watchdog_recoveries = watchdog_->recoveries();
    o.watchdog_alarms = watchdog_->alarms();
    o.watchdog_pause_alarms = watchdog_->pause_alarms();
    for (std::size_t s = 0; s < 4; ++s)
      o.cycles_in_stage[s] = watchdog_->cycles_in_stage(
          static_cast<overload::WatchdogStage>(s));
  }
  return m;
}

TrafficClass MmrSimulation::loss_class(const Flit& flit) const {
  return flit.demoted ? TrafficClass::kBestEffort
                      : workload_.table.get(flit.connection).traffic_class;
}

void MmrSimulation::apply_ecn_factor(ConnectionId connection) {
  const double factor = ecn_->factor(connection);
  const std::uint32_t source = source_of_connection_[connection];
  if (source != kNoSource) workload_.sources[source]->throttle(factor);
  if (policer_) policer_->set_rate_factor(connection, factor);
}

void MmrSimulation::check_invariants() const {
  router_.check_invariants();
  for (const Nic& n : nics_) n.check_invariants();
  if (policer_) policer_->check_invariants();
  if (mmu_) {
    mmu_->check_invariants();
    // Every flit buffered in the router is charged to exactly one pool.
    MMR_ASSERT_MSG(mmu_->occupancy() == router_.flits_buffered(),
                   "mmu occupancy disagrees with the router's buffered flits");
  }
}

}  // namespace mmr
