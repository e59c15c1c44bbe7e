// Queue-discipline configuration (`qd=` SimConfig override).  The MMR paper
// models per-VC input queueing (one FIFO per virtual channel, the link
// scheduler nominating top-L candidates); the related work studies two other
// disciplines for the same crossbar —
//
//   * `qd=voq`: per-input Virtual Output Queues.  Flits are sorted by
//     destination output at the input, eliminating head-of-line blocking.
//     Candidates are generated per non-empty VOQ with the link scheduler's
//     exact priority ordering, so the whole SwitchArbiter family (COA, WFA,
//     iSLIP, PIM, ...) runs unchanged on top.
//   * `qd=cicq`: combined input-crosspoint queueing (Gunther, PAPERS.md).
//     A small buffer per (input, output) crosspoint decouples the input
//     stage from the output stage; independent round-robin schedulers run
//     per input (VOQ -> crosspoint) and per output (crosspoint -> link).
//     Crosspoint space is credit-controlled; the burst-stabilization
//     protocol (`stab:1`) unlocks the full crosspoint depth when a VOQ
//     grows a burst, restoring the throughput that the base one-credit
//     allotment loses to the credit round-trip.
//
// The spec is pure data.  An empty `qd=` string (or "vc") means none of the
// VOQ/CICQ machinery is instantiated and results stay bit-identical to a
// build without the subsystem.
#pragma once

#include <cstdint>
#include <string>

namespace mmr {

/// Which input-queueing discipline the router runs.
enum class QueueDiscipline : std::uint8_t {
  kVc,    ///< per-VC input queues + link scheduler (the paper's model)
  kVoq,   ///< virtual output queues in front of the SwitchArbiter API
  kCicq,  ///< VOQs + per-crosspoint buffers with RR/RR scheduling
};

[[nodiscard]] const char* to_string(QueueDiscipline d);

struct QdSpec {
  QueueDiscipline discipline = QueueDiscipline::kVc;

  // --- cicq only ----------------------------------------------------------
  /// Burst-stabilization credit protocol: when a VOQ backs up past
  /// `burst_threshold`, the input is granted the crosspoint's full depth in
  /// credits instead of the base single credit, pipelining the credit
  /// round-trip that otherwise caps per-flow throughput at
  /// 1/(1 + round-trip) under bursty arrivals.
  bool stabilize = true;
  /// Per-crosspoint buffer depth, flits (`xp:`).
  std::uint32_t crosspoint_flits = 2;
  /// VOQ occupancy at which stabilization unlocks burst credits (`thresh:`).
  std::uint32_t burst_threshold = 4;

  /// Parses "vc", "voq", or "cicq[,key:value...]" with keys stab (0|1),
  /// xp, thresh.  Empty parses as "vc".  Throws std::invalid_argument
  /// (message prefixed "qd spec") on unknown or malformed tokens.
  [[nodiscard]] static QdSpec parse(const std::string& spec);

  /// Aborts with a readable message on nonsense combinations.
  void validate() const;
};

}  // namespace mmr
