#include "mmr/router/qd_spec.hpp"

#include <stdexcept>

#include "mmr/sim/assert.hpp"
#include "mmr/sim/spec_grammar.hpp"

namespace mmr {

const char* to_string(QueueDiscipline d) {
  switch (d) {
    case QueueDiscipline::kVc: return "vc";
    case QueueDiscipline::kVoq: return "voq";
    case QueueDiscipline::kCicq: return "cicq";
  }
  return "?";
}

QdSpec QdSpec::parse(const std::string& spec) {
  QdSpec out;
  if (spec.empty()) return out;
  const std::vector<std::string_view> keys =
      opt::Grammar("qd spec",
                   {opt::flag("stab", out.stabilize),
                    opt::u32("xp", out.crosspoint_flits),
                    opt::u32("thresh", out.burst_threshold)})
          .head(out.discipline,
                {QueueDiscipline::kVc, QueueDiscipline::kVoq,
                 QueueDiscipline::kCicq},
                /*leading=*/true)
          .parse(spec);
  if (out.discipline != QueueDiscipline::kCicq && !keys.empty())
    throw std::invalid_argument(
        "qd spec: key '" + std::string(keys.front()) +
        "' only applies to qd=cicq (crosspoint buffering)");
  out.validate();
  return out;
}

void QdSpec::validate() const {
  if (discipline != QueueDiscipline::kCicq) return;
  MMR_ASSERT_MSG(crosspoint_flits >= 1,
                 "crosspoint buffer must hold >= 1 flit");
  MMR_ASSERT_MSG(burst_threshold >= 1, "burst threshold must be >= 1");
}

}  // namespace mmr
