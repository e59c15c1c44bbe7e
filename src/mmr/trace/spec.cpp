#include "mmr/trace/spec.hpp"

#include "mmr/sim/assert.hpp"
#include "mmr/sim/spec_grammar.hpp"

namespace mmr::trace {

const char* to_string(TraceSpec::Mode mode) {
  switch (mode) {
    case TraceSpec::Mode::kStream: return "stream";
    case TraceSpec::Mode::kFlight: return "flight";
  }
  return "?";
}

TraceSpec TraceSpec::parse(const std::string& spec) {
  TraceSpec parsed;
  opt::Grammar("trace spec",
               {opt::text("out", parsed.out),
                opt::text("chrome", parsed.chrome),
                opt::text("summary", parsed.summary),
                opt::text("dump", parsed.dump_prefix),
                opt::u32("ring", parsed.ring),
                opt::u64("limit", parsed.limit),
                opt::u32("dumps", parsed.max_dumps)})
      .head(parsed.mode, {TraceSpec::Mode::kStream, TraceSpec::Mode::kFlight},
            /*leading=*/false)
      .parse(spec);
  parsed.validate();
  return parsed;
}

void TraceSpec::validate() const {
  MMR_ASSERT_MSG(ring >= 16, "flight ring must hold >= 16 events");
  MMR_ASSERT_MSG(limit >= 1, "stream event limit must be >= 1");
  MMR_ASSERT_MSG(mode != Mode::kFlight || !dump_prefix.empty(),
                 "flight mode needs a dump file prefix");
}

}  // namespace mmr::trace
