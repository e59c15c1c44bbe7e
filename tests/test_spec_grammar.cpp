// The shared option-grammar tokenizer and typed-field table
// (mmr/sim/spec_grammar.hpp) that every spec parser and apply_overrides
// run on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "mmr/sim/spec_grammar.hpp"

namespace mmr {
namespace {

enum class Mode : std::uint8_t { kFast, kSlow };

const char* to_string(Mode m) { return m == Mode::kFast ? "fast" : "slow"; }

/// A toy grammar over every field type.
struct Toy {
  Mode mode = Mode::kFast;
  std::uint64_t big = 0;
  std::uint32_t small = 0;
  double ratio = 0.5;
  bool on = false;
  std::string path;
  Mode pick = Mode::kFast;

  std::vector<std::string_view> parse(std::string_view spec, bool leading) {
    return opt::Grammar("toy spec",
                        {opt::u64("big", big), opt::u32("small", small),
                         opt::real("ratio", ratio, {0.0, 1.0}),
                         opt::flag("on", on), opt::text("path", path),
                         opt::choice("pick", pick, {Mode::kFast, Mode::kSlow})})
        .head(mode, {Mode::kFast, Mode::kSlow}, leading)
        .parse(spec);
  }
};

/// The message a parse of `spec` throws, or "" if it accepts.
std::string toy_error(const std::string& spec, bool leading = false) {
  Toy toy;
  try {
    (void)toy.parse(spec, leading);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(SpecGrammar, ParsesEveryFieldTypeAndReturnsTheKeys) {
  Toy toy;
  const auto keys = toy.parse(
      "slow,big:18446744073709551615,small:7,ratio:0.25,on:1,path:a/b,"
      "pick:slow",
      /*leading=*/true);
  EXPECT_EQ(keys, (std::vector<std::string_view>{"big", "small", "ratio",
                                                  "on", "path", "pick"}));
  EXPECT_EQ(toy.mode, Mode::kSlow);
  EXPECT_EQ(toy.big, UINT64_MAX);
  EXPECT_EQ(toy.small, 7u);
  EXPECT_DOUBLE_EQ(toy.ratio, 0.25);
  EXPECT_TRUE(toy.on);
  EXPECT_EQ(toy.path, "a/b");
  EXPECT_EQ(toy.pick, Mode::kSlow);
}

TEST(SpecGrammar, SkipsEmptyTokensButRejectsAnEmptySpec) {
  Toy toy;
  EXPECT_EQ(toy.parse(",,fast,,small:3,", /*leading=*/true).size(), 1u);
  EXPECT_EQ(toy.small, 3u);
  EXPECT_EQ(toy_error("").rfind("toy spec: empty spec", 0), 0u);
  EXPECT_NE(toy_error(",,").find("must name one of fast|slow"),
            std::string::npos);
}

TEST(SpecGrammar, SplitsAtTheFirstColonOnly) {
  Toy toy;
  (void)toy.parse("fast,path:C:/tmp/run.jsonl,path:x:", /*leading=*/false);
  EXPECT_EQ(toy.path, "x:");
  (void)toy.parse("fast,path:C:/tmp/run.jsonl", /*leading=*/false);
  EXPECT_EQ(toy.path, "C:/tmp/run.jsonl");
  (void)toy.parse("fast,path:", /*leading=*/false);
  EXPECT_EQ(toy.path, "");
}

TEST(SpecGrammar, RejectsATokenWithoutAColon) {
  const std::string what = toy_error("fast,small");
  EXPECT_EQ(what.rfind("toy spec: token must be key:value or one of "
                       "fast|slow: small",
                       0),
            0u)
      << what;
}

TEST(SpecGrammar, HeadWordPositionAndOnceRules) {
  // Anywhere-head grammars take the head word at any position...
  Toy toy;
  (void)toy.parse("small:1,slow", /*leading=*/false);
  EXPECT_EQ(toy.mode, Mode::kSlow);
  // ...leading ones only first.
  EXPECT_NE(toy_error("small:1,slow", /*leading=*/true)
                .find("toy spec: must start with fast|slow, got: small:1"),
            std::string::npos);
  for (const bool leading : {false, true}) {
    EXPECT_NE(toy_error("fast,slow", leading).find("names two of fast|slow"),
              std::string::npos);
    EXPECT_NE(toy_error("slow,slow", leading).find("names two of fast|slow"),
              std::string::npos);
    EXPECT_NE(toy_error("small:1", leading).find("fast|slow"),
              std::string::npos);
  }
}

TEST(SpecGrammar, UnknownKeyListsTheTable) {
  EXPECT_EQ(toy_error("fast,bogus:1"),
            "toy spec: unknown key 'bogus'; valid keys: big, small, ratio, "
            "on, path, pick");
}

TEST(SpecGrammar, UnsignedFieldsCheckTheWholeValueAndTheirLimit) {
  EXPECT_EQ(toy_error("fast,small:4294967295"), "");
  EXPECT_EQ(toy_error("fast,small:4294967296"),
            "toy spec: small:4294967296 out of range: at most 4294967295 "
            "(the 32-bit field)");
  EXPECT_NE(toy_error("fast,big:18446744073709551616")
                .find("at most 18446744073709551615"),
            std::string::npos);
  for (const char* bad : {"-1", "+1", " 1", "1x", "", "0x10", "1.0"}) {
    EXPECT_NE(toy_error(std::string("fast,big:") + bad)
                  .find("is not an unsigned integer"),
              std::string::npos)
        << bad;
  }

  // A named limit with a minimum, as ports= uses.
  std::uint32_t ports = 4;
  const opt::Grammar grammar(
      "config", {opt::u32("ports", ports, {1024, "kMaxPorts", 1})}, '=');
  EXPECT_EQ(grammar.apply("ports=1024"), "ports");
  EXPECT_EQ(ports, 1024u);
  for (const char* bad : {"ports=0", "ports=1025"}) {
    try {
      (void)grammar.apply(bad);
      FAIL() << bad;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what())
                    .find("out of range: expected 1..1024 (kMaxPorts)"),
                std::string::npos)
          << error.what();
    }
  }
  EXPECT_EQ(ports, 1024u);  // rejected values leave the field untouched
}

TEST(SpecGrammar, RealFieldsMustBeFiniteAndInRange) {
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "1e999", "abc", ""}) {
    EXPECT_NE(toy_error(std::string("fast,ratio:") + bad)
                  .find("is not a finite number"),
              std::string::npos)
        << bad;
  }
  EXPECT_NE(toy_error("fast,ratio:1.5").find("out of range: must be <= 1"),
            std::string::npos);
  EXPECT_NE(toy_error("fast,ratio:-0.1").find("out of range: must be >= 0"),
            std::string::npos);
  EXPECT_EQ(toy_error("fast,ratio:0"), "");
  EXPECT_EQ(toy_error("fast,ratio:1"), "");
  EXPECT_EQ(toy_error("fast,ratio:5e-4"), "");

  double rate = 1.0;
  const opt::Grammar open_at_zero(
      "rate spec", {opt::real("rate", rate, {0.0, HUGE_VAL, true})});
  EXPECT_THROW((void)open_at_zero.apply("rate:0"), std::invalid_argument);
  (void)open_at_zero.apply("rate:1e-9");
  EXPECT_DOUBLE_EQ(rate, 1e-9);
}

TEST(SpecGrammar, FlagsTakeOnlyZeroOrOne) {
  EXPECT_EQ(toy_error("fast,on:0"), "");
  EXPECT_EQ(toy_error("fast,on:1"), "");
  for (const char* bad : {"2", "yes", "true", "", "01"}) {
    EXPECT_EQ(toy_error(std::string("fast,on:") + bad),
              std::string("toy spec: on:") + bad + " must be 0 or 1");
  }
}

TEST(SpecGrammar, ChoiceNamesItsSpellings) {
  EXPECT_EQ(toy_error("fast,pick:medium"),
            "toy spec: pick:medium must be one of fast|slow");
}

TEST(SpecGrammar, HeadWordIsTheFirstNonEmptyToken) {
  EXPECT_EQ(opt::head_word("vc,"), "vc");
  EXPECT_EQ(opt::head_word(",,shared,pool:8"), "shared");
  EXPECT_EQ(opt::head_word("cicq"), "cicq");
  EXPECT_EQ(opt::head_word(""), "");
  EXPECT_EQ(opt::head_word(",,"), "");
}

}  // namespace
}  // namespace mmr
