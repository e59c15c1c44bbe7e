#include "mmr/sim/spec_grammar.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "mmr/sim/assert.hpp"

namespace mmr::opt {

namespace {

std::string join(const std::vector<std::string_view>& words,
                 std::string_view sep) {
  std::string out;
  for (const std::string_view word : words)
    out.append(out.empty() ? "" : sep).append(word);
  return out;
}

/// Calls `visit` on each non-empty comma-separated token of `spec`.
template <typename Visit>
void for_each_token(std::string_view spec, Visit visit) {
  while (!spec.empty()) {
    const std::size_t comma = std::min(spec.find(','), spec.size());
    if (comma > 0) visit(spec.substr(0, comma));
    spec.remove_prefix(std::min(comma + 1, spec.size()));
  }
}

}  // namespace

void Token::fail(const std::string& why) const {
  throw std::invalid_argument(std::string(grammar) + ": " + std::string(key) +
                              sep + std::string(value) + " " + why);
}

std::uint64_t Token::unsigned_int(const Limit& limit) const {
  std::uint64_t x = 0;
  const auto [end, ec] =
      std::from_chars(value.data(), value.data() + value.size(), x);
  const bool overflow = ec == std::errc::result_out_of_range;
  if ((ec != std::errc{} && !overflow) || end != value.data() + value.size())
    fail("is not an unsigned integer");
  if (overflow || x < limit.min || x > limit.max) {
    fail("out of range: " +
         (limit.min > 0 ? "expected " + std::to_string(limit.min) + ".."
                        : std::string("at most ")) +
         std::to_string(limit.max) + " (" + limit.name + ")");
  }
  return x;
}

std::size_t Token::one_of(const std::vector<std::string_view>& words) const {
  const auto it = std::find(words.begin(), words.end(), value);
  if (it == words.end()) fail("must be one of " + join(words, "|"));
  return static_cast<std::size_t>(it - words.begin());
}

Field u64(std::string_view key, std::uint64_t& out, Limit limit) {
  return {key, [&out, limit](const Token& t) { out = t.unsigned_int(limit); }};
}

Field u32(std::string_view key, std::uint32_t& out, Limit limit) {
  MMR_ASSERT_MSG(limit.max <= k32Bit.max, "u32 field with a 64-bit limit");
  return {key, [&out, limit](const Token& t) {
            out = static_cast<std::uint32_t>(t.unsigned_int(limit));
          }};
}

Field real(std::string_view key, double& out, Range range) {
  return {key, [&out, range](const Token& t) {
            // strtod, the parse double fields have always had: it also
            // takes a leading '+' and hex floats.
            const std::string text(t.value);
            char* end = nullptr;
            const double x = std::strtod(text.c_str(), &end);
            if (text.empty() || *end != '\0' || !std::isfinite(x))
              t.fail("is not a finite number");
            const bool low = range.min_open ? x <= range.min : x < range.min;
            if (low || x > range.max) {
              std::ostringstream why;
              why << "out of range: must be "
                  << (!low ? "<= " : range.min_open ? "> " : ">= ")
                  << (low ? range.min : range.max);
              t.fail(why.str());
            }
            out = x;
          }};
}

Field flag(std::string_view key, bool& out) {
  return {key, [&out](const Token& t) {
            if (t.value != "0" && t.value != "1") t.fail("must be 0 or 1");
            out = t.value == "1";
          }};
}

Field text(std::string_view key, std::string& out) {
  return {key, [&out](const Token& t) { out = t.value; }};
}

Grammar::Grammar(std::string_view name, std::vector<Field> fields, char sep)
    : name_(name), fields_(std::move(fields)), sep_(sep) {}

void Grammar::fail(const std::string& why) const {
  throw std::invalid_argument(std::string(name_) + ": " + why);
}

std::string_view Grammar::apply(std::string_view token) const {
  const std::size_t at = token.find(sep_);
  if (at == std::string_view::npos) {
    fail("token must be key" + std::string(1, sep_) + "value" +
         (head_words_.empty() ? "" : " or one of " + join(head_words_, "|")) +
         ": " + std::string(token));
  }
  const Token t{name_, token.substr(0, at), token.substr(at + 1), sep_};
  for (const Field& field : fields_) {
    if (field.key == t.key) {
      field.apply(t);
      return t.key;
    }
  }
  std::vector<std::string_view> keys;
  for (const Field& field : fields_) keys.push_back(field.key);
  fail("unknown key '" + std::string(t.key) + "'; valid keys: " +
       join(keys, ", "));
}

std::vector<std::string_view> Grammar::parse(std::string_view spec) const {
  if (spec.empty()) fail("empty spec (omit the key instead)");
  const auto heads = [this] { return join(head_words_, "|"); };
  std::vector<std::string_view> keys;
  bool head_seen = false;
  bool front = true;
  for_each_token(spec, [&](std::string_view token) {
    const bool at_front = std::exchange(front, false);
    const auto it = std::find(head_words_.begin(), head_words_.end(), token);
    if (it != head_words_.end()) {
      if (std::exchange(head_seen, true))
        fail("names two of " + heads() + ": " + std::string(spec));
      set_head_(static_cast<std::size_t>(it - head_words_.begin()));
    } else if (leading_ && at_front) {
      fail("must start with " + heads() + ", got: " + std::string(token));
    } else {
      keys.push_back(apply(token));
    }
  });
  if (!head_words_.empty() && !head_seen)
    fail("must name one of " + heads() + ": " + std::string(spec));
  return keys;
}

std::string_view head_word(std::string_view spec) {
  std::string_view head;
  for_each_token(spec, [&head](std::string_view token) {
    if (head.empty()) head = token;
  });
  return head;
}

}  // namespace mmr::opt
