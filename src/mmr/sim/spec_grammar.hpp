// The one tokenizer and typed-field table behind every option grammar: the
// `key=value` overrides (apply_overrides) and the `key:value` specs of
// flow=, police=, rogue=, qd=, trace=, snap= and fault=.  Each field's type
// carries its check, as in ns-3's attribute table (AddAttribute with a
// MakeUintegerChecker<uint32_t>).  Rules and messages: DESIGN.md §18.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace mmr::opt {

/// Bounds of an unsigned field; `name` says where `max` comes from.
struct Limit {
  std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  const char* name = "the 64-bit field";
  std::uint64_t min = 0;
};
inline constexpr Limit k32Bit{std::numeric_limits<std::uint32_t>::max(),
                              "the 32-bit field"};

/// Bounds of a finite double field.
struct Range {
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
  bool min_open = false;  ///< (min, max] instead of [min, max]
};

/// One `key<sep>value` token; the converters check the whole value.
struct Token {
  std::string_view grammar;
  std::string_view key;
  std::string_view value;
  char sep = ':';

  /// Throws std::invalid_argument "<grammar>: <key><sep><value> <why>".
  [[noreturn]] void fail(const std::string& why) const;
  /// Decimal digits only (no sign, no spaces), within `limit`.
  [[nodiscard]] std::uint64_t unsigned_int(const Limit& limit = {}) const;
  [[nodiscard]] std::size_t one_of(
      const std::vector<std::string_view>& words) const;
};

/// One row of a grammar's table.
struct Field {
  std::string_view key;
  std::function<void(const Token&)> apply;
};

Field u64(std::string_view key, std::uint64_t& out, Limit limit = {});
Field u32(std::string_view key, std::uint32_t& out, Limit limit = k32Bit);
Field real(std::string_view key, double& out, Range range = {});
Field flag(std::string_view key, bool& out);  ///< `0|1` only
Field text(std::string_view key, std::string& out);

/// Spellings of enum values: `to_string(value)`, found by ADL.
template <typename E>
std::vector<std::string_view> words_of(std::initializer_list<E> values) {
  std::vector<std::string_view> words;
  for (const E value : values) words.emplace_back(to_string(value));
  return words;
}

template <typename E>
Field choice(std::string_view key, E& out, std::initializer_list<E> values) {
  return {key, [&out, words = words_of(values),
                all = std::vector<E>(values)](const Token& t) {
            out = all[t.one_of(words)];
          }};
}

class Grammar {
 public:
  Grammar(std::string_view name, std::vector<Field> fields, char sep = ':');

  /// Declares the head word: a bare token naming the grammar's mode,
  /// required exactly once -- first (`leading`: flow=, qd=) or anywhere
  /// (police=, trace=).
  template <typename E>
  Grammar& head(E& out, std::initializer_list<E> values, bool leading) {
    head_words_ = words_of(values);
    set_head_ = [&out, all = std::vector<E>(values)](std::size_t i) {
      out = all[i];
    };
    leading_ = leading;
    return *this;
  }

  /// Applies one `key<sep>value` token; returns its key.
  std::string_view apply(std::string_view token) const;

  /// Applies a whole non-empty spec; returns the keys applied, in order
  /// (views into `spec`).
  std::vector<std::string_view> parse(std::string_view spec) const;

 private:
  [[noreturn]] void fail(const std::string& why) const;

  std::string_view name_;
  std::vector<Field> fields_;
  char sep_;
  std::vector<std::string_view> head_words_;
  std::function<void(std::size_t)> set_head_;
  bool leading_ = false;
};

/// The first non-empty comma-separated token of `spec` ("" if none): the
/// mode of a leading-head grammar, for callers that need nothing else.
[[nodiscard]] std::string_view head_word(std::string_view spec);

}  // namespace mmr::opt
