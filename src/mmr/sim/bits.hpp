// Word-parallel bit rows: sets of small integers (ports, VCs) stored one
// bit per member in uint64_t words, searched with countr_zero instead of
// member-by-member scans.  The bitset arbiters keep their request matrices
// in these rows; the NIC link controller keeps its ready-VC set in one.
#pragma once

#include <bit>
#include <cstdint>

namespace mmr {

inline constexpr std::uint32_t kBitsPerWord = 64;

/// Words per bit-row for a given member count.
[[nodiscard]] constexpr std::uint32_t bit_words(std::uint32_t members) {
  return (members + (kBitsPerWord - 1)) / kBitsPerWord;
}

inline void bits_set(std::uint64_t* words, std::uint32_t bit) {
  words[bit >> 6] |= std::uint64_t{1} << (bit & 63u);
}

inline void bits_clear(std::uint64_t* words, std::uint32_t bit) {
  words[bit >> 6] &= ~(std::uint64_t{1} << (bit & 63u));
}

[[nodiscard]] inline bool bits_test(const std::uint64_t* words,
                                    std::uint32_t bit) {
  return (words[bit >> 6] >> (bit & 63u)) & 1u;
}

/// First set bit at or after `start`, wrapping around (the round-robin
/// pointer search of iSLIP's grant stage).  Returns -1 when no bit is set.
/// `start` must lie inside the row.
[[nodiscard]] inline std::int32_t bits_first_cyclic(const std::uint64_t* words,
                                                    std::uint32_t word_count,
                                                    std::uint32_t start) {
  const std::uint32_t start_word = start >> 6;
  const std::uint32_t start_bit = start & 63u;
  const std::uint64_t above = ~std::uint64_t{0} << start_bit;
  std::uint64_t w = words[start_word] & above;
  if (w != 0)
    return static_cast<std::int32_t>(
        start_word * 64 + static_cast<std::uint32_t>(std::countr_zero(w)));
  for (std::uint32_t k = start_word + 1; k < word_count; ++k) {
    if (words[k] != 0)
      return static_cast<std::int32_t>(
          k * 64 + static_cast<std::uint32_t>(std::countr_zero(words[k])));
  }
  for (std::uint32_t k = 0; k < start_word; ++k) {
    if (words[k] != 0)
      return static_cast<std::int32_t>(
          k * 64 + static_cast<std::uint32_t>(std::countr_zero(words[k])));
  }
  w = words[start_word] & ~above;
  if (w != 0)
    return static_cast<std::int32_t>(
        start_word * 64 + static_cast<std::uint32_t>(std::countr_zero(w)));
  return -1;
}

}  // namespace mmr
