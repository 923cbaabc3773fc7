// ccmm/util/text_lines.hpp
//
// The one tokenizer under ccmm's line-oriented text formats (io/text
// instances and text traces). Each line is cut at its first '#' and
// split on ASCII whitespace (space, \t, \n, \v, \f, \r) into
// std::string_view tokens kept in one reused vector, so a million-line
// instance costs no allocation per line or per token.
//
// Lines come from one of two sources:
//   * an std::istream, read with getline into one reused buffer. Nothing
//     past the current line is consumed, so a caller can stop at a block's
//     `end` and hand the rest of the stream to the next reader;
//   * a contiguous buffer (a file image, a frame payload), read in place.
// Both number lines the way getline does: a final line without '\n'
// counts, an empty tail after the last '\n' does not.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace ccmm {

class TextLines {
 public:
  explicit TextLines(std::istream& in) : in_(&in) {}
  explicit TextLines(std::string_view text) : text_(text) {}

  /// The tokens of the next line that has any (blank and comment-only
  /// lines are skipped); empty at end of input. The views stay valid
  /// until the next call, and for a buffer source as long as the buffer.
  const std::vector<std::string_view>& next();

  /// Lines read so far: the number of the line next() last returned, or
  /// the line count once the input is exhausted.
  [[nodiscard]] std::size_t line() const noexcept { return line_; }

 private:
  bool next_line(std::string_view& raw);

  std::istream* in_ = nullptr;
  std::string_view text_;
  std::size_t at_ = 0;
  std::string buf_;
  std::vector<std::string_view> tokens_;
  std::size_t line_ = 0;
};

/// How parse_decimal failed.
enum class DecimalError { kNone, kNotANumber, kOutOfRange };

/// Parses `tok` as plain decimal digits into `value`, checking digit by
/// digit in order: the first non-digit gives kNotANumber, the first
/// prefix whose value exceeds `max` gives kOutOfRange (whichever comes
/// first). An empty token is kNotANumber. `max` may be UINT64_MAX.
[[nodiscard]] DecimalError parse_decimal(std::string_view tok,
                                         std::uint64_t max,
                                         std::uint64_t& value) noexcept;

}  // namespace ccmm
