#include "util/text_lines.hpp"

#include <cstring>
#include <istream>

namespace ccmm {
namespace {

constexpr bool is_space(char ch) noexcept {
  return ch == ' ' || (ch >= '\t' && ch <= '\r');
}

}  // namespace

bool TextLines::next_line(std::string_view& raw) {
  if (in_ != nullptr) {
    if (!std::getline(*in_, buf_)) return false;
    raw = buf_;
    return true;
  }
  if (at_ >= text_.size()) return false;
  const char* begin = text_.data() + at_;
  const std::size_t left = text_.size() - at_;
  const void* nl = std::memchr(begin, '\n', left);
  const std::size_t len =
      nl == nullptr ? left : static_cast<std::size_t>(
                                 static_cast<const char*>(nl) - begin);
  raw = std::string_view(begin, len);
  at_ += nl == nullptr ? len : len + 1;
  return true;
}

const std::vector<std::string_view>& TextLines::next() {
  tokens_.clear();
  std::string_view raw;
  while (next_line(raw)) {
    ++line_;
    const std::size_t hash = raw.find('#');
    if (hash != std::string_view::npos) raw = raw.substr(0, hash);
    const char* p = raw.data();
    const char* const end = p + raw.size();
    for (;;) {
      while (p != end && is_space(*p)) ++p;
      if (p == end) break;
      const char* const start = p;
      while (p != end && !is_space(*p)) ++p;
      tokens_.emplace_back(start, static_cast<std::size_t>(p - start));
    }
    if (!tokens_.empty()) break;
  }
  return tokens_;
}

DecimalError parse_decimal(std::string_view tok, std::uint64_t max,
                           std::uint64_t& value) noexcept {
  if (tok.empty()) return DecimalError::kNotANumber;
  std::uint64_t v = 0;
  for (const char ch : tok) {
    if (ch < '0' || ch > '9') return DecimalError::kNotANumber;
    const auto d = static_cast<std::uint64_t>(ch - '0');
    // v * 10 + d > max, without overflowing.
    if (d > max || v > (max - d) / 10) return DecimalError::kOutOfRange;
    v = v * 10 + d;
  }
  value = v;
  return DecimalError::kNone;
}

}  // namespace ccmm
