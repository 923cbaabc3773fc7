// Differential fuzz test for instance text (io/text). A deterministic
// mutator damages seed instances (byte flips, dropped and duplicated
// tokens, duplicated and swapped lines, truncation, digit overflow, one number copied
// over another, CR/LF and tab whitespace, stray comments), and every mutant goes through the
// reference parser (tests/text_oracle.hpp) and the production parser.
// They must agree exactly:
//   * the same accept/reject decision, and on a reject the same what();
//   * on an accept, identical ops, edges (successor and predecessor
//     order), strands and observer;
//   * the stream and the in-place buffer parsers agree with each other;
//   * every accepted instance survives write -> read unchanged, and the
//     renderer's text is byte-identical to the reference renderer's.
// Mutants stay small (a few mutations of instances of at most a few
// thousand nodes; numbers are only ever overflowed past every bound), so
// the test runs in seconds under ASan and UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "construct/witness.hpp"
#include "io/text.hpp"
#include "models/examples.hpp"
#include "proc/random_program.hpp"
#include "text_oracle.hpp"
#include "util/rng.hpp"

namespace ccmm::io {
namespace {

struct Outcome {
  std::optional<TextPair> pair;  // set iff accepted
  std::string error;             // what() of the rejection
};

template <typename Parse>
Outcome run(Parse parse) {
  Outcome o;
  try {
    o.pair = parse();
  } catch (const std::runtime_error& e) {
    o.error = e.what();
  }
  return o;
}

/// Parses `text` as a pair with the reference and the production stream
/// parsers, and as a computation with all three computation parsers.
struct Parsed {
  Outcome pair_ref, pair_new, comp_ref, comp_stream, comp_buffer;
};

Parsed parse_all(const std::string& text) {
  Parsed p;
  p.pair_ref = run([&] {
    std::istringstream in(text);
    return oracle::read_pair(in);
  });
  p.pair_new = run([&] {
    std::istringstream in(text);
    return read_pair(in);
  });
  p.comp_ref = run([&] {
    std::istringstream in(text);
    return TextPair{oracle::read_computation(in), std::nullopt};
  });
  p.comp_stream = run([&] {
    std::istringstream in(text);
    return TextPair{read_computation(in), std::nullopt};
  });
  p.comp_buffer =
      run([&] { return TextPair{read_computation(text), std::nullopt}; });
  return p;
}

/// Identical computations: ops and successor lists (operator==), and
/// predecessor lists and the strand annotation, which it ignores. The
/// text lists edges grouped by source, so a write -> read round trip
/// keeps every predecessor list's members but not their order.
void expect_same_computation(const Computation& a, const Computation& b,
                             const std::string& ctx,
                             bool pred_order = true) {
  ASSERT_EQ(a.node_count(), b.node_count()) << ctx;
  EXPECT_TRUE(a == b) << ctx;
  for (NodeId u = 0; u < a.node_count(); ++u) {
    std::vector<NodeId> pa = a.dag().pred(u), pb = b.dag().pred(u);
    if (!pred_order) {
      std::sort(pa.begin(), pa.end());
      std::sort(pb.begin(), pb.end());
    }
    ASSERT_EQ(pa, pb) << ctx << " node " << u;
  }
  ASSERT_EQ(a.sp_structure() == nullptr, b.sp_structure() == nullptr) << ctx;
  if (a.sp_structure() != nullptr) {
    EXPECT_EQ(a.sp_structure()->node_count, b.sp_structure()->node_count)
        << ctx;
    EXPECT_EQ(a.sp_structure()->strands, b.sp_structure()->strands) << ctx;
  }
}

void expect_same(const Outcome& want, const Outcome& got,
                 const std::string& ctx) {
  ASSERT_EQ(want.pair.has_value(), got.pair.has_value())
      << ctx << "\n  reference: " << want.error << "\n  production: "
      << got.error;
  if (!want.pair.has_value()) {
    EXPECT_EQ(want.error, got.error) << ctx;
    return;
  }
  expect_same_computation(want.pair->c, got.pair->c, ctx);
  ASSERT_EQ(want.pair->phi.has_value(), got.pair->phi.has_value()) << ctx;
  if (want.pair->phi.has_value()) {
    EXPECT_TRUE(*want.pair->phi == *got.pair->phi) << ctx;
    EXPECT_EQ(write_observer(*got.pair->phi),
              oracle::write_observer(*want.pair->phi))
        << ctx;
  }
}

/// write -> read identity, and byte-identical rendering.
void expect_round_trip(const TextPair& p, const std::string& ctx) {
  const std::string text = p.phi.has_value()
                               ? write_pair(p.c, *p.phi)
                               : write_computation(p.c);
  const std::string ref = p.phi.has_value()
                              ? oracle::write_computation(p.c) +
                                    oracle::write_observer(*p.phi)
                              : oracle::write_computation(p.c);
  ASSERT_EQ(text, ref) << ctx;
  std::istringstream in(text);
  const TextPair back = read_pair(in);
  expect_same_computation(p.c, back.c, ctx + " (round trip)", false);
  ASSERT_EQ(p.phi.has_value(), back.phi.has_value()) << ctx;
  if (p.phi.has_value()) {
    EXPECT_TRUE(*p.phi == *back.phi) << ctx;
  }
  expect_same_computation(back.c, read_computation(text), ctx + " (buffer)");
  EXPECT_EQ(back.phi.has_value() ? write_pair(back.c, *back.phi)
                                 : write_computation(back.c),
            text)
      << ctx;
}

// -- the mutator -------------------------------------------------------

struct Span {
  std::size_t at, len;
};

std::vector<Span> tokens_of(const std::string& s) {
  std::vector<Span> out;
  std::size_t i = 0;
  const auto space = [](char ch) {
    return ch == ' ' || (ch >= '\t' && ch <= '\r');
  };
  while (i < s.size()) {
    while (i < s.size() && space(s[i])) ++i;
    const std::size_t start = i;
    while (i < s.size() && !space(s[i])) ++i;
    if (i > start) out.push_back({start, i - start});
  }
  return out;
}

std::vector<Span> lines_of(const std::string& s) {
  std::vector<Span> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i)
    if (i == s.size() || s[i] == '\n') {
      out.push_back({start, i - start});
      start = i + 1;
    }
  return out;
}

void mutate_once(std::string& s, Rng& rng) {
  if (s.empty()) {
    s = "computation\n";
    return;
  }
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.below(n));
  };
  static const char kAlphabet[] = "0123456789 \t\r\n#_-xyzNRWnsya\x00\xff";
  switch (rng.below(12)) {
    case 0:  // flip one bit
      s[pick(s.size())] ^= static_cast<char>(1u << rng.below(8));
      return;
    case 1:  // overwrite a byte
      s[pick(s.size())] = kAlphabet[pick(sizeof kAlphabet - 1)];
      return;
    case 2:
    case 3: {  // drop or duplicate a token
      const auto toks = tokens_of(s);
      if (toks.empty()) return;
      const Span t = toks[pick(toks.size())];
      if (rng.below(2) == 0)
        s.erase(t.at, t.len);
      else
        s.insert(t.at + t.len, " " + s.substr(t.at, t.len));
      return;
    }
    case 11: {  // duplicate a line: repeated `nodes`, edges, ops
      const auto lines = lines_of(s);
      const Span l = lines[pick(lines.size())];
      s.insert(l.at, s.substr(l.at, l.len) + "\n");
      return;
    }
    case 4: {  // swap two lines
      const auto lines = lines_of(s);
      const Span a = lines[pick(lines.size())];
      const Span b = lines[pick(lines.size())];
      if (a.at == b.at) return;
      const Span lo = a.at < b.at ? a : b;
      const Span hi = a.at < b.at ? b : a;
      s = s.substr(0, lo.at) + s.substr(hi.at, hi.len) +
          s.substr(lo.at + lo.len, hi.at - lo.at - lo.len) +
          s.substr(lo.at, lo.len) + s.substr(hi.at + hi.len);
      return;
    }
    case 5:  // truncate
      s.resize(pick(s.size()));
      return;
    case 6: {  // overflow a number past every bound the format has
      const auto toks = tokens_of(s);
      std::vector<Span> numeric;
      for (const Span& t : toks)
        if (s[t.at + t.len - 1] >= '0' && s[t.at + t.len - 1] <= '9')
          numeric.push_back(t);
      if (numeric.empty()) return;
      const Span t = numeric[pick(numeric.size())];
      const std::size_t keep =
          s[t.at] >= '0' && s[t.at] <= '9' ? 0 : 1;  // strand prefix
      s.replace(t.at + keep, t.len - keep,
                rng.below(2) == 0 ? "18446744073709551616" : "4294967296");
      return;
    }
    case 10: {  // copy one number over another: self-loops, repeats
      std::vector<Span> numeric;
      for (const Span& t : tokens_of(s))
        if (s[t.at] >= '0' && s[t.at] <= '9') numeric.push_back(t);
      if (numeric.size() < 2) return;
      const Span from = numeric[pick(numeric.size())];
      const Span to = numeric[pick(numeric.size())];
      s.replace(to.at, to.len, s.substr(from.at, from.len));
      return;
    }
    case 7: {  // CR/LF: a CRLF line end, or a line end lost
      const auto lines = lines_of(s);
      const Span l = lines[pick(lines.size())];
      const std::size_t end = l.at + l.len;
      if (end >= s.size()) return;
      if (rng.below(3) == 0)
        s.erase(end, 1);
      else
        s.insert(end, 1, '\r');
      return;
    }
    case 8: {  // other whitespace between tokens
      static const char* kSpaces[] = {"\t", " \t ", "\v", "\f", "  "};
      const std::size_t at = s.find(' ', pick(s.size()));
      if (at == std::string::npos) return;
      s.replace(at, 1, kSpaces[pick(5)]);
      return;
    }
    default:  // a stray comment
      s.insert(pick(s.size() + 1), "#");
      return;
  }
}

std::vector<std::string> seed_texts() {
  std::vector<std::string> seeds;
  for (const auto& p : examples::all()) seeds.push_back(write_pair(p.c, p.phi));
  const NonconstructibilityWitness w = figure4_witness();
  seeds.push_back(write_pair(w.c, w.phi));
  for (const std::uint64_t seed : {3u, 5u, 8u}) {
    Rng rng(seed);
    proc::RandomCilkOptions opt;
    opt.target_ops = 20 + 40 * seed;
    opt.nlocations = 3;
    seeds.push_back(write_computation(proc::random_cilk(opt, rng)));
  }
  seeds.push_back(
      "# hand-written, comments and blank lines\n\ncomputation\n"
      "nodes 4   # four\nop 0 W 1\nop 1 R 1\nop 2 N\nedge 0 1\n"
      "edge 0 1\nedge 2 3\nend\nobserver\nphi 1 1 0\nphi 1 3 _\nend\n");
  seeds.push_back("computation\nnodes 0\nend\n");
  return seeds;
}

TEST(TextFuzz, SeedsParseIdenticallyAndRoundTrip) {
  const auto seeds = seed_texts();
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const Parsed p = parse_all(seeds[i]);
    ASSERT_TRUE(p.pair_ref.pair.has_value()) << p.pair_ref.error;
    expect_same(p.pair_ref, p.pair_new, "seed " + std::to_string(i));
    expect_round_trip(*p.pair_new.pair, "seed " + std::to_string(i));
  }
}

TEST(TextFuzz, MutantsMatchTheReferenceParser) {
  const auto seeds = seed_texts();
  Rng rng(0x7e57f022);
  std::size_t accepted = 0, rejected = 0;
  constexpr int kMutantsPerSeed = 300;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    for (int k = 0; k < kMutantsPerSeed; ++k) {
      std::string text = seeds[i];
      const int nmut = 1 + static_cast<int>(rng.below(3));
      for (int m = 0; m < nmut; ++m) mutate_once(text, rng);
      const std::string ctx = "seed " + std::to_string(i) + " mutant " +
                              std::to_string(k) + ":\n" + text;
      const Parsed p = parse_all(text);
      expect_same(p.pair_ref, p.pair_new, ctx + "\n[pair]");
      expect_same(p.comp_ref, p.comp_stream, ctx + "\n[stream]");
      expect_same(p.comp_ref, p.comp_buffer, ctx + "\n[buffer]");
      if (p.pair_ref.pair.has_value() && p.pair_new.pair.has_value()) {
        ++accepted;
        expect_round_trip(*p.pair_new.pair, ctx);
      } else {
        ++rejected;
        // The error contract: every rejection is a numbered parse error.
        EXPECT_EQ(p.pair_new.error.rfind("ccmm text parse error, line ", 0),
                  0u)
            << ctx << "\n" << p.pair_new.error;
      }
      if (::testing::Test::HasFailure()) return;  // one report is enough
    }
  }
  // The mutator must exercise both sides of the decision.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 1000u);
}

}  // namespace
}  // namespace ccmm::io
