// ccmm/io/text.hpp
//
// A line-oriented text format for computations and observer functions,
// so instances can be stored in files, shipped in bug reports, fed to
// the ccmm_check command-line tool and sent to ccmm_serve in a kOpen
// frame. Grammar (one directive per line, whitespace-separated tokens,
// '#' starts a comment that runs to the end of the line, blank lines
// ignored):
//
//   computation
//   nodes <n>
//   op <id> N            |  op <id> R <loc>  |  op <id> W <loc>
//   edge <from> <to>
//   strand <event>...
//   end
//
//   observer
//   phi <loc> <node> <observed-node | _>     (_ = ⊥)
//   end
//
// Unlisted ops default to N; unlisted phi entries default to ⊥. Numbers
// are plain decimal digits: n ≤ 2^28, node ids < n, locations ≤ 2^30.
// `nodes` comes once, before any op, edge or strand line.
//
// A `strand` line records one series-parallel strand of the front end
// that built the computation (proc::CilkProgram), its events in stream
// order: n<node> (the strand executed node), s<k> (spawned strand k),
// y<node> or y_ (sync, joining at node or at no node), a<k> (adopted
// strand k as a plain call). Strand k is the k-th strand line; indices
// may point forward. Readers that find strand lines attach the parse as
// the computation's SpStructure, which lets the race engines use
// SP-bags; without it they fall back to the generic-dag engines.
//
// Error contract: every malformed input throws std::runtime_error whose
// what() is "ccmm text parse error, line N: <reason>", N being the line
// at fault (for errors found at the end of a block, such as a cycle, the
// block's last line read). This covers unknown directives, bad arity,
// non-numbers, out-of-range numbers (every node id when n = 0),
// self-loops, a second `nodes` line, unknown strand indices, cycles and
// truncated input. No input reaches an assertion or undefined behaviour.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "core/observer.hpp"

namespace ccmm::io {

/// Render / parse a computation. Parsing throws std::runtime_error with
/// a line number on malformed input. The stream overload reads through
/// the block's `end` line and no further; the string_view overload
/// parses a contiguous buffer in place (no copy of the text).
[[nodiscard]] std::string write_computation(const Computation& c);
[[nodiscard]] Computation read_computation(std::istream& in);
[[nodiscard]] Computation read_computation(std::string_view text);

/// Render / parse an observer function (node_count taken from the
/// paired computation when parsing).
[[nodiscard]] std::string write_observer(const ObserverFunction& phi);
[[nodiscard]] ObserverFunction read_observer(std::istream& in,
                                             std::size_t node_count);

/// A pair file is a computation block followed by an optional observer
/// block. read_pair stops after the observer's `end`, so a stream of
/// complete pairs can be read one pair per call.
struct TextPair {
  Computation c;
  std::optional<ObserverFunction> phi;
};
[[nodiscard]] std::string write_pair(const Computation& c,
                                     const ObserverFunction& phi);
[[nodiscard]] TextPair read_pair(std::istream& in);

}  // namespace ccmm::io
