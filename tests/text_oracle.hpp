// tests/text_oracle.hpp
//
// Reference implementation of the io/text format, kept as a test oracle
// outside the production API: the original parser (one istringstream
// and one std::vector<std::string> per line) and the original renderer
// (one format() call per line). The production front end in
// src/io/text.cpp must match it byte for byte: the same Computation,
// observer and strands on every accepted input, the same what() on every
// rejected one, and the same rendered text.
//
// The oracle carries the three rejections the format's error contract
// added over the original parser, each at its own line, so that no
// malformed input escapes as a crash or a std::logic_error:
//   * every node id is out of range when `nodes 0`;
//   * `edge u u` is a self-loop;
//   * a second `nodes` line is an error (it used to reset the ops and
//     leave earlier edges dangling).
#pragma once

#include <cstdint>
#include <istream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/observer.hpp"
#include "io/text.hpp"
#include "util/str.hpp"

namespace ccmm::io::oracle {

[[noreturn]] inline void parse_error(std::size_t line,
                                     const std::string& what) {
  throw std::runtime_error(format("ccmm text parse error, line %zu: %s",
                                  line, what.c_str()));
}

/// Tokenized directive lines with line numbers; skips comments/blanks.
class LineReader {
 public:
  explicit LineReader(std::istream& in) : in_(in) {}

  /// Next directive as tokens; empty vector at end of stream.
  std::vector<std::string> next() {
    std::string raw;
    while (std::getline(in_, raw)) {
      ++line_;
      const auto hash = raw.find('#');
      if (hash != std::string::npos) raw.erase(hash);
      std::istringstream ss(raw);
      std::vector<std::string> tokens;
      std::string tok;
      while (ss >> tok) tokens.push_back(tok);
      if (!tokens.empty()) return tokens;
    }
    return {};
  }

  [[nodiscard]] std::size_t line() const { return line_; }

 private:
  std::istream& in_;
  std::size_t line_ = 0;
};

inline std::uint64_t parse_number(const LineReader& r, const std::string& tok,
                                  std::uint64_t max) {
  std::uint64_t value = 0;
  if (tok.empty()) parse_error(r.line(), "expected a number");
  for (const char ch : tok) {
    if (ch < '0' || ch > '9')
      parse_error(r.line(), "expected a number, got '" + tok + "'");
    value = value * 10 + static_cast<std::uint64_t>(ch - '0');
    if (value > max) parse_error(r.line(), "number out of range: " + tok);
  }
  return value;
}

inline NodeId parse_node(const LineReader& r, const std::string& tok,
                         std::size_t n) {
  const auto v = parse_number(r, tok, n > 0 ? n - 1 : 0);
  if (n == 0) parse_error(r.line(), "number out of range: " + tok);
  return static_cast<NodeId>(v);
}

inline Computation read_computation_body(LineReader& r) {
  auto header = r.next();
  if (header.empty() || header[0] != "computation")
    parse_error(r.line(), "expected 'computation'");

  std::optional<std::size_t> n;
  std::vector<Op> ops;
  std::vector<Edge> edges;
  std::vector<std::vector<SpEvent>> strands;
  for (;;) {
    const auto t = r.next();
    if (t.empty()) parse_error(r.line(), "unexpected end of input");
    if (t[0] == "end") break;
    if (t[0] == "nodes") {
      if (n.has_value()) parse_error(r.line(), "'nodes' given twice");
      if (t.size() != 2) parse_error(r.line(), "usage: nodes <n>");
      n = static_cast<std::size_t>(
          parse_number(r, t[1], std::uint64_t{1} << 28));
      ops.assign(*n, Op::nop());
    } else if (t[0] == "op") {
      if (!n.has_value()) parse_error(r.line(), "'op' before 'nodes'");
      if (t.size() < 3) parse_error(r.line(), "usage: op <id> N|R|W [loc]");
      const NodeId id = parse_node(r, t[1], *n);
      if (t[2] == "N") {
        if (t.size() != 3) parse_error(r.line(), "N takes no location");
        ops[id] = Op::nop();
      } else if (t[2] == "R" || t[2] == "W") {
        if (t.size() != 4) parse_error(r.line(), "R/W need a location");
        const auto loc = static_cast<Location>(parse_number(r, t[3], 1u << 30));
        ops[id] = t[2] == "R" ? Op::read(loc) : Op::write(loc);
      } else {
        parse_error(r.line(), "unknown op kind '" + t[2] + "'");
      }
    } else if (t[0] == "edge") {
      if (!n.has_value()) parse_error(r.line(), "'edge' before 'nodes'");
      if (t.size() != 3) parse_error(r.line(), "usage: edge <from> <to>");
      const NodeId from = parse_node(r, t[1], *n);
      const NodeId to = parse_node(r, t[2], *n);
      if (from == to)
        parse_error(r.line(), format("self-loop edge %u -> %u", from, to));
      edges.push_back({from, to});
    } else if (t[0] == "strand") {
      if (!n.has_value()) parse_error(r.line(), "'strand' before 'nodes'");
      std::vector<SpEvent> events;
      events.reserve(t.size() - 1);
      for (std::size_t i = 1; i < t.size(); ++i) {
        const std::string& tok = t[i];
        if (tok.size() < 2)
          parse_error(r.line(), "bad strand event '" + tok + "'");
        const std::string num = tok.substr(1);
        SpEvent e;
        switch (tok[0]) {
          case 'n':
            e.kind = SpEvent::Kind::kNode;
            e.node = parse_node(r, num, *n);
            break;
          case 's':
            e.kind = SpEvent::Kind::kSpawn;
            e.child =
                static_cast<std::uint32_t>(parse_number(r, num, UINT32_MAX));
            break;
          case 'y':
            e.kind = SpEvent::Kind::kSync;
            e.node = num == "_" ? kBottom : parse_node(r, num, *n);
            break;
          case 'a':
            e.kind = SpEvent::Kind::kAdopt;
            e.child =
                static_cast<std::uint32_t>(parse_number(r, num, UINT32_MAX));
            break;
          default:
            parse_error(r.line(), "bad strand event '" + tok + "'");
        }
        events.push_back(e);
      }
      strands.push_back(std::move(events));
    } else {
      parse_error(r.line(), "unknown directive '" + t[0] + "'");
    }
  }
  if (!n.has_value()) parse_error(r.line(), "missing 'nodes'");
  Dag dag(*n, edges);
  if (!dag.is_acyclic()) parse_error(r.line(), "edges form a cycle");
  Computation c(std::move(dag), std::move(ops));
  if (!strands.empty()) {
    auto sp = std::make_shared<SpStructure>();
    sp->strands = std::move(strands);
    sp->node_count = *n;
    for (const auto& stream : sp->strands)
      for (const SpEvent& e : stream)
        if ((e.kind == SpEvent::Kind::kSpawn ||
             e.kind == SpEvent::Kind::kAdopt) &&
            e.child >= sp->strands.size())
          parse_error(r.line(),
                      format("strand event names unknown strand %u", e.child));
    c.set_sp_structure(std::move(sp));
  }
  return c;
}

/// The lines of an observer block after its header, through `end`.
inline ObserverFunction read_observer_rest(LineReader& r,
                                           std::size_t node_count) {
  ObserverFunction phi(node_count);
  for (;;) {
    const auto t = r.next();
    if (t.empty()) parse_error(r.line(), "unexpected end of input");
    if (t[0] == "end") break;
    if (t[0] != "phi")
      parse_error(r.line(), "unknown directive '" + t[0] + "'");
    if (t.size() != 4)
      parse_error(r.line(), "usage: phi <loc> <node> <observed|_>");
    const auto loc = static_cast<Location>(parse_number(r, t[1], 1u << 30));
    const NodeId u = parse_node(r, t[2], node_count);
    const NodeId v = t[3] == "_" ? kBottom : parse_node(r, t[3], node_count);
    phi.set(loc, u, v);
  }
  return phi;
}

inline Computation read_computation(std::istream& in) {
  LineReader r(in);
  return read_computation_body(r);
}

inline ObserverFunction read_observer(std::istream& in,
                                      std::size_t node_count) {
  LineReader r(in);
  const auto header = r.next();
  if (header.empty() || header[0] != "observer")
    parse_error(r.line(), "expected 'observer'");
  return read_observer_rest(r, node_count);
}

inline TextPair read_pair(std::istream& in) {
  LineReader r(in);
  TextPair pair;
  pair.c = read_computation_body(r);
  const auto t = r.next();
  if (t.empty()) return pair;
  if (t[0] != "observer")
    parse_error(r.line(), "expected 'observer' or end of file");
  pair.phi = read_observer_rest(r, pair.c.node_count());
  return pair;
}

inline std::string write_computation(const Computation& c) {
  std::string out = "computation\n";
  out += format("nodes %zu\n", c.node_count());
  for (NodeId u = 0; u < c.node_count(); ++u) {
    const Op o = c.op(u);
    if (o.is_nop()) continue;
    out += format("op %u %s %u\n", u, o.is_read() ? "R" : "W", o.loc);
  }
  for (const auto& e : c.dag().edges())
    out += format("edge %u %u\n", e.from, e.to);
  const SpStructure* sp = c.sp_structure().get();
  if (sp != nullptr && sp->node_count == c.node_count()) {
    for (const auto& stream : sp->strands) {
      out += "strand";
      for (const SpEvent& e : stream) {
        switch (e.kind) {
          case SpEvent::Kind::kNode:
            out += format(" n%u", e.node);
            break;
          case SpEvent::Kind::kSpawn:
            out += format(" s%u", e.child);
            break;
          case SpEvent::Kind::kSync:
            if (e.node == kBottom)
              out += " y_";
            else
              out += format(" y%u", e.node);
            break;
          case SpEvent::Kind::kAdopt:
            out += format(" a%u", e.child);
            break;
        }
      }
      out += "\n";
    }
  }
  out += "end\n";
  return out;
}

inline std::string write_observer(const ObserverFunction& phi) {
  std::string out = "observer\n";
  for (const Location l : phi.active_locations())
    for (NodeId u = 0; u < phi.node_count(); ++u) {
      const NodeId v = phi.get(l, u);
      if (v != kBottom) out += format("phi %u %u %u\n", l, u, v);
    }
  out += "end\n";
  return out;
}

}  // namespace ccmm::io::oracle
