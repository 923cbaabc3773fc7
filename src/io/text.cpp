#include "io/text.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <istream>
#include <optional>
#include <stdexcept>

#include "util/str.hpp"
#include "util/text_lines.hpp"

namespace ccmm::io {
namespace {

using Tokens = std::vector<std::string_view>;

[[noreturn]] void parse_error(std::size_t line, const std::string& what) {
  throw std::runtime_error(format("ccmm text parse error, line %zu: %s",
                                  line, what.c_str()));
}

std::string quoted(std::string_view tok) {
  std::string s = "'";
  s += tok;
  s += '\'';
  return s;
}

std::uint64_t parse_number(const TextLines& r, std::string_view tok,
                           std::uint64_t max) {
  std::uint64_t value = 0;
  switch (parse_decimal(tok, max, value)) {
    case DecimalError::kNone:
      break;
    case DecimalError::kNotANumber:
      if (tok.empty()) parse_error(r.line(), "expected a number");
      parse_error(r.line(), "expected a number, got " + quoted(tok));
    case DecimalError::kOutOfRange:
      parse_error(r.line(), "number out of range: " + std::string(tok));
  }
  return value;
}

/// A node id of an n-node computation; with n = 0 every id is out of
/// range.
NodeId parse_node(const TextLines& r, std::string_view tok, std::size_t n) {
  const auto v = parse_number(r, tok, n > 0 ? n - 1 : 0);
  if (n == 0) parse_error(r.line(), "number out of range: " + std::string(tok));
  return static_cast<NodeId>(v);
}

Location parse_location(const TextLines& r, std::string_view tok) {
  return static_cast<Location>(parse_number(r, tok, 1u << 30));
}

/// One `strand` line: series-parallel events in stream order, n<node>
/// (executed), s<strand> (spawn), y<node>|y_ (sync, '_' = no join
/// node), a<strand> (plain-call adoption). Strand indices may point
/// forward; they are validated once all lines are in.
std::vector<SpEvent> parse_strand(const TextLines& r, const Tokens& t,
                                  std::size_t n) {
  std::vector<SpEvent> events;
  events.reserve(t.size() - 1);
  for (std::size_t i = 1; i < t.size(); ++i) {
    const std::string_view tok = t[i];
    if (tok.size() < 2) parse_error(r.line(), "bad strand event " + quoted(tok));
    const std::string_view num = tok.substr(1);
    SpEvent e;
    switch (tok[0]) {
      case 'n':
        e.kind = SpEvent::Kind::kNode;
        e.node = parse_node(r, num, n);
        break;
      case 's':
        e.kind = SpEvent::Kind::kSpawn;
        e.child = static_cast<std::uint32_t>(parse_number(r, num, UINT32_MAX));
        break;
      case 'y':
        e.kind = SpEvent::Kind::kSync;
        e.node = num == "_" ? kBottom : parse_node(r, num, n);
        break;
      case 'a':
        e.kind = SpEvent::Kind::kAdopt;
        e.child = static_cast<std::uint32_t>(parse_number(r, num, UINT32_MAX));
        break;
      default:
        parse_error(r.line(), "bad strand event " + quoted(tok));
    }
    events.push_back(e);
  }
  return events;
}

Computation read_computation_body(TextLines& r) {
  const Tokens& header = r.next();
  if (header.empty() || header[0] != "computation")
    parse_error(r.line(), "expected 'computation'");

  std::optional<std::size_t> n;
  std::vector<Op> ops;
  std::vector<Edge> edges;
  std::vector<std::vector<SpEvent>> strands;
  for (;;) {
    const Tokens& t = r.next();
    if (t.empty()) parse_error(r.line(), "unexpected end of input");
    const std::string_view directive = t[0];
    if (directive == "end") break;
    if (directive == "nodes") {
      if (n.has_value()) parse_error(r.line(), "'nodes' given twice");
      if (t.size() != 2) parse_error(r.line(), "usage: nodes <n>");
      n = static_cast<std::size_t>(
          parse_number(r, t[1], std::uint64_t{1} << 28));
      ops.assign(*n, Op::nop());
    } else if (directive == "op") {
      if (!n.has_value()) parse_error(r.line(), "'op' before 'nodes'");
      if (t.size() < 3) parse_error(r.line(), "usage: op <id> N|R|W [loc]");
      const NodeId id = parse_node(r, t[1], *n);
      const std::string_view kind = t[2];
      if (kind == "N") {
        if (t.size() != 3) parse_error(r.line(), "N takes no location");
        ops[id] = Op::nop();
      } else if (kind == "R" || kind == "W") {
        if (t.size() != 4) parse_error(r.line(), "R/W need a location");
        const Location loc = parse_location(r, t[3]);
        ops[id] = kind == "R" ? Op::read(loc) : Op::write(loc);
      } else {
        parse_error(r.line(), "unknown op kind " + quoted(kind));
      }
    } else if (directive == "edge") {
      if (!n.has_value()) parse_error(r.line(), "'edge' before 'nodes'");
      if (t.size() != 3) parse_error(r.line(), "usage: edge <from> <to>");
      const NodeId from = parse_node(r, t[1], *n);
      const NodeId to = parse_node(r, t[2], *n);
      if (from == to)
        parse_error(r.line(), format("self-loop edge %u -> %u", from, to));
      edges.push_back({from, to});
    } else if (directive == "strand") {
      if (!n.has_value()) parse_error(r.line(), "'strand' before 'nodes'");
      strands.push_back(parse_strand(r, t, *n));
    } else {
      parse_error(r.line(), "unknown directive " + quoted(directive));
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
ObserverFunction read_observer_rest(TextLines& r, std::size_t node_count) {
  ObserverFunction phi(node_count);
  for (;;) {
    const Tokens& t = r.next();
    if (t.empty()) parse_error(r.line(), "unexpected end of input");
    if (t[0] == "end") break;
    if (t[0] != "phi") parse_error(r.line(), "unknown directive " + quoted(t[0]));
    if (t.size() != 4)
      parse_error(r.line(), "usage: phi <loc> <node> <observed|_>");
    const Location loc = parse_location(r, t[1]);
    const NodeId u = parse_node(r, t[2], node_count);
    const NodeId v = t[3] == "_" ? kBottom : parse_node(r, t[3], node_count);
    phi.set(loc, u, v);
  }
  return phi;
}

/// Appends the decimal digits of `v`.
void put_uint(std::string& out, std::uint64_t v) {
  char buf[20];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

std::size_t digits(std::uint64_t v) {
  std::size_t d = 1;
  for (; v >= 10; v /= 10) ++d;
  return d;
}

}  // namespace

std::string write_computation(const Computation& c) {
  const std::size_t n = c.node_count();
  const SpStructure* sp = c.sp_structure().get();
  // The series-parallel parse rides along when the front end recorded
  // one: without it a reader falls back to generic-dag oracles, which
  // is a silent order-of-magnitude checking slowdown, not an error.
  const bool with_strands = sp != nullptr && sp->node_count == n;

  // One reservation from per-line upper bounds: every node id has at
  // most digits(n) digits, every location at most 10, every strand
  // index at most digits(strand count).
  const std::size_t dn = digits(n);
  std::size_t bound = 32 + dn;
  for (NodeId u = 0; u < n; ++u)
    if (!c.op(u).is_nop()) bound += 3 + dn + 3 + 10 + 1;
  bound += c.dag().edge_count() * (5 + 2 * dn + 2);
  if (with_strands) {
    const std::size_t ds = std::max(dn, digits(sp->strands.size()));
    for (const auto& stream : sp->strands) bound += 7 + stream.size() * (2 + ds);
  }
  std::string out;
  out.reserve(bound);

  out += "computation\nnodes ";
  put_uint(out, n);
  out += '\n';
  for (NodeId u = 0; u < n; ++u) {
    const Op o = c.op(u);
    if (o.is_nop()) continue;  // N is the default
    out += "op ";
    put_uint(out, u);
    out += o.is_read() ? " R " : " W ";
    put_uint(out, o.loc);
    out += '\n';
  }
  for (NodeId u = 0; u < n; ++u)
    for (const NodeId v : c.dag().succ(u)) {
      out += "edge ";
      put_uint(out, u);
      out += ' ';
      put_uint(out, v);
      out += '\n';
    }
  if (with_strands) {
    for (const auto& stream : sp->strands) {
      out += "strand";
      for (const SpEvent& e : stream) {
        switch (e.kind) {
          case SpEvent::Kind::kNode:
            out += " n";
            put_uint(out, e.node);
            break;
          case SpEvent::Kind::kSpawn:
            out += " s";
            put_uint(out, e.child);
            break;
          case SpEvent::Kind::kSync:
            out += " y";
            if (e.node == kBottom)
              out += '_';
            else
              put_uint(out, e.node);
            break;
          case SpEvent::Kind::kAdopt:
            out += " a";
            put_uint(out, e.child);
            break;
        }
      }
      out += '\n';
    }
  }
  out += "end\n";
  return out;
}

Computation read_computation(std::istream& in) {
  TextLines r(in);
  return read_computation_body(r);
}

Computation read_computation(std::string_view text) {
  TextLines r(text);
  return read_computation_body(r);
}

std::string write_observer(const ObserverFunction& phi) {
  std::string out = "observer\n";
  // stored_locations() is sorted; all-⊥ columns render no line, so this
  // walks exactly the active locations.
  const std::vector<Location>& locs = phi.stored_locations();
  for (std::size_t i = 0; i < locs.size(); ++i) {
    const std::vector<NodeId>& col = phi.stored_column(i);
    for (NodeId u = 0; u < col.size(); ++u) {
      if (col[u] == kBottom) continue;
      out += "phi ";
      put_uint(out, locs[i]);
      out += ' ';
      put_uint(out, u);
      out += ' ';
      put_uint(out, col[u]);
      out += '\n';
    }
  }
  out += "end\n";
  return out;
}

ObserverFunction read_observer(std::istream& in, std::size_t node_count) {
  TextLines r(in);
  const Tokens& header = r.next();
  if (header.empty() || header[0] != "observer")
    parse_error(r.line(), "expected 'observer'");
  return read_observer_rest(r, node_count);
}

std::string write_pair(const Computation& c, const ObserverFunction& phi) {
  return write_computation(c) + write_observer(phi);
}

TextPair read_pair(std::istream& in) {
  TextLines r(in);
  TextPair pair;
  pair.c = read_computation_body(r);
  // Optional observer block: peek for the header.
  const Tokens& t = r.next();
  if (t.empty()) return pair;
  if (t[0] != "observer")
    parse_error(r.line(), "expected 'observer' or end of file");
  pair.phi = read_observer_rest(r, pair.c.node_count());
  return pair;
}

}  // namespace ccmm::io
