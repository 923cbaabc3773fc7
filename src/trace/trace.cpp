#include "trace/trace.hpp"

#include <algorithm>
#include <istream>
#include <sstream>
#include <stdexcept>

#include "util/str.hpp"
#include "util/text_lines.hpp"

namespace ccmm {

std::vector<NodeId> trace_order(const Trace& trace) {
  std::vector<NodeId> order;
  order.reserve(trace.events.size());
  // Traces straight from the simulator — and binary files we emitted —
  // are already seq-sorted; skip the pointer sort for them.
  bool sorted = true;
  for (std::size_t i = 1; i < trace.events.size(); ++i)
    if (trace.events[i - 1].seq > trace.events[i].seq) {
      sorted = false;
      break;
    }
  if (sorted) {
    for (const auto& e : trace.events) order.push_back(e.node);
    return order;
  }
  std::vector<const TraceEvent*> view;
  view.reserve(trace.events.size());
  for (const auto& e : trace.events) view.push_back(&e);
  std::sort(view.begin(), view.end(),
            [](const TraceEvent* a, const TraceEvent* b) {
              return a->seq < b->seq;
            });
  for (const auto* e : view) order.push_back(e->node);
  return order;
}

bool trace_consistent_with(const Trace& trace, const Computation& c,
                           std::string* why) {
  const auto fail = [&](std::string reason) {
    if (why != nullptr) *why = std::move(reason);
    return false;
  };
  if (trace.events.size() != c.node_count())
    return fail(format("trace has %zu events for %zu nodes",
                       trace.events.size(), c.node_count()));
  for (const auto& e : trace.events) {
    if (e.node >= c.node_count())
      return fail(format("event seq=%llu names unknown node %u",
                         static_cast<unsigned long long>(e.seq), e.node));
    if (!(e.op == c.op(e.node)))
      return fail(format("node %u executed %s but is labelled %s", e.node,
                         e.op.to_string().c_str(),
                         c.op(e.node).to_string().c_str()));
  }
  // One event per node, and the seq order must be a linear extension:
  // pos[u] = position of u's event; then every dag edge must go forward.
  const std::vector<NodeId> order = trace_order(trace);
  std::vector<std::size_t> pos(c.node_count(), SIZE_MAX);
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (pos[order[i]] != SIZE_MAX)
      return fail(format("node %u appears in more than one event", order[i]));
    pos[order[i]] = i;
  }
  // Scan in trace order and name the smallest late predecessor: the
  // first offending *event* with an adjacency-order-independent edge,
  // so an online session kernel (whose computation may have round-
  // tripped through text, regrouping edges) reports the same message.
  for (std::size_t i = 0; i < order.size(); ++i) {
    const NodeId u = order[i];
    NodeId late = u;  // sentinel: u is never its own predecessor
    for (const NodeId q : c.dag().pred(u))
      if (pos[q] >= i && (late == u || q < late)) late = q;
    if (late != u)
      return fail(format(
          "trace order flips dag edge %u -> %u (node %u ran first)", late, u,
          u));
  }
  return true;
}

void trace_to_stream(const Trace& trace, std::ostream& out,
                     std::size_t max_rows) {
  const std::size_t nrows = std::min(trace.events.size(), max_rows);
  const auto digits = [](unsigned long long v) {
    std::size_t d = 1;
    while (v >= 10) {
      v /= 10;
      ++d;
    }
    return d;
  };
  // Column widths from the numeric values directly — no per-cell string
  // materialization, and one reserve for the whole render.
  const char* headers[6] = {"seq", "time", "proc", "node", "op", "observed"};
  std::size_t w[6];
  for (std::size_t i = 0; i < 6; ++i) w[i] = std::char_traits<char>::length(headers[i]);
  for (std::size_t i = 0; i < nrows; ++i) {
    const TraceEvent& e = trace.events[i];
    w[0] = std::max(w[0], digits(e.seq));
    w[1] = std::max(w[1], digits(e.time));
    w[2] = std::max(w[2], digits(e.proc));
    w[3] = std::max(w[3], digits(e.node));
    w[4] = std::max(w[4], e.op.is_nop() ? std::size_t{1}
                                        : 3 + digits(e.op.loc));
    w[5] = std::max(w[5], e.observed == kBottom ? std::size_t{1}
                                                : digits(e.observed));
  }
  std::size_t row_width = 1;  // newline
  for (std::size_t i = 0; i < 6; ++i) row_width += w[i] + 2;

  // Rows accumulate in a bounded chunk that flushes to the stream: the
  // render never holds more than ~64 KiB of text however long the
  // trace, while small tables still reach the stream in one write.
  std::string chunk;
  constexpr std::size_t kFlushAt = std::size_t{64} * 1024;
  chunk.reserve(std::min((nrows + 3) * row_width + 64, kFlushAt + row_width));
  const auto flush_if_full = [&] {
    if (chunk.size() >= kFlushAt) {
      out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
      chunk.clear();
    }
  };
  const auto pad_to = [&](std::size_t mark, std::size_t width, bool last) {
    const std::size_t written = chunk.size() - mark;
    if (written < width) chunk.append(width - written, ' ');
    if (!last) chunk.append(2, ' ');
  };
  for (std::size_t i = 0; i < 6; ++i) {
    const std::size_t mark = chunk.size();
    chunk += headers[i];
    pad_to(mark, w[i], i == 5);
  }
  chunk += '\n';
  chunk.append(row_width - 1, '-');
  chunk += '\n';

  char buf[32];
  const auto cell = [&](std::size_t i, unsigned long long v, bool last) {
    const std::size_t mark = chunk.size();
    chunk.append(buf, static_cast<std::size_t>(
                          std::snprintf(buf, sizeof buf, "%llu", v)));
    pad_to(mark, w[i], last);
  };
  for (std::size_t i = 0; i < nrows; ++i) {
    const TraceEvent& e = trace.events[i];
    cell(0, e.seq, false);
    cell(1, e.time, false);
    cell(2, e.proc, false);
    cell(3, e.node, false);
    {
      const std::size_t mark = chunk.size();
      chunk += e.op.to_string();
      pad_to(mark, w[4], false);
    }
    if (e.observed == kBottom) {
      const std::size_t mark = chunk.size();
      chunk += '_';
      pad_to(mark, w[5], true);
    } else {
      cell(5, e.observed, true);
    }
    chunk += '\n';
    flush_if_full();
  }
  if (nrows < trace.events.size())
    chunk += format("... (%zu more events elided; raise max_rows to render)\n",
                    trace.events.size() - nrows);
  out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
}

std::string trace_to_string(const Trace& trace, std::size_t max_rows) {
  std::ostringstream out;
  trace_to_stream(trace, out, max_rows);
  return std::move(out).str();
}

void write_trace(const Trace& trace, std::ostream& out) {
  std::string chunk;
  constexpr std::size_t kFlushAt = std::size_t{64} * 1024;
  chunk.reserve(kFlushAt + 96);
  chunk += "# ccmm trace: seq time proc node observed (_ = no write seen)\n";
  char buf[96];
  for (const TraceEvent& e : trace.events) {
    int len;
    if (e.observed == kBottom) {
      len = std::snprintf(buf, sizeof buf, "%llu %llu %u %u _\n",
                          static_cast<unsigned long long>(e.seq),
                          static_cast<unsigned long long>(e.time),
                          static_cast<unsigned>(e.proc), e.node);
    } else {
      len = std::snprintf(buf, sizeof buf, "%llu %llu %u %u %u\n",
                          static_cast<unsigned long long>(e.seq),
                          static_cast<unsigned long long>(e.time),
                          static_cast<unsigned>(e.proc), e.node, e.observed);
    }
    chunk.append(buf, static_cast<std::size_t>(len));
    if (chunk.size() >= kFlushAt) {
      out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
      chunk.clear();
    }
  }
  out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
}

std::string write_trace(const Trace& trace) {
  std::ostringstream out;
  write_trace(trace, out);
  return std::move(out).str();
}

Trace read_trace(std::istream& in, const Computation& c) {
  Trace trace;
  TextLines lines(in);
  for (;;) {
    const std::vector<std::string_view>& t = lines.next();
    if (t.empty()) break;
    std::uint64_t seq = 0;
    std::uint64_t time = 0;
    std::uint64_t proc = 0;
    std::uint64_t node = 0;
    if (t.size() < 5 ||
        parse_decimal(t[0], UINT64_MAX, seq) != DecimalError::kNone ||
        parse_decimal(t[1], UINT64_MAX, time) != DecimalError::kNone ||
        parse_decimal(t[2], UINT32_MAX, proc) != DecimalError::kNone ||
        parse_decimal(t[3], UINT64_MAX, node) != DecimalError::kNone)
      throw std::runtime_error(
          format("trace line %zu: expected `seq time proc node observed`",
                 lines.line()));
    if (node >= c.node_count())
      throw std::runtime_error(format(
          "trace line %zu: node %llu out of range (computation has %zu "
          "nodes)",
          lines.line(), static_cast<unsigned long long>(node),
          c.node_count()));
    TraceEvent e;
    e.seq = seq;
    e.time = time;
    e.proc = static_cast<ProcId>(proc);
    e.node = static_cast<NodeId>(node);
    e.op = c.op(e.node);
    if (t[4] == "_") {
      e.observed = kBottom;
    } else {
      std::uint64_t v = 0;
      if (parse_decimal(t[4], UINT64_MAX, v) != DecimalError::kNone ||
          v >= c.node_count())
        throw std::runtime_error(
            format("trace line %zu: bad observed node `%s`", lines.line(),
                   std::string(t[4]).c_str()));
      e.observed = static_cast<NodeId>(v);
    }
    trace.events.push_back(e);
  }
  return trace;
}

}  // namespace ccmm
