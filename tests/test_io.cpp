#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "construct/witness.hpp"
#include "io/dot.hpp"
#include "io/text.hpp"
#include "models/examples.hpp"
#include "proc/random_program.hpp"
#include "text_oracle.hpp"
#include "util/rng.hpp"

namespace ccmm::io {
namespace {

TEST(TextIo, ComputationRoundTrip) {
  const auto p = examples::figure2();
  const std::string text = write_computation(p.c);
  std::istringstream in(text);
  const Computation back = read_computation(in);
  EXPECT_EQ(back, p.c);
}

TEST(TextIo, ObserverRoundTrip) {
  const auto p = examples::figure2();
  const std::string text = write_observer(p.phi);
  std::istringstream in(text);
  const ObserverFunction back = read_observer(in, p.c.node_count());
  EXPECT_EQ(back, p.phi);
}

TEST(TextIo, PairRoundTrip) {
  for (const auto& p : examples::all()) {
    std::istringstream in(write_pair(p.c, p.phi));
    const TextPair back = read_pair(in);
    EXPECT_EQ(back.c, p.c) << p.name;
    ASSERT_TRUE(back.phi.has_value()) << p.name;
    EXPECT_EQ(*back.phi, p.phi) << p.name;
  }
}

TEST(TextIo, PairWithoutObserver) {
  const auto p = examples::figure3();
  std::istringstream in(write_computation(p.c));
  const TextPair back = read_pair(in);
  EXPECT_EQ(back.c, p.c);
  EXPECT_FALSE(back.phi.has_value());
}

TEST(TextIo, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "# a comment\n\ncomputation\n nodes 2 # trailing\n"
      "op 0 W 3\nedge 0 1\nend\n";
  std::istringstream in(text);
  const Computation c = read_computation(in);
  EXPECT_EQ(c.node_count(), 2u);
  EXPECT_EQ(c.op(0), Op::write(3));
  EXPECT_EQ(c.op(1), Op::nop());  // default
  EXPECT_TRUE(c.precedes(0, 1));
}

TEST(TextIo, BottomSpelledAsUnderscore) {
  const std::string text = "observer\nphi 0 1 _\nphi 0 0 0\nend\n";
  std::istringstream in(text);
  const ObserverFunction phi = read_observer(in, 2);
  EXPECT_EQ(phi.get(0, 1), kBottom);
  EXPECT_EQ(phi.get(0, 0), 0u);
}

TEST(TextIo, ParseErrorsCarryLineNumbers) {
  const auto expect_error = [](const std::string& text,
                               const std::string& needle) {
    std::istringstream in(text);
    try {
      (void)read_computation(in);
      FAIL() << "expected parse error for: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_error("bogus\n", "expected 'computation'");
  expect_error("computation\nop 0 W 0\nend\n", "'op' before 'nodes'");
  expect_error("computation\nnodes 2\nop 0 X\nend\n", "unknown op kind");
  expect_error("computation\nnodes 2\nedge 0 9\nend\n", "out of range");
  expect_error("computation\nnodes 1\n", "unexpected end");
  expect_error("computation\nnodes 2\nedge 0 1\nedge 1 0\nend\n", "cycle");
  // Malformed graphs are rejected at their own line, as parse errors:
  // a self-loop, and a second `nodes` line (which used to drop the ops
  // and leave earlier edges beyond the new node count).
  expect_error("computation\nnodes 3\n\nedge 1 1\nend\n",
               "line 4: self-loop edge 1 -> 1");
  expect_error("computation\nnodes 5\nedge 0 4\nnodes 2\nend\n",
               "line 4: 'nodes' given twice");
  expect_error("computation\nnodes 2\nnodes 2\nend\n",
               "line 3: 'nodes' given twice");
  expect_error("computation\nnodes 2 # two\n\nop 1 W x\nend\n",
               "line 4: expected a number, got 'x'");
  expect_error("computation\nnodes 2\nedge 0 99999999999999999999\nend\n",
               "line 3: number out of range: 99999999999999999999");
  // Every message carries the contract's prefix.
  expect_error("computation\nnodes 2\nedge 1 1\nend\n",
               "ccmm text parse error, line 3: ");
}

TEST(TextIo, ZeroNodesRejectsEveryId) {
  // `nodes 0` used to pass the id range check (max = 0) and then write
  // through the empty ops vector.
  for (const char* body : {"op 0 W 1\n", "op 0 N\n", "edge 0 0\n",
                           "strand n0\n", "strand y0\n"}) {
    const std::string text =
        std::string("computation\nnodes 0\n") + body + "end\n";
    std::istringstream in(text);
    try {
      (void)read_computation(in);
      FAIL() << "expected parse error for: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(),
                   "ccmm text parse error, line 3: number out of range: 0")
          << text;
    }
    // The in-place parser agrees.
    EXPECT_THROW((void)read_computation(std::string_view(text)),
                 std::runtime_error);
  }
  // An empty computation is still fine, and so is `y_` (no join node).
  std::istringstream ok("computation\nnodes 0\nstrand y_\nend\n");
  EXPECT_TRUE(read_computation(ok).empty());
  // Observers over zero nodes reject every node id too.
  std::istringstream phi("observer\nphi 0 0 _\nend\n");
  EXPECT_THROW((void)read_observer(phi, 0), std::runtime_error);
}

TEST(TextIo, BufferAndStreamParsersAgree) {
  Rng rng(23);
  proc::RandomCilkOptions opt;
  opt.target_ops = 300;
  opt.nlocations = 3;
  const Computation c = proc::random_cilk(opt, rng);
  // CRLF line ends, tabs, a comment and no final newline.
  std::string text = "# header\r\n" + write_computation(c);
  for (std::size_t i = 0; i < text.size(); ++i)
    if (text[i] == '\n') text.insert(i++, 1, '\r');
  text.pop_back();
  text.pop_back();
  std::replace(text.begin(), text.end(), ' ', '\t');
  std::istringstream in(text);
  const Computation a = read_computation(in);
  const Computation b = read_computation(std::string_view(text));
  EXPECT_EQ(a, c);
  EXPECT_EQ(b, c);
  ASSERT_NE(b.sp_structure(), nullptr);
  EXPECT_EQ(b.sp_structure()->strands, c.sp_structure()->strands);
  // Errors carry the same line numbers from either source.
  const std::string bad = "computation\nnodes 2\n\nedge 0 1\nbogus\n";
  std::istringstream bad_in(bad);
  std::string from_stream, from_buffer;
  try {
    (void)read_computation(bad_in);
  } catch (const std::runtime_error& e) {
    from_stream = e.what();
  }
  try {
    (void)read_computation(std::string_view(bad));
  } catch (const std::runtime_error& e) {
    from_buffer = e.what();
  }
  EXPECT_EQ(from_stream, "ccmm text parse error, line 5: unknown directive 'bogus'");
  EXPECT_EQ(from_buffer, from_stream);
}

TEST(TextIo, ReadPairStopsAtEachPairsEnd) {
  // A stream of pairs reads one pair per call: the stream reader never
  // consumes past the observer's `end` line.
  std::string text;
  for (const auto& p : examples::all()) text += write_pair(p.c, p.phi);
  std::istringstream in(text);
  for (const auto& p : examples::all()) {
    const TextPair back = read_pair(in);
    EXPECT_EQ(back.c, p.c) << p.name;
    ASSERT_TRUE(back.phi.has_value()) << p.name;
    EXPECT_EQ(*back.phi, p.phi) << p.name;
  }
}

TEST(TextIo, RendererIsByteIdenticalToTheReferenceRenderer) {
  for (const auto& p : examples::all()) {
    EXPECT_EQ(write_computation(p.c), oracle::write_computation(p.c)) << p.name;
    EXPECT_EQ(write_observer(p.phi), oracle::write_observer(p.phi)) << p.name;
  }
  const NonconstructibilityWitness w = figure4_witness();
  EXPECT_EQ(write_pair(w.c, w.phi),
            oracle::write_computation(w.c) + oracle::write_observer(w.phi));
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    proc::RandomCilkOptions opt;
    opt.target_ops = 2000;
    opt.nlocations = 1000;  // four-digit locations
    const Computation c = proc::random_cilk(opt, rng);
    EXPECT_EQ(write_computation(c), oracle::write_computation(c)) << seed;
  }
  // Wide ids, an unannotated dag, and a ⊥ sync in a strand.
  Computation big(Dag(12345, {{0, 12344}, {7, 9}}),
                  std::vector<Op>(12345, Op::write(1u << 30)));
  auto sp = std::make_shared<SpStructure>();
  sp->node_count = big.node_count();
  sp->strands = {{SpEvent{SpEvent::Kind::kNode, 12344, 0},
                  SpEvent{SpEvent::Kind::kSync, kBottom, 0},
                  SpEvent{SpEvent::Kind::kSpawn, 0, 1}},
                 {SpEvent{SpEvent::Kind::kAdopt, 0, 0}}};
  big.set_sp_structure(sp);
  EXPECT_EQ(write_computation(big), oracle::write_computation(big));
  ObserverFunction phi(12345);
  phi.set(1u << 30, 12344, 0);
  phi.set(3, 5, kBottom);  // an all-⊥ column renders no line
  phi.set(2, 0, 12344);
  EXPECT_EQ(write_observer(phi), oracle::write_observer(phi));
}

TEST(TextIo, SpStructureRoundTripsThroughText) {
  Rng rng(17);
  proc::RandomCilkOptions opt;
  opt.target_ops = 400;
  opt.nlocations = 4;
  const Computation c = proc::random_cilk(opt, rng);
  ASSERT_NE(c.sp_structure(), nullptr);
  std::istringstream in(write_computation(c));
  const Computation back = read_computation(in);
  EXPECT_EQ(back, c);
  // The series-parallel parse must survive: dropping it silently
  // demotes every reader to generic-dag oracles (a ~100x slowdown for
  // online checking), so this is a correctness property of the format.
  ASSERT_NE(back.sp_structure(), nullptr);
  EXPECT_EQ(back.sp_structure()->node_count, c.sp_structure()->node_count);
  EXPECT_EQ(back.sp_structure()->strands, c.sp_structure()->strands);
}

TEST(TextIo, StrandParseErrors) {
  const auto expect_error = [](const std::string& text,
                               const std::string& needle) {
    std::istringstream in(text);
    try {
      (void)read_computation(in);
      FAIL() << "expected parse error for: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_error("computation\nstrand n0\nnodes 1\nend\n",
               "'strand' before 'nodes'");
  expect_error("computation\nnodes 2\nstrand x0\nend\n", "bad strand event");
  expect_error("computation\nnodes 2\nstrand n5\nend\n", "out of range");
  expect_error("computation\nnodes 2\nstrand n0 s3\nend\n",
               "unknown strand");
}

TEST(TextIo, Figure4WitnessRoundTripsThroughText) {
  const NonconstructibilityWitness w = figure4_witness();
  std::istringstream in(write_pair(w.c, w.phi));
  const TextPair back = read_pair(in);
  EXPECT_EQ(back.c, w.c);
  EXPECT_EQ(*back.phi, w.phi);
}

TEST(DotIo, ContainsNodesEdgesAndObserver) {
  const auto p = examples::figure2();
  const std::string dot = to_dot(p.c, &p.phi);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("0: W(0)"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n2"), std::string::npos);
  EXPECT_NE(dot.find("rf"), std::string::npos);  // reads-from edge
  EXPECT_NE(dot.find("Φ(0)="), std::string::npos);
}

TEST(DotIo, PlainDag) {
  Dag d(2);
  d.add_edge(0, 1);
  const std::string dot = to_dot(d);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
}

}  // namespace
}  // namespace ccmm::io
