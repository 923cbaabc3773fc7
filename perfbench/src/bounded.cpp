// bounded: the bounded-universe layers no trace reaches.
//  * Classification of seeded (C, Φ) pairs (the bench_checkers shapes,
//    sizes 16/64/256, equal thirds of member, WW-breaking and
//    SC-breaking), each prepared with CheckContext::prepare, through
//    ModelSuite::classify and through a ModelRegistry holding the
//    bundled entries plus examples/specs/pack.spec.
//  * Δ*(NN) by constructible_version_quotient_parallel on the thin
//    universe (one location, no no-ops, at most two writes) at horizon 6.
// Known answers: a member pair (an SC execution) is in all six built-in
// models and a WW-breaking pair in none (the paper's lattice); every
// pair's built-in bits equal six independent legacy contains() calls;
// the compiled COH entry agrees with LC; Δ*(NN) equals LC ∩ U at every
// size below the horizon (Theorem 23); the fixpoint counters repeat.
#include <atomic>
#include <deque>
#include <fstream>

#include "construct/fixpoint.hpp"
#include "inputs.hpp"
#include "io/text.hpp"
#include "models/compile.hpp"
#include "models/location_consistency.hpp"
#include "models/qdag.hpp"
#include "models/suite.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ccmm;

namespace {

constexpr std::uint32_t kSix =
    kSuiteSC | kSuiteLC | kSuiteNN | kSuiteNW | kSuiteWN | kSuiteWW;
constexpr const char* kPackPath = "examples/specs/pack.spec";

/// The six built-in bits a pair must get. Members and WW-breaking pairs
/// have the paper's answer; SC-breaking ones the legacy calls'.
std::uint32_t expected_mask(const ClassifyPair& p) {
  switch (p.shape) {
    case Shape::kMember: return kSix;
    case Shape::kWwBreaking: return 0;
    case Shape::kScBreaking: break;
  }
  return p.legacy_mask;
}

/// Compare `got` (six built-in bits) with the known answer. An
/// exhausted search leaves SC undecided, so SC is then not compared.
bool matches(const ClassifyPair& p, std::uint32_t got, bool exhausted,
             bool wrong_expected) {
  std::uint32_t want = expected_mask(p);
  if (wrong_expected) want ^= kSuiteLC;
  std::uint32_t care = kSix;
  if (exhausted || p.legacy_sc_exhausted) care &= ~kSuiteSC;
  return (got & care) == (want & care) &&
         (p.legacy_mask & care) == (expected_mask(p) & care);
}

std::vector<ClassifyPair> load_pairs(const Options& opts, Result& result) {
  const std::size_t count = opts.smoke ? 27 : 2997;  // 333 of each kind
  const std::size_t sizes[3] = {16, 64, 256};
  const std::string key = "pairs-v1-n" + std::to_string(count) + "-seed" +
                          std::to_string(opts.seed);
  std::vector<ClassifyPair> pairs;
  const CachedInputs in = cached_inputs(
      opts.work_dir / "inputs", key, {"pairs.txt", "expect.txt"},
      [&](const std::filesystem::path& dir) {
        Rng rng(opts.seed * 0x9e3779b97f4a7c15ull + count);
        std::ofstream text(dir / "pairs.txt");
        std::ofstream expect(dir / "expect.txt");
        for (std::size_t i = 0; i < count; ++i) {
          ClassifyPair p = make_pair(sizes[i % 3],
                                     static_cast<Shape>((i / 3) % 3), rng);
          legacy_classify(p);
          text << io::write_pair(p.c, p.phi);
          expect << static_cast<int>(p.shape) << " " << p.legacy_mask << " "
                 << (p.legacy_sc_exhausted ? 1 : 0) << "\n";
          pairs.push_back(std::move(p));
        }
      });
  result.note("generate_s", std::to_string(in.generate_s));
  result.note("inputs_digest", in.digest);
  result.note("inputs_reused", in.reused ? "yes" : "no");
  if (!in.reused) return pairs;
  std::ifstream text(in.dir / "pairs.txt");
  std::ifstream expect(in.dir / "expect.txt");
  for (std::size_t i = 0; i < count; ++i) {
    io::TextPair tp = io::read_pair(text);
    ClassifyPair p;
    p.c = std::move(tp.c);
    p.phi = tp.phi.value_or(ObserverFunction(p.c.node_count()));
    int shape = 0, exhausted = 0;
    expect >> shape >> p.legacy_mask >> exhausted;
    p.shape = static_cast<Shape>(shape);
    p.legacy_sc_exhausted = exhausted != 0;
    p.c.dag().ensure_closure();
    pairs.push_back(std::move(p));
  }
  return pairs;
}

/// The registry the workload classifies with, compiled from scratch:
/// built-ins, the bundled pack, then the pack file.
ModelRegistry compile_registry() {
  ModelRegistry reg;
  for (const ModelSpec& s : builtin_model_specs()) reg.add(s);
  for (ModelSpec& s : bundled_spec_pack()) reg.add(std::move(s));
  std::ifstream in(kPackPath);
  if (!in) throw std::runtime_error(std::string("cannot open ") + kPackPath);
  for (ModelSpec& s : read_model_specs(in)) reg.add(std::move(s));
  return reg;
}

UniverseSpec thin_spec(std::size_t horizon) {
  UniverseSpec spec;
  spec.max_nodes = horizon;
  spec.nlocations = 1;
  spec.include_nop = false;
  spec.max_writes_per_location = 2;
  return spec;
}

/// Theorem 23: Δ*(NN) = LC ∩ U at every size below the horizon.
bool nn_star_is_lc(const BoundedModelSet& set, std::size_t horizon) {
  bool ok = true;
  for (const SizeClassComparison& row :
       compare_with_model(set, *LocationConsistencyModel::instance()))
    if (row.size < horizon) ok = ok && row.equal;
  return ok;
}

std::vector<std::size_t> counters(const FixpointStats& s) {
  return {s.initial_pairs, s.pruned,  s.support_edges,
          s.rejudged_pairs, s.repairs, s.worklist_peak};
}

}  // namespace

void run_bounded(const Options& opts, Result& result, Tracer& tracer) {
  const std::vector<ClassifyPair> pairs = load_pairs(opts, result);
  const std::size_t horizon = opts.smoke ? 4 : 6;
  const UniverseSpec spec = thin_spec(horizon);

  ThreadPool pool_n(0);
  result.note("pool_threads", std::to_string(pool_n.size()));

  // Set-up: compiling the registry. One compile takes tens of
  // microseconds, so each figure is the mean over a loop of compiles,
  // and the set-up time is the median of many loops. The loops run on
  // every pool thread at once: one thread would measure only the
  // vCPU it happens to run on, which other tenants of the host may be
  // slowing for seconds at a time.
  constexpr std::size_t kCompileLoops = 32, kCompilesPerLoop = 1001;
  std::vector<double> compile_s(kCompileLoops);
  pool_n.parallel_for(kCompileLoops, [&](std::size_t i) {
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < kCompilesPerLoop; ++k)
      (void)compile_registry();
    compile_s[i] = seconds_between(t0, Clock::now()) / kCompilesPerLoop;
  });
  const ModelRegistry reg = compile_registry();
  // Registry bit of each built-in suite bit, and of COH.
  std::vector<std::pair<std::uint32_t, std::size_t>> builtin_bits;
  std::size_t coh = 0, lc = 0;
  for (std::size_t i = 0; i < reg.entries().size(); ++i) {
    const std::string& name = reg.entries()[i].spec.name;
    for (std::uint32_t bit : {kSuiteSC, kSuiteLC, kSuiteNN, kSuiteNW,
                              kSuiteWN, kSuiteWW})
      if (name == ModelSuite::bit_name(bit)) builtin_bits.emplace_back(bit, i);
    if (name == "COH") coh = i;
    if (name == "LC") lc = i;
  }

  SuiteOptions suite_opt;
  suite_opt.sc_budget = kSearchBudget;
  suite_opt.include_plus = false;
  RegistryOptions reg_opt;
  reg_opt.sc_budget = kSearchBudget;

  // Pairs are classified on the nproc pool, each worker taking the next
  // unclassified pair of the chunk: the way a caller with many pairs
  // would use the single-pair API. A worker keeps its own context,
  // tracer and figures; the main thread folds them in after each chunk.
  struct Worker {
    explicit Worker(Clock::time_point epoch) : tracer(epoch) {}
    CheckContext ctx;
    Tracer tracer;
    std::vector<double> prepare_us, suite_us[3], registry_us[3];
    std::vector<std::string> wrong;  // failed known-answer checks
    std::size_t classified = 0, exhausted = 0;
  };
  std::deque<Worker> workers;  // CheckContext does not move
  for (std::size_t w = 0; w < pool_n.size(); ++w)
    workers.emplace_back(tracer.epoch());

  std::vector<double> suite_chunk_s, registry_chunk_s, fixpoint_s;
  std::size_t registry_classified = 0, registry_exhausted = 0;
  std::vector<std::size_t> first_counters;

  auto classify_pair = [&](Worker& me, bool registry, std::size_t i) {
    const ClassifyPair& p = pairs[i];
    Scope ps(me.tracer, "models.prepare", i);
    const PreparedPair pp = me.ctx.prepare(p.c, p.phi);
    me.prepare_us.push_back(ps.stop() * 1e6);
    std::uint32_t got = 0;
    bool exhausted = false;
    bool ok = true;
    if (!registry) {
      Scope cs(me.tracer, "models.suite_classify", i);
      got = ModelSuite::classify(pp, suite_opt, &exhausted) & kSix;
      me.suite_us[static_cast<int>(p.shape)].push_back(cs.stop() * 1e6);
    } else {
      Scope cs(me.tracer, "models.registry_classify", i);
      const std::uint64_t bits = reg.classify(pp, reg_opt, &exhausted);
      me.registry_us[static_cast<int>(p.shape)].push_back(cs.stop() * 1e6);
      for (const auto& [bit, index] : builtin_bits)
        if ((bits >> index) & 1u) got |= bit;
      ok = ((bits >> coh) & 1u) == ((bits >> lc) & 1u);
      me.exhausted += exhausted ? 1 : 0;
    }
    ++me.classified;
    if (!ok || !matches(p, got, exhausted, opts.wrong_expected))
      me.wrong.push_back(std::string(registry ? "registry" : "suite") +
                         " classify of a " +
                         kShapeNames[static_cast<int>(p.shape)] + " pair (" +
                         std::to_string(p.c.node_count()) + " nodes) gave " +
                         std::to_string(got) + ", known " +
                         std::to_string(expected_mask(p)));
  };

  // Classify pairs [begin, end) through the suite or the registry;
  // returns the seconds taken.
  auto classify_chunk = [&](bool registry, std::size_t begin,
                            std::size_t end) {
    Scope pass(tracer,
               registry ? "bounded.registry_chunk" : "bounded.suite_chunk",
               begin);
    std::atomic<std::size_t> next{begin};
    for (Worker& me : workers) me.tracer.set_enabled(tracer.enabled());
    pool_n.parallel_for(workers.size(), [&](std::size_t w) {
      for (std::size_t i; (i = next.fetch_add(1)) < end;)
        classify_pair(workers[w], registry, i);
    });
    const double seconds = pass.stop();
    for (Worker& me : workers) {
      result.attempt(me.classified);
      for (const std::string& why : me.wrong) result.expect(false, why);
      if (registry) {
        registry_classified += me.classified;
        registry_exhausted += me.exhausted;
      }
      me.classified = me.exhausted = 0;
      me.wrong.clear();
      tracer.merge(me.tracer, pass.index());
      me.tracer.clear();
    }
    return seconds;
  };

  // Operations cycle through [chunk, chunk, fixpoint]; a chunk is a
  // slice of the pairs with every size and shape in equal numbers, run
  // through the suite and then the registry. Every chunk holds the same
  // mix, so a rate is the chunk size over the median chunk time.
  const std::size_t chunk = opts.smoke ? 9 : 333;
  const std::size_t nchunks = pairs.size() / chunk;
  const TimedPhase phase = run_timed_phase(
      opts, result, tracer, 3, [&](std::size_t i) {
        Scope top(tracer, "bounded.op", i);
        if (i % 3 != 2) {
          const std::size_t k = (i - i / 3) % nchunks;
          suite_chunk_s.push_back(
              classify_chunk(false, k * chunk, (k + 1) * chunk));
          registry_chunk_s.push_back(
              classify_chunk(true, k * chunk, (k + 1) * chunk));
          return;
        }
        Scope s(tracer, "construct.fixpoint", i);
        FixpointStats stats;
        const BoundedModelSet set = constructible_version_quotient_parallel(
            *QDagModel::nn(), spec, pool_n, FixpointOptions{}, &stats);
        fixpoint_s.push_back(s.stop());
        result.attempt();
        result.expect(nn_star_is_lc(set, horizon) != opts.wrong_expected,
                      "Theorem 23: NN* must equal LC below the horizon");
        if (first_counters.empty()) first_counters = counters(stats);
        result.attempt();
        result.expect(counters(stats) == first_counters,
                      "fixpoint counters must repeat exactly");
      });

  if (!opts.trace) {
    result.metric("setup_s", median(compile_s), "s");
    result.metric("peak_rss_mb", phase.peak_rss_mb, "MB");
    const auto pairs_per_chunk = static_cast<double>(chunk);
    result.metric("rate_per_s", pairs_per_chunk / median(suite_chunk_s),
                  "1/s");
    result.metric("rate2_per_s",
                  pairs_per_chunk / median(registry_chunk_s), "1/s");
    result.metric("latency_ms", median(fixpoint_s) * 1e3, "ms");
    return;
  }
  std::vector<double> prepare_us, suite_us[3], registry_us[3];
  for (const Worker& me : workers) {
    prepare_us.insert(prepare_us.end(), me.prepare_us.begin(),
                      me.prepare_us.end());
    for (int k = 0; k < 3; ++k) {
      suite_us[k].insert(suite_us[k].end(), me.suite_us[k].begin(),
                         me.suite_us[k].end());
      registry_us[k].insert(registry_us[k].end(), me.registry_us[k].begin(),
                            me.registry_us[k].end());
    }
  }
  result.metric("models.compile_registry_s", median(compile_s), "s");
  result.metric("models.prepare_us", median(prepare_us), "us");
  for (int k = 0; k < 3; ++k) {
    result.metric(std::string("models.suite_classify_us.") + kShapeNames[k],
                  median(suite_us[k]), "us");
    result.metric(std::string("models.registry_classify_us.") + kShapeNames[k],
                  median(registry_us[k]), "us");
  }
  // Exhausted searches per pass over all pairs.
  result.metric("models.registry_exhausted",
                static_cast<double>(registry_exhausted * pairs.size()) /
                    static_cast<double>(registry_classified),
                "count");
  result.metric("construct.fixpoint_s", median(fixpoint_s), "s");
  static const char* const kCounterNames[6] = {
      "construct.initial_pairs", "construct.pruned",
      "construct.support_edges", "construct.rejudged_pairs",
      "construct.repairs",       "construct.worklist_peak"};
  for (std::size_t k = 0; k < first_counters.size(); ++k)
    result.metric(kCounterNames[k], static_cast<double>(first_counters[k]),
                  "count");

  {
    Scope s(tracer, "construct.restrict");
    const BoundedModelSet set =
        BoundedModelSet::restrict_model_quotient(*QDagModel::nn(), spec,
                                                 &pool_n);
    result.metric("construct.restrict_s", s.stop(), "s");
    result.metric("construct.restricted_pairs",
                  static_cast<double>(set.live_count()), "count");
  }
  {
    Scope s(tracer, "construct.fixpoint_1t");
    FixpointStats stats;
    const BoundedModelSet set = constructible_version_quotient(
        *QDagModel::nn(), spec, FixpointOptions{}, &stats);
    result.metric("construct.fixpoint_1t_s", s.stop(), "s");
    result.attempt();
    result.expect(nn_star_is_lc(set, horizon) != opts.wrong_expected,
                  "Theorem 23 on one thread: NN* must equal LC below the "
                  "horizon");
  }
}

}  // namespace perfbench
