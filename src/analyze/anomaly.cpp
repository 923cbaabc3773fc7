#include "analyze/anomaly.hpp"

#include <algorithm>
#include <array>

#include "enumerate/canonical.hpp"
#include "enumerate/observer_enum.hpp"
#include "models/suite.hpp"
#include "util/memo_cache.hpp"
#include "util/str.hpp"

namespace ccmm::analyze {

std::optional<Computation> race_witness_capped(const Computation& c, NodeId a,
                                               NodeId b, std::size_t node_cap,
                                               NodeId* wa, NodeId* wb) {
  CCMM_CHECK(a < c.node_count() && b < c.node_count(), "race node out of range");
  std::vector<NodeId> seeds = {a, b};
  if (c.op(a).is_write() && c.op(b).is_write()) {
    // Two parallel writes are indistinguishable to every model until
    // somebody reads the location: keep the earliest read that can see
    // either write (any read not already preceding the race).
    std::optional<DynBitset> base =
        bounded_ancestor_closure(c.dag(), seeds, node_cap);
    if (!base.has_value()) return std::nullopt;
    for (const NodeId r : c.readers(c.op(a).loc)) {
      if (base->test(r)) continue;
      seeds.push_back(r);
      break;
    }
  }
  const std::optional<DynBitset> keep =
      bounded_ancestor_closure(c.dag(), seeds, node_cap);
  if (!keep.has_value()) return std::nullopt;
  std::vector<NodeId> old_to_new;
  Computation w = c.induced(*keep, &old_to_new);
  if (wa != nullptr) *wa = old_to_new[a];
  if (wb != nullptr) *wb = old_to_new[b];
  return w;
}

Computation race_witness(const Computation& c, NodeId a, NodeId b, NodeId* wa,
                         NodeId* wb) {
  return *race_witness_capped(c, a, b, SIZE_MAX, wa, wb);
}

namespace {

constexpr std::size_t kModels = 6;
constexpr std::array<const char*, kModels> kModelNames = {"SC", "LC", "NN",
                                                          "NW", "WN", "WW"};

/// Race classifications keyed by the canonical form of the minimal
/// witness plus the budgets that shape the answer. Different races in
/// different programs routinely reduce to isomorphic witnesses, so the
/// hit rate on real passes is high. The split is isomorphism-invariant
/// except for sc_budget truncation effects, which already depend on the
/// witness labeling in the uncached path; caching by canonical key just
/// pins one labeling's answer per class.
ShardedMemoCache<ModelSplit>& split_cache() {
  static ShardedMemoCache<ModelSplit> cache(16, 1u << 14);
  return cache;
}

}  // namespace

std::optional<ModelSplit> classify_race(const Computation& c, const Race& r,
                                        const AnomalyOptions& opt) {
  // The capped build bails during the BFS, so an oversized witness
  // costs O(witness_node_cap) — not O(ancestors) — on huge dags.
  const std::optional<Computation> witness =
      race_witness_capped(c, r.a, r.b, opt.witness_node_cap);
  if (!witness.has_value()) return std::nullopt;
  const Computation& w = *witness;
  if (observer_count(w) > opt.observer_budget) return std::nullopt;

  std::string key = canonical_key(w);
  key += format("\x1f%zu\x1f%llu", opt.sc_budget,
                static_cast<unsigned long long>(opt.observer_budget));
  // Compiled extras change the split, so their structural digests are
  // part of the identity of the answer.
  for (const auto& m : opt.extra_models) key += "\x1f" + m->cache_tag();
  if (auto hit = split_cache().lookup(key)) return *hit;

  const std::size_t nmodels = kModels + opt.extra_models.size();
  std::vector<std::string> names(kModelNames.begin(), kModelNames.end());
  for (const auto& m : opt.extra_models) names.push_back(m->name());

  ModelSplit split;
  // accepted[m][i]: model m accepts the i-th enumerated observer. One
  // shared preparation + lattice-pruned suite sweep replaces the six
  // independent checker calls per observer; compiled extras reuse the
  // same preparation.
  std::vector<std::vector<bool>> accepted(nmodels);
  bool sc_exhausted = false;
  CheckContext ctx;
  SuiteOptions sopt;
  sopt.sc_budget = opt.sc_budget;
  sopt.include_plus = false;  // the split reports the six core models
  const bool completed = for_each_observer(w, [&](const ObserverFunction& phi) {
    bool exhausted = false;
    const PreparedPair p = ctx.prepare(w, phi);
    const std::uint32_t mask = ModelSuite::classify(p, sopt, &exhausted);
    if (exhausted) sc_exhausted = true;
    const std::array<bool, kModels> in = {
        (mask & kSuiteSC) != 0, (mask & kSuiteLC) != 0,
        (mask & kSuiteNN) != 0, (mask & kSuiteNW) != 0,
        (mask & kSuiteWN) != 0, (mask & kSuiteWW) != 0,
    };
    for (std::size_t m = 0; m < kModels; ++m) accepted[m].push_back(in[m]);
    for (std::size_t e = 0; e < opt.extra_models.size(); ++e) {
      const CompiledVerdict v =
          opt.extra_models[e]->check_prepared(p, opt.sc_budget);
      if (v.exhausted) sc_exhausted = true;
      accepted[kModels + e].push_back(v.member);
    }
    return true;
  });
  split.observers = accepted[0].size();
  split.truncated = !completed || sc_exhausted;

  // Group models with identical accepted sets into behaviour classes.
  std::vector<std::size_t> cls(nmodels, SIZE_MAX);
  for (std::size_t m = 0; m < nmodels; ++m) {
    if (cls[m] != SIZE_MAX) continue;
    cls[m] = split.classes.size();
    split.classes.push_back({names[m]});
    split.accepted.push_back(static_cast<std::size_t>(
        std::count(accepted[m].begin(), accepted[m].end(), true)));
    for (std::size_t o = m + 1; o < nmodels; ++o)
      if (cls[o] == SIZE_MAX && accepted[o] == accepted[m]) {
        cls[o] = cls[m];
        split.classes[cls[m]].push_back(names[o]);
      }
  }
  split_cache().insert(key, split);
  return split;
}

}  // namespace ccmm::analyze
