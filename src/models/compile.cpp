#include "models/compile.hpp"

#include <algorithm>
#include <array>
#include <optional>

#include "util/check.hpp"

namespace ccmm {
namespace {

/// The w-independent corners are the paper's named predicates with
/// bitset-accelerated scans; everything else pays the cubic scan.
std::optional<DagPred> named_corner(CubeSpec q) {
  if (q.w_writes) return std::nullopt;
  if (q.u_writes) return q.v_writes ? DagPred::kWW : DagPred::kWN;
  return q.v_writes ? DagPred::kNW : DagPred::kNN;
}

std::uint32_t corner_suite_bit(DagPred pred) {
  switch (pred) {
    case DagPred::kNN:
      return kSuiteNN;
    case DagPred::kNW:
      return kSuiteNW;
    case DagPred::kWN:
      return kSuiteWN;
    case DagPred::kWW:
      return kSuiteWW;
  }
  return 0;
}

/// Constraint count orders corner strength: fewer constraints = more
/// quantified triples = stronger axiom.
int cube_constraints(CubeSpec q) {
  return (q.u_writes ? 1 : 0) + (q.v_writes ? 1 : 0) + (q.w_writes ? 1 : 0);
}

enum class Outcome : std::uint8_t { kUnknown, kPass, kFail, kExhausted };

Outcome search_outcome(SearchStatus s) {
  if (s == SearchStatus::kYes) return Outcome::kPass;
  return s == SearchStatus::kExhausted ? Outcome::kExhausted : Outcome::kFail;
}

/// The one evaluator: run a single check on a valid pair.
Outcome run_check(const ModelCheck& k, const PreparedPair& p,
                  std::size_t budget) {
  const auto pass = [](bool ok) {
    return ok ? Outcome::kPass : Outcome::kFail;
  };
  ScOptions opt;
  opt.budget = budget;
  switch (k.kind) {
    case ModelCheck::Kind::kCorner:
      return pass(qdag_consistent_prepared(p, *named_corner(k.cube)));
    case ModelCheck::Kind::kFresh:
      return pass(observer_is_fresh_prepared(p));
    case ModelCheck::Kind::kCube:
      return pass(cube_consistent_prepared(p, k.cube));
    case ModelCheck::Kind::kPerLocation:
      return pass(location_consistent_prepared(p));
    case ModelCheck::Kind::kGlobal:
      // The plan's kPerLocation check ran first: it is the prefilter.
      opt.lc_prefilter = false;
      return search_outcome(sc_check_prepared(p, opt).status);
    case ModelCheck::Kind::kScope:
      return search_outcome(
          serialization_check(p.computation(), p.observer(), k.scope, opt)
              .status);
  }
  return Outcome::kFail;
}

}  // namespace

CompiledModel::CompiledModel(ModelSpec spec) : spec_(std::move(spec)) {
  spec_.normalize();
  using Kind = ModelCheck::Kind;
  checks_.reserve(spec_.axioms.size() + spec_.scopes.size() + 3);
  for (const CubeSpec& q : spec_.axioms)
    if (named_corner(q)) checks_.push_back({Kind::kCorner, q, {}});
  if (spec_.freshness) checks_.push_back({Kind::kFresh, {}, {}});
  for (const CubeSpec& q : spec_.axioms)
    if (!named_corner(q)) checks_.push_back({Kind::kCube, q, {}});
  if (spec_.order != OrderAxiom::kNone)
    checks_.push_back({Kind::kPerLocation, {}, {}});
  if (spec_.order == OrderAxiom::kGlobal)
    checks_.push_back({Kind::kGlobal, {}, {}});
  for (const ScopeSpec& s : spec_.scopes)
    checks_.push_back({Kind::kScope, {}, s.locations});
}

std::string CompiledModel::cache_tag() const {
  return "spec\x1d" + spec_.digest();
}

CompiledVerdict CompiledModel::check_prepared(const PreparedPair& p,
                                              std::size_t budget) const {
  CompiledVerdict v;
  if (!p.valid()) return v;
  for (const ModelCheck& k : checks_) {
    const Outcome o = run_check(k, p, budget);
    if (o == Outcome::kExhausted) v.exhausted = true;
    if (o != Outcome::kPass) return v;
  }
  v.member = true;
  return v;
}

bool CompiledModel::contains_prepared(const PreparedPair& p) const {
  const CompiledVerdict v = check_prepared(p);
  CCMM_CHECK(!v.exhausted, "serialization search budget exhausted");
  return v.member;
}

bool CompiledModel::for_each_member_observer(
    const Computation& c,
    const std::function<bool(const ObserverFunction&)>& visit) const {
  // Drive with the strongest named corner's prefix-pruned enumerator:
  // its member set is the tightest superset of ours we can enumerate
  // without generate-and-test.
  std::optional<DagPred> best;
  int best_constraints = 4;
  for (const ModelCheck& k : checks_) {
    if (k.kind != ModelCheck::Kind::kCorner) continue;
    if (const int n = cube_constraints(k.cube); n < best_constraints) {
      best_constraints = n;
      best = named_corner(k.cube);
    }
  }
  if (!best) return MemoryModel::for_each_member_observer(c, visit);

  const std::shared_ptr<const QDagModel> base =
      *best == DagPred::kNN   ? QDagModel::nn()
      : *best == DagPred::kNW ? QDagModel::nw()
      : *best == DagPred::kWN ? QDagModel::wn()
                              : QDagModel::ww();
  if (checks_.size() == 1) return base->for_each_member_observer(c, visit);
  // IntersectionModel's pattern: enumerate the corner, filter by the
  // full plan (the corner re-check inside contains is redundant but
  // keeps the filter trivially correct).
  return base->for_each_member_observer(c, [&](const ObserverFunction& phi) {
    return !contains(c, phi) || visit(phi);
  });
}

CompiledModel::StreamingPlan CompiledModel::streaming_plan() const {
  StreamingPlan plan;
  for (const ModelCheck& k : checks_) {
    switch (k.kind) {
      case ModelCheck::Kind::kCorner:
        plan.mask |= corner_suite_bit(*named_corner(k.cube));
        break;
      case ModelCheck::Kind::kFresh:
        plan.mask |= kSuiteFresh;
        break;
      case ModelCheck::Kind::kCube:
        plan.streamable = false;
        break;
      case ModelCheck::Kind::kPerLocation:
        // Also the per-location part of scoped order and SC's complete
        // rejection prefilter: the searches run only on LC survivors.
        plan.mask |= kSuiteLC;
        break;
      case ModelCheck::Kind::kGlobal:
        plan.global = true;
        break;
      case ModelCheck::Kind::kScope:
        plan.scoped = true;
        break;
    }
  }
  return plan;
}

std::shared_ptr<const CompiledModel> compile_model(ModelSpec spec) {
  return std::make_shared<const CompiledModel>(std::move(spec));
}

const ModelRegistry& ModelRegistry::bundled() {
  static const ModelRegistry registry = [] {
    ModelRegistry r;
    for (const ModelSpec& s : builtin_model_specs()) r.add(s);
    for (ModelSpec& s : bundled_spec_pack()) r.add(std::move(s));
    return r;
  }();
  return registry;
}

std::size_t ModelRegistry::add(ModelSpec spec) {
  spec.normalize();
  auto model = compile_model(spec);
  // Merge the new plan into the shared table. A replaced entry's checks
  // stay in the table; no plan refers to them, so they never run.
  std::vector<std::uint32_t> plan;
  plan.reserve(model->checks().size());
  for (const ModelCheck& k : model->checks()) {
    const auto it = std::find(checks_.begin(), checks_.end(), k);
    plan.push_back(static_cast<std::uint32_t>(it - checks_.begin()));
    if (it == checks_.end()) checks_.push_back(k);
  }
  std::size_t i = 0;
  while (i < entries_.size() && entries_[i].spec.name != spec.name) ++i;
  if (i == entries_.size()) {
    CCMM_CHECK(i < 64, "registry holds at most 64 models");
    entries_.emplace_back();
    plans_.emplace_back();
  }
  entries_[i] = Entry{std::move(spec), std::move(model)};
  plans_[i] = std::move(plan);
  derive(i);
  return i;
}

const ModelRegistry::Entry* ModelRegistry::find(std::string_view name) const {
  for (const Entry& e : entries_)
    if (e.spec.name == name) return &e;
  return nullptr;
}

void ModelRegistry::derive(std::size_t k) {
  // Only row and column k change: the other specs are as they were.
  const std::size_t n = entries_.size();
  const std::uint64_t bit_k = std::uint64_t{1} << k;
  implies_[k] = implied_by_[k] = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint64_t bit_j = std::uint64_t{1} << j;
    implies_[j] &= ~bit_k;
    implied_by_[j] &= ~bit_k;
    if (spec_implies(entries_[k].spec, entries_[j].spec)) {
      implies_[k] |= bit_j;
      implied_by_[j] |= bit_k;
    }
    if (spec_implies(entries_[j].spec, entries_[k].spec)) {
      implies_[j] |= bit_k;
      implied_by_[k] |= bit_j;
    }
  }

  // Weakest-first topological order over *strict* implications (equal
  // specs — e.g. COH and LC — imply each other; ties break by index).
  eval_order_.clear();
  std::uint64_t placed = 0;
  for (std::size_t round = 0; round < n; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t strictly_weaker = implies_[i] & ~implied_by_[i];
      if ((placed >> i & 1) != 0 || (strictly_weaker & ~placed) != 0) continue;
      eval_order_.push_back(i);
      placed |= std::uint64_t{1} << i;
      break;
    }
  }
  CCMM_CHECK(eval_order_.size() == n, "implication lattice is not a preorder");
}

std::uint64_t ModelRegistry::classify(const PreparedPair& p,
                                      const RegistryOptions& options,
                                      bool* exhausted) const {
  if (exhausted != nullptr) *exhausted = false;
  if (!p.valid()) return 0;  // every spec model rejects invalid observers
  // Per-call memo of check outcomes, on the stack so concurrent
  // classifications can share one const registry.
  std::array<Outcome, 64> small{};
  std::vector<Outcome> large;
  Outcome* memo = small.data();
  if (checks_.size() > small.size()) {
    large.assign(checks_.size(), Outcome::kUnknown);
    memo = large.data();
  }
  std::uint64_t member = 0;
  std::uint64_t known = 0;  // decided without budget exhaustion
  for (const std::size_t i : eval_order_) {
    const std::uint64_t self = std::uint64_t{1} << i;
    if (options.short_circuit) {
      // Rejection propagates up the lattice: i ⊆ j and p ∉ j ⇒ p ∉ i.
      if ((implies_[i] & known & ~member) != 0) {
        known |= self;
        continue;
      }
      // Acceptance propagates down: j ⊆ i and p ∈ j ⇒ p ∈ i.
      if ((implied_by_[i] & known & member) != 0) {
        member |= self;
        known |= self;
        continue;
      }
    }
    Outcome v = Outcome::kPass;
    for (const std::uint32_t k : plans_[i]) {
      if (memo[k] == Outcome::kUnknown)
        memo[k] = run_check(checks_[k], p, options.sc_budget);
      if ((v = memo[k]) != Outcome::kPass) break;
    }
    if (v == Outcome::kExhausted) {
      if (exhausted != nullptr) *exhausted = true;
      continue;  // unknown: neither member nor usable for pruning
    }
    known |= self;
    if (v == Outcome::kPass) member |= self;
  }
  return member;
}

}  // namespace ccmm
