// ccmm/models/compile.hpp
//
// The model compiler: lower a declarative ModelSpec (models/spec.hpp)
// into a flat, cheapest-first list of ModelChecks, each one a call into
// the prepared-pair machinery — the frozen closure and precedence
// oracle behind PreparedPair::precedes, the Φ⁻¹ block bitsets behind
// the named Q-dag scans, the per-location writer lists, and the
// backtracking serialization engine. Lowering rules, in list order:
//
//   axiom XYZ, w-independent   -> kCorner: qdag_consistent_prepared
//                                 (the named 64-writer mask fast path)
//   fresh                      -> kFresh: observer_is_fresh_prepared
//   axiom XYW (w constrained)  -> kCube: cube_consistent_prepared
//   order location/scoped/global -> kPerLocation:
//                                 location_consistent_prepared
//   order global               -> kGlobal: sc_check_prepared with the
//                                 LC prefilter off (LC ran just before)
//   scope lines                -> kScope: serialization_check per scope
//
// Scoped and global order imply per-location order, so both lower to
// the LC check first: it rejects before any search runs, and it is the
// same LC bit the streaming path (trace/spec_check.hpp) folds into its
// mask. A CompiledModel runs its list through one evaluator; the
// built-ins compile onto the same checker calls the legacy models
// make, and the differential tests pin byte-identity.
//
// ModelRegistry holds compiled models by name. It merges their checks
// into one table of distinct checks and classifies a prepared pair
// against every entry, running each distinct check at most once per
// pair. Short-circuiting follows the implication lattice spec_implies
// derives (acceptance propagates down, rejection propagates up). This
// is the one classification path: ModelSuite (models/suite.hpp) is a
// registry of the built-in specs.
#pragma once

#include <array>
#include <memory>
#include <string_view>
#include <vector>

#include "models/location_consistency.hpp"
#include "models/sequential_consistency.hpp"
#include "models/spec.hpp"
#include "models/suite.hpp"
#include "models/wn_plus.hpp"

namespace ccmm {

/// One check a compiled spec lowers onto. Kinds are declared in plan
/// order (cheapest first); equal checks are shared between the entries
/// of a ModelRegistry.
struct ModelCheck {
  enum class Kind : std::uint8_t {
    kCorner,       // `cube` is a w-independent (named) corner
    kFresh,        // the freshness axiom
    kCube,         // `cube` is a w-constrained corner (cubic scan)
    kPerLocation,  // per-location order (LC)
    kGlobal,       // one serialization of every location (SC search)
    kScope,        // one serialization of the `scope` locations
  };
  Kind kind = Kind::kPerLocation;
  CubeSpec cube{};
  std::vector<Location> scope;
  [[nodiscard]] bool operator==(const ModelCheck&) const = default;
};

/// Membership with explicit budget-exhaustion reporting, for callers
/// (the registry, the anomaly classifier) that must degrade gracefully.
struct CompiledVerdict {
  bool member = false;
  bool exhausted = false;  // a search ran out of budget; member is false
};

class CompiledModel final : public MemoryModel {
 public:
  explicit CompiledModel(ModelSpec spec);

  [[nodiscard]] std::string name() const override { return spec_.name; }
  /// Structural tag: two compiled models with the same normalized spec
  /// share cache entries; same-named models with different axioms never
  /// collide.
  [[nodiscard]] std::string cache_tag() const override;
  /// check_prepared with an unbounded search; aborts (CCMM_CHECK) on
  /// exhaustion, like the hand-fused SC model.
  [[nodiscard]] bool contains_prepared(const PreparedPair& p) const override;
  /// Pruned enumeration: when the plan carries a named corner the
  /// enumerator of that corner's QDagModel drives (prefix-pruned
  /// backtracking over columns), filtered by the full plan — the
  /// IntersectionModel pattern. Plans without a named corner fall back
  /// to generate-and-test, exactly like the hand-fused LC/SC models.
  bool for_each_member_observer(
      const Computation& c,
      const std::function<bool(const ObserverFunction&)>& visit)
      const override;

  /// Run the check list on `p`. `budget` bounds each serialization
  /// search (global or per scope); an exhausted search is reported,
  /// not guessed.
  [[nodiscard]] CompiledVerdict check_prepared(
      const PreparedPair& p, std::size_t budget = SIZE_MAX) const;

  [[nodiscard]] const ModelSpec& spec() const { return spec_; }
  /// The lowered plan, cheapest first.
  [[nodiscard]] const std::vector<ModelCheck>& checks() const {
    return checks_;
  }

  /// How the plan maps onto the streaming large_check path.
  struct StreamingPlan {
    /// Suite bits (incl. kSuiteFresh) whose conjunction large_check
    /// must report for the mask-decidable part of the plan.
    std::uint32_t mask = 0;
    /// Scoped order: per-scope serialization searches remain (the
    /// per-location part is the kSuiteLC bit of `mask`).
    bool scoped = false;
    /// Global order: the full SC search remains after the LC masks.
    bool global = false;
    /// False when some check has no streaming lowering (a w-constrained
    /// cube corner needs the cubic scan, which wants the closure).
    bool streamable = true;
  };
  [[nodiscard]] StreamingPlan streaming_plan() const;

 private:
  ModelSpec spec_;
  std::vector<ModelCheck> checks_;
};

/// Compile a spec (normalizing a copy first).
[[nodiscard]] std::shared_ptr<const CompiledModel> compile_model(
    ModelSpec spec);

struct RegistryOptions {
  /// Budget for each serialization search a classification runs.
  std::size_t sc_budget = SIZE_MAX;
  /// Derived-lattice pruning; off = run every entry's check list (the
  /// ablation the differential tests run both ways).
  bool short_circuit = true;
};

/// A named collection of compiled models, the table of distinct checks
/// their plans share, and the implication lattice spec_implies derives
/// between them. Holds at most 64 entries so a classification is one
/// bitmask.
class ModelRegistry {
 public:
  struct Entry {
    ModelSpec spec;
    std::shared_ptr<const CompiledModel> model;
  };

  ModelRegistry() = default;

  /// The eight built-in specs followed by the bundled spec pack
  /// (PC2, COH, TSO) — what --list-models prints before any --spec.
  [[nodiscard]] static const ModelRegistry& bundled();

  /// Register (or replace, by name) a spec; returns its index. Only the
  /// new spec is lowered; its checks join the shared table and the
  /// implication lattice is re-derived.
  std::size_t add(ModelSpec spec);

  [[nodiscard]] const Entry* find(std::string_view name) const;
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

  /// Bit i of the result = (p ∈ entries()[i]). Entries are evaluated
  /// weakest-first along the derived lattice, and each distinct check
  /// runs at most once. With short_circuit a rejection by a weaker
  /// model decides every stronger one and an acceptance by a stronger
  /// model decides every weaker one without running its checks
  /// (answer-preserving — differentially tested against the unpruned
  /// sweep). Budget-exhausted entries report non-membership and set
  /// *exhausted.
  [[nodiscard]] std::uint64_t classify(const PreparedPair& p,
                                       const RegistryOptions& options = {},
                                       bool* exhausted = nullptr) const;

  /// spec_implies(entries[i], entries[j]) as a row bitmask — the derived
  /// lattice classify() walks, exposed for tests and --list-models.
  [[nodiscard]] std::uint64_t implies_mask(std::size_t i) const {
    return implies_[i];
  }

 private:
  /// Re-derive the lattice after entry k was added or replaced.
  void derive(std::size_t k);

  std::vector<Entry> entries_;
  std::vector<ModelCheck> checks_;                 // distinct, shared
  std::vector<std::vector<std::uint32_t>> plans_;  // per entry, into checks_
  std::array<std::uint64_t, 64> implies_{};        // bit j of row i: i ⊆ j
  std::array<std::uint64_t, 64> implied_by_{};     // bit j of row i: j ⊆ i
  std::vector<std::size_t> eval_order_;            // weakest-first
};

}  // namespace ccmm
