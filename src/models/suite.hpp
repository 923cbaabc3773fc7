// ccmm/models/suite.hpp
//
// ModelSuite: classify one prepared (C, Φ) pair against the built-in
// model family in a single call, returning a membership bitmask instead
// of running eight independent contains() calls.
//
// The eight built-ins are bundled specs (models/spec.hpp), and the
// suite is a ModelRegistry (models/compile.hpp) holding them in SuiteBit
// order, so registry bit i is suite bit i. The registry's derived
// implication lattice (Theorem 21: SC ⊆ LC ⊆ NN ⊆ NW, WN ⊆ WW; NN⁺ ⊆
// NN, WN⁺ ⊆ WN) does the short-circuiting: a pair outside WW is outside
// everything, NN runs only when NW and WN admitted the pair, LC only
// when NN did, and the NP-hard SC search only after the LC check
// passed. Shared checks run once: WN⁺ reuses WN's scan, NN⁺ reuses NN's
// and WN⁺'s freshness test, and the SC search reuses the LC verdict as
// its prefilter. tests/test_prepared pins the bits against independent
// legacy calls.
#pragma once

#include <cstdint>

#include "models/qdag.hpp"
#include "models/sequential_consistency.hpp"

namespace ccmm {

/// Membership bits returned by ModelSuite::classify.
enum SuiteBit : std::uint32_t {
  kSuiteSC = 1u << 0,
  kSuiteLC = 1u << 1,
  kSuiteNN = 1u << 2,
  kSuiteNW = 1u << 3,
  kSuiteWN = 1u << 4,
  kSuiteWW = 1u << 5,
  kSuiteWNPlus = 1u << 6,
  kSuiteNNPlus = 1u << 7,
  /// The freshness axiom alone (models/wn_plus.hpp): not a model the
  /// suite classifies, but a first-class bit so compiled specs can
  /// request it from the streaming large_check path, where WN⁺/NN⁺ are
  /// decided as WN ∧ FRESH / NN ∧ FRESH.
  kSuiteFresh = 1u << 8,
};

struct SuiteOptions {
  /// Budget for the SC backtracking search (states expanded).
  std::size_t sc_budget = SIZE_MAX;
  /// Classify the freshness-strengthened WN⁺/NN⁺ as well.
  bool include_plus = true;
};

class ModelSuite {
 public:
  /// Membership bitmask of `p` over the suite. Equals the OR of the
  /// individual models' contains() answers (pinned by tests). If the SC
  /// search exhausts `sc_budget`, the SC bit is left unset and
  /// *sc_exhausted (when non-null) is set to true.
  [[nodiscard]] static std::uint32_t classify(const PreparedPair& p,
                                              const SuiteOptions& opt = {},
                                              bool* sc_exhausted = nullptr);

  /// Convenience overload: prepares (c, phi) with a per-thread context.
  [[nodiscard]] static std::uint32_t classify(const Computation& c,
                                              const ObserverFunction& phi,
                                              const SuiteOptions& opt = {},
                                              bool* sc_exhausted = nullptr);

  /// "SC" for kSuiteSC etc.; "?" for a non-bit.
  [[nodiscard]] static const char* bit_name(std::uint32_t bit);
};

}  // namespace ccmm
