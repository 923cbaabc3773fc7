#include "models/suite.hpp"

#include "models/compile.hpp"

namespace ccmm {
namespace {

/// The first `count` built-in specs; their indices are the SuiteBits.
ModelRegistry builtin_registry(std::size_t count) {
  ModelRegistry r;
  for (std::size_t i = 0; i < count; ++i) r.add(builtin_model_specs()[i]);
  return r;
}

}  // namespace

std::uint32_t ModelSuite::classify(const PreparedPair& p,
                                   const SuiteOptions& opt,
                                   bool* sc_exhausted) {
  static const ModelRegistry six = builtin_registry(6);
  static const ModelRegistry eight = builtin_registry(8);
  RegistryOptions ropt;
  ropt.sc_budget = opt.sc_budget;
  // Only the SC search can exhaust a budget among the built-ins.
  return static_cast<std::uint32_t>(
      (opt.include_plus ? eight : six).classify(p, ropt, sc_exhausted));
}

std::uint32_t ModelSuite::classify(const Computation& c,
                                   const ObserverFunction& phi,
                                   const SuiteOptions& opt,
                                   bool* sc_exhausted) {
  return classify(prepare_pair(c, phi), opt, sc_exhausted);
}

const char* ModelSuite::bit_name(std::uint32_t bit) {
  switch (bit) {
    case kSuiteSC:
      return "SC";
    case kSuiteLC:
      return "LC";
    case kSuiteNN:
      return "NN";
    case kSuiteNW:
      return "NW";
    case kSuiteWN:
      return "WN";
    case kSuiteWW:
      return "WW";
    case kSuiteWNPlus:
      return "WN+";
    case kSuiteNNPlus:
      return "NN+";
    case kSuiteFresh:
      return "FRESH";
  }
  return "?";
}

}  // namespace ccmm
