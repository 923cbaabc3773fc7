#include "trace/spec_check.hpp"

#include <algorithm>
#include <utility>

#include "trace/trace.hpp"
#include "util/str.hpp"

namespace ccmm {
namespace {

/// Render a scope's member list for diagnostics ("{0, 1}").
std::string scope_to_string(const ScopeSpec& scope) {
  std::string out = "{";
  for (std::size_t i = 0; i < scope.locations.size(); ++i) {
    if (i > 0) out += ", ";
    out += format("%u", scope.locations[i]);
  }
  out += "}";
  return out;
}

/// Decide one serialization obligation (a scope, or the global order on
/// `locs`): hint verification first, budgeted search second. Returns
/// kYes/kNo, or kExhausted when the search ran out of budget.
SearchStatus decide_order(const Computation& c, const ObserverFunction& phi,
                          const std::vector<Location>& locs,
                          const SpecCheckOptions& options) {
  if (!options.hint_order.empty() &&
      order_explains(c, phi, locs, options.hint_order))
    return SearchStatus::kYes;
  ScOptions sc_opt;
  sc_opt.budget = options.search_budget;
  return serialization_check(c, phi, locs, sc_opt).status;
}

}  // namespace

bool SpecCheckReport::all_members() const {
  return std::all_of(models.begin(), models.end(),
                     [](const SpecModelVerdict& v) {
                       return v.decided && v.member;
                     });
}

std::string SpecCheckReport::to_string() const {
  std::string out = format("spec_check: %zu model(s)\n", models.size());
  for (const SpecModelVerdict& v : models) {
    out += format("  %-12s %s", v.name.c_str(),
                  !v.decided ? "undecided" : (v.member ? "yes" : "no"));
    if (!v.detail.empty()) {
      out += "  (";
      out += v.detail;
      out += ")";
    }
    out += '\n';
  }
  out += base.to_string();
  return out;
}

SpecCheckReport spec_check(
    const Computation& c, const ObserverFunction& phi,
    const std::vector<std::shared_ptr<const CompiledModel>>& models,
    const SpecCheckOptions& options) {
  SpecCheckReport report;

  // One shared streaming run covers the mask-decidable part of every
  // streamable plan.
  std::vector<CompiledModel::StreamingPlan> plans;
  plans.reserve(models.size());
  std::uint32_t mask = 0;
  for (const auto& m : models) {
    plans.push_back(m->streaming_plan());
    if (plans.back().streamable) mask |= plans.back().mask;
  }
  LargeCheckOptions large = options.large;
  large.models = mask | (options.large.models & kLargeCheckExt);
  report.base = large_check(c, phi, large);

  report.models.reserve(models.size());
  for (std::size_t i = 0; i < models.size(); ++i) {
    const CompiledModel& m = *models[i];
    const CompiledModel::StreamingPlan& plan = plans[i];
    SpecModelVerdict v;
    v.name = m.name();
    if (!plan.streamable) {
      v.detail =
          "no streaming lowering: a w-constrained cube axiom needs the "
          "cubic closure scan";
      report.models.push_back(std::move(v));
      continue;
    }
    v.decided = true;
    if (!report.base.valid_observer) {
      // Every model rejects an invalid observer (Definition 2).
      v.detail = report.base.detail;
      report.models.push_back(std::move(v));
      continue;
    }
    if ((report.base.satisfied & plan.mask) != plan.mask) {
      // Carry the first per-location witness for a bit this model needs.
      const std::uint32_t missing = plan.mask & ~report.base.satisfied;
      for (const LocationCheck& lc : report.base.locations) {
        if ((lc.violated & missing) != 0) {
          v.detail = lc.detail;
          break;
        }
      }
      if (v.detail.empty()) v.detail = report.base.detail;
      report.models.push_back(std::move(v));
      continue;
    }

    // The mask verdicts hold; finish the order axioms the masks cannot
    // express. LC everywhere (checked above for scoped/global plans) is
    // necessary, so the searches only run on plausible members.
    bool member = true;
    if (plan.scoped) {
      for (const ScopeSpec& scope : m.spec().scopes) {
        const SearchStatus st = decide_order(c, phi, scope.locations, options);
        if (st == SearchStatus::kYes) continue;
        if (st == SearchStatus::kNo) {
          member = false;
          v.detail = format("scope %s admits no joint serialization",
                            scope_to_string(scope).c_str());
        } else {
          v.decided = false;
          v.detail = format("serialization search budget exhausted for "
                            "scope %s",
                            scope_to_string(scope).c_str());
        }
        break;
      }
    }
    if (member && v.decided && plan.global) {
      const SearchStatus st =
          decide_order(c, phi, phi.active_locations(), options);
      if (st == SearchStatus::kNo) {
        member = false;
        v.detail = "no global serialization explains the observer";
      } else if (st == SearchStatus::kExhausted) {
        v.decided = false;
        v.detail = "global serialization search budget exhausted";
      }
    }
    v.member = v.decided && member;
    report.models.push_back(std::move(v));
  }
  return report;
}

SpecCheckReport spec_check_trace(
    const Computation& c, const Trace& trace,
    const std::vector<std::shared_ptr<const CompiledModel>>& models,
    const SpecCheckOptions& options) {
  std::string error;
  const std::optional<ObserverFunction> phi = trace_observer(
      c, trace, options.large.parallel, options.large.pool, error);
  if (!phi) {
    SpecCheckReport report;
    report.base.detail = std::move(error);
    report.models.reserve(models.size());
    for (const auto& m : models) {
      SpecModelVerdict v;
      v.name = m->name();
      v.decided = true;
      v.detail = report.base.detail;
      report.models.push_back(std::move(v));
    }
    return report;
  }
  SpecCheckOptions opt = options;
  // The execution order explains every column of a scope-consistent
  // serial execution (ScMemory reads the last write in trace order), so
  // the scoped/global obligations usually verify in O(n + m) and never
  // backtrack.
  if (opt.hint_order.empty()) opt.hint_order = trace_order(trace);
  return spec_check(c, *phi, models, opt);
}

}  // namespace ccmm
