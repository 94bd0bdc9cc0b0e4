#include "fatomic/analyze/exception_flow.hpp"

#include <algorithm>

#include "fatomic/analyze/fixpoint.hpp"
#include "fatomic/weave/method_info.hpp"
#include "fatomic/weave/runtime.hpp"

namespace fatomic::analyze {

ExceptionFlow propagate_exceptions(const detect::Campaign& campaign) {
  ExceptionFlow flow;

  // Local seeds: declared exceptions plus the generic runtime set the
  // injector appends to every method (the paper's E_{k+1}..E_n).
  std::set<std::string> runtime_names;
  for (const auto& spec : weave::Runtime::instance().runtime_exceptions())
    runtime_names.insert(spec.type_name);
  for (const weave::MethodInfo* mi : weave::MethodRegistry::instance().all()) {
    std::set<std::string>& s = flow.may_propagate[mi->qualified_name()];
    for (const auto& spec : mi->declared()) s.insert(spec.type_name);
    s.insert(runtime_names.begin(), runtime_names.end());
  }

  // Transitive closure over the dynamic call graph: an exception escaping a
  // callee unwinds through its caller's wrapper.
  const detect::CallGraph graph = detect::CallGraph::from(campaign);
  for (const auto& [caller, callees] : graph.edges())
    if (caller != detect::CallGraph::kRoot) flow.may_propagate[caller];
  std::map<std::string, std::size_t> ix;
  std::vector<std::set<std::string>> seeds;
  for (const auto& [method, s] : flow.may_propagate) {
    ix[method] = seeds.size();
    seeds.push_back(s);
  }
  CallHint calls(seeds.size());
  for (const auto& [caller, callees] : graph.edges())
    for (const auto& [callee, count] : callees)
      if (caller != detect::CallGraph::kRoot && ix.count(callee))
        calls[ix[caller]].push_back(ix[callee]);
  auto join = [](auto& into, const auto& from) {
    into.insert(from.begin(), from.end());
  };
  Fixpoint<std::set<std::string>> sets(std::move(seeds));
  sets.solve(
      calls,
      [&](std::size_t n) {
        std::set<std::string> next;
        for (std::size_t c : calls[n]) join(next, sets.read(c));
        return next;
      },
      join);
  for (auto& [method, s] : flow.may_propagate) s = sets.read(ix[method]);
  return flow;
}

std::vector<LintFinding> lint(const detect::Campaign& campaign) {
  const ExceptionFlow flow = propagate_exceptions(campaign);
  std::vector<LintFinding> findings;
  std::set<std::pair<std::string, std::string>> seen;
  for (const detect::RunRecord& run : campaign.runs) {
    for (const weave::Mark& mark : run.marks) {
      if (mark.exception_type.empty()) continue;  // no ABI introspection
      const std::string& method = mark.method->qualified_name();
      const std::set<std::string>* allowed = flow.find(method);
      if (allowed != nullptr && allowed->count(mark.exception_type)) continue;
      if (!seen.emplace(method, mark.exception_type).second) continue;
      LintFinding f;
      f.method = method;
      f.exception_type = mark.exception_type;
      f.injected_at = run.injected_method != nullptr
                          ? run.injected_method->qualified_name()
                          : "(none)";
      f.injection_point = run.injection_point;
      findings.push_back(std::move(f));
    }
  }
  std::sort(findings.begin(), findings.end(),
            [](const LintFinding& a, const LintFinding& b) {
              return a.method != b.method ? a.method < b.method
                                          : a.exception_type < b.exception_type;
            });
  return findings;
}

}  // namespace fatomic::analyze
