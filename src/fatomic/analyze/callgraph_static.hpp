// Pass 4 of the static analyzer: a statically constructed call graph with
// context-sensitive, catch-clause-aware exception-flow propagation
// (DESIGN.md §12).
//
// Pass 2 propagates over the *dynamic* call graph, so a method no campaign
// reaches gets only its declared set.  This pass builds the graph from the
// SourceModel alone — every instrumented wrapper body and every helper it
// calls, scanned for throws, rethrows, instrumented calls and FAT_CTOR_INFO
// constructions — and propagates exception types with two precision
// features Pass 2 lacks: catch-clause awareness (a throw or a callee's set
// inside a `try` body stops at a handler for its type, a base of it, or
// `catch (...)`, the only handler that stops an unknown type) and
// per-call-site contexts (each call's callee set is filtered through the
// try blocks enclosing that call only).
//
// Everywhere else the result over-approximates on purpose: an unresolved
// target is "any instrumented method of that name", a `throw expr;` of
// unknown type is the wildcard "*", a method with no scanned body is
// "open".  That bias makes `graph_check` meaningful: every call edge and
// exception type a campaign observes must be covered by the static result,
// or the graph is unsound (exit 2 in the CLI, enforced in CI).
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "fatomic/analyze/body.hpp"
#include "fatomic/analyze/exception_flow.hpp"
#include "fatomic/analyze/source_model.hpp"
#include "fatomic/detect/campaign.hpp"

namespace fatomic::analyze {

/// The static call graph and exception-flow sets.  Nodes are instrumented
/// methods, keyed like the runtime: "Qualified::Class::method", with
/// constructor frames as "Qualified::Class::(ctor)".
struct StaticCallGraph {
  /// node -> instrumented methods reachable from its body through
  /// un-instrumented helpers only (the static prediction of the dynamic
  /// graph's immediate wrapper-nesting edges).  Deliberately *not* filtered
  /// by catch clauses: catching a callee's exception removes the type from
  /// the caller's may-propagate set, not the call edge.
  std::map<std::string, std::set<std::string>> calls;
  /// node -> simple names of FAT_CTOR_INFO classes whose constructors may
  /// run during the body (constructor frames nest under the caller).
  std::map<std::string, std::set<std::string>> ctor_classes;
  /// node -> every exception type that may escape its frame: declared +
  /// runtime + explicit body throws + callee sets, filtered through the
  /// catch clauses enclosing each throw/call site.  Types appear as written
  /// at the throw site (often simple names) or as declared (qualified);
  /// "*" is the unknown-type wildcard.
  std::map<std::string, std::set<std::string>> may_propagate;
  /// Like may_propagate but *only* exception types explicitly thrown in the
  /// node's own body or its un-instrumented helpers — no declared/runtime
  /// seeds, no instrumented-callee contributions (an undeclared throw in a
  /// callee is the callee's own finding).  This is what the static lint
  /// checks against declarations.
  std::map<std::string, std::set<std::string>> may_raise_explicit;
  /// Instrumented methods with no scanned body: nothing is known about
  /// them, so every check involving them passes trivially.
  std::set<std::string> open;

  /// True when `type` (a demangled, fully qualified dynamic observation) is
  /// explained by `node`'s static set: the node is open, the set holds the
  /// wildcard, or an entry matches exactly or as a namespace-suffix (static
  /// sets hold types as written — `EmptyError` covers the demangled
  /// `subjects::collections::EmptyError`).
  bool covers(const std::string& node, const std::string& type) const;
};

/// Builds the static graph from a scanned source model and its indexed
/// definitions (full bodies).  The runtime exception names (the injector's
/// E_{k+1}..E_n, demangled) seed every node's may-propagate set, mirroring
/// Pass 2.
StaticCallGraph build_static_call_graph(
    const SourceModel& model, const std::vector<IndexedDef>& defs,
    const std::set<std::string>& runtime_exception_names);
/// Same, indexing the model's definitions first.
StaticCallGraph build_static_call_graph(
    const SourceModel& model,
    const std::set<std::string>& runtime_exception_names);

/// One dynamic observation the static graph fails to predict.
struct GraphViolation {
  std::string kind;    ///< "call-edge" | "ctor-edge" | "exception-type"
  std::string node;    ///< the caller / marked frame
  std::string detail;  ///< the uncovered callee or exception type
};

/// Result of the static-vs-dynamic soundness cross-check.
struct GraphCheckResult {
  std::vector<GraphViolation> violations;
  std::size_t edges_checked = 0;
  std::size_t types_checked = 0;
  bool ok() const { return violations.empty(); }
};

/// Validates the static graph against a full campaign: every dynamically
/// observed call edge must be in `calls` (constructor edges in
/// `ctor_classes`) and every observed Mark::exception_type must be covered
/// by the marked frame's may-propagate set.
GraphCheckResult graph_check(const detect::Campaign& campaign,
                             const StaticCallGraph& graph);

/// The static counterpart of analyze::lint, closing its dynamic-graph blind
/// spot: for every instrumented method of a campaign-observed class that the
/// campaign never reached, checks the statically derived explicit-throw set
/// against the declarations (its own FAT_THROWS + those of statically
/// reachable callees + the runtime set).  Covered methods are skipped —
/// they are the dynamic lint's job, with real observations to check.
/// Findings carry injected_at == "(static)".
std::vector<LintFinding> lint_static(
    const detect::Campaign& campaign, const SourceModel& model,
    const StaticCallGraph& graph,
    const std::set<std::string>& runtime_exception_names);

}  // namespace fatomic::analyze
