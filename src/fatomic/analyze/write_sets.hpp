// Pass 3 of the static analyzer: interprocedural write sets and the
// checkpoint plans they justify (DESIGN.md §8).
//
// Pass 1 records which member names each instrumented method's
// pre-injection mutations may write, helper and sibling summaries folded
// in.  This pass turns those name sets into snapshot::CheckpointPlans:
//
//   capture — the write-set names, admitted only when every scanned
//             declaration of the name has a value-like type (builtins,
//             std::string, enums): the method only overwrites primitive
//             leaves, never the shape of the receiver graph;
//   prune   — member names whose reachable subtrees provably cannot contain
//             any capture name, so the checkpoint walk may skip them.
//
// Anything outside that argument collapses to ⊤, the paper's full deep
// copy, which is always sound: unknown or parameter-aliased write targets,
// `this` escaping, catch clauses, non-value-like capture types, unreflected
// or polymorphic classes anywhere in the receiver's walk set.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "fatomic/analyze/effects.hpp"
#include "fatomic/analyze/source_model.hpp"
#include "fatomic/snapshot/partial.hpp"

namespace fatomic::analyze {

/// The write-set verdict for one instrumented method.
struct MethodWriteSet {
  std::string qualified_name;
  /// ⊤: the write set could not be bounded; plan stays full.
  bool top = false;
  /// First rule that collapsed the set (diagnostics / report output).
  std::string top_reason;
  /// Every collapsing rule that fired, in rule order.  Unlike `top_reason`
  /// this keeps going after the first hit, so the report can show all the
  /// obstacles a method must clear before its plan can turn partial.
  std::vector<std::string> top_reasons;
  /// Pre-injection write names (meaningful only when !top).
  std::set<std::string> names;
  /// The derived checkpoint plan (partial iff !top).
  snapshot::CheckpointPlan plan;
};

struct WriteSetAnalysis {
  /// One entry per instrumented method, keyed by qualified name.
  std::map<std::string, MethodWriteSet> methods;

  const MethodWriteSet* find(const std::string& qualified_name) const {
    auto it = methods.find(qualified_name);
    return it == methods.end() ? nullptr : &it->second;
  }
  std::size_t partial_count() const;
  /// Histogram of collapsing rules across all ⊤ methods, keyed by rule
  /// family (per-name suffixes such as the field name are stripped so the
  /// same rule aggregates).  Each rule family counts once per method.
  /// Drives the `--write-sets` summary and the `top_histogram` object in
  /// the write_sets JSON section.
  std::map<std::string, std::size_t> top_histogram() const;
  /// Fleet-wide aggregate: every collapsing-rule firing across all ⊤
  /// methods (not deduplicated per method), keyed by rule family.  A
  /// method blocked by three non-value-like fields contributes three —
  /// the table that says where precision work buys the most.  Drives the
  /// `--all --write-sets` summary and the `aggregate_top_histogram`
  /// object in the write_sets JSON section.
  std::map<std::string, std::size_t> aggregate_top_histogram() const;
  /// Per-subject-family plan coverage and ⊤-reason histograms followed by
  /// the fleet-wide aggregate (`--all --write-sets`).  Families are the
  /// namespace segment under `subjects::`.
  std::string fleet_text() const;
  std::string to_text() const;
};

/// Runs Pass 3 over the scanned model and the effect results.
WriteSetAnalysis analyze_write_sets(const SourceModel& model,
                                    const EffectAnalysis& effects);

}  // namespace fatomic::analyze
