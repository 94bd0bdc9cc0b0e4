// The weaving runtime: global mode switch, injection-point counter, marks of
// the current run, call counting and the masking wrap predicate.
//
// The paper builds two distinct programs — an exception injector P_I and a
// corrected program P_C (Figure 1).  Our load-time substitute keeps a single
// instrumented program whose wrappers select their behaviour from the active
// Mode, which yields the same wrapper nesting and observable semantics as
// the paper's woven variants (DESIGN.md, substitution table).
//
// Each thread sees its own "current" runtime through Runtime::instance():
// by default a thread-local instance, or an explicitly installed one
// (ScopedRuntime).  A runtime itself is single-threaded — the paper's system
// "does not explicitly deal with concurrent accesses in multi-threaded
// programs" (Section 4.4) — but isolated runtimes let independent injection
// runs execute on separate threads (CampaignSettings::jobs).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fatomic/recovery/policy.hpp"
#include "fatomic/snapshot/backend.hpp"
#include "fatomic/snapshot/partial.hpp"
#include "fatomic/trace/trace.hpp"
#include "fatomic/weave/method_info.hpp"

namespace fatomic::weave {

/// Per-method checkpoint plans keyed by qualified method name, produced by
/// the write-set analysis (analyze::analyze_write_sets) and installed into a
/// runtime for the mask layer to consult.  Methods without an entry — and
/// entries with partial == false — use the full deep checkpoint.
using PlanMap = std::map<std::string, snapshot::CheckpointPlan>;

enum class Mode : std::uint8_t {
  Direct,      ///< call through, no instrumentation (original program P)
  Count,       ///< count calls per method (baseline for Figures 2b/3b)
  Inject,      ///< exception injector program P_I (Listing 1)
  Mask,        ///< corrected program P_C (Listing 2)
  InjectMask,  ///< P_C under re-injection: verifies masking removed all
               ///< non-atomic behaviour
};

/// One atomicity observation made by an injection wrapper when an exception
/// passed through it (Listing 1, lines 10-14).  Marks are appended in
/// exception-propagation order, i.e. callee before caller — the property the
/// pure/conditional classification relies on (Definition 3).
struct Mark {
  const MethodInfo* method;
  bool atomic;
  std::uint64_t injection_point;
  /// Wrapper nesting depth at which the mark was recorded.  Within one
  /// exception-propagation episode depths strictly decrease (callee to
  /// caller); a mark at a depth >= its predecessor's starts a new episode.
  /// The classifier uses this to apply the "first marked" rule per episode,
  /// so an unrelated earlier exception in the same run cannot demote a pure
  /// failure non-atomic method to conditional.
  int depth;
  /// One-line description of the first object-graph difference (only for
  /// non-atomic marks, and only when Runtime::record_diffs is set).
  std::string detail;
  /// Demangled type name of the exception that passed through the wrapper
  /// (injected or real); empty on toolchains without ABI introspection.
  /// Consumed by the exception-flow lint, which checks every observed type
  /// against the method's statically computed may-propagate set.
  std::string exception_type;
  /// Interned throw-site stack id (unwind::StackTable) of the exception this
  /// mark observed; 0 when provenance is off or no capture matched.
  std::uint64_t throw_stack = 0;
  /// Every object-graph diff path between the entry checkpoint and the
  /// post-exception state (only for non-atomic marks, and only when
  /// Runtime::record_footprints is set).  The alias soundness gate
  /// (`--alias-check`) validates these against the static write sets.
  std::vector<std::string> footprint;
};

/// One instrumented call of the Count-mode baseline.  The baseline table
/// holds one entry per call in call order; the campaign shares it read-only
/// with its injector runs for prefix checkpoint elision and derives the
/// static-pruning thresholds from it (DESIGN.md §7).
struct BaselineCall {
  static constexpr std::uint32_t kTopLevel = 0xffffffffu;
  const MethodInfo* method = nullptr;
  /// Injection-point counter when the call was entered, before its own
  /// points fire: the call fires points entry+1 .. entry+#specs.
  std::uint64_t entry = 0;
  /// Counter when the call returned or unwound: every point fired inside
  /// the call is <= exit.
  std::uint64_t exit = 0;
  /// Index of the enclosing call, kTopLevel for a top-level call.
  std::uint32_t parent = kTopLevel;
  /// An exception crossed the frame (std::uncaught_exceptions at exit
  /// exceeded its value at entry).
  bool threw = false;
};
using BaselineTable = std::vector<BaselineCall>;

struct RuntimeStats {
  std::uint64_t snapshots_taken = 0;
  std::uint64_t comparisons = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t wrapped_calls = 0;
  /// Atomicity-wrapper checkpoints served by a partial (field-granular)
  /// capture instead of a full deep copy.
  std::uint64_t partial_checkpoints = 0;
  /// Partial captures that bailed at walk time (runtime shape surprise) and
  /// fell back to the full deep copy.
  std::uint64_t partial_fallbacks = 0;
  /// Work metric: snapshot nodes built (full) or leaves recorded (partial),
  /// summed over all checkpoints — the quantity field-granular plans shrink.
  std::uint64_t checkpoint_units = 0;
  /// Completeness-validator divergences: partial restore left the receiver
  /// in a state differing from the shadow full checkpoint's restore, or an
  /// arena checkpoint disagreed with its graph-walk oracle on a capture or
  /// compare.  Any nonzero value indicates an unsound write set or an arena
  /// bug.
  std::uint64_t validator_divergences = 0;
  /// Full checkpoints served by the arena slab — all of snapshots_taken
  /// except in a campaign configured with the graph oracle.
  std::uint64_t arena_checkpoints = 0;
  /// Total arena slab bytes captured.
  std::uint64_t arena_bytes = 0;
  /// Arena comparisons decided by the memcmp fast path alone.
  std::uint64_t memcmp_compares = 0;
  /// Arena comparisons that fell back to decoding + structural compare
  /// (byte mismatch on equal-length slabs — possible for equal graphs whose
  /// record-type pointers differ).
  std::uint64_t compare_fallbacks = 0;
  /// Rollbacks that failed mid-replay (snapshot::RestoreError): the
  /// receiver may be partially restored.  Surfaced in campaign JSON so a
  /// corrupted rollback is never silent.
  std::uint64_t restore_errors = 0;
  /// Exception-propagation episodes observed by the injection wrappers: one
  /// per distinct throw that passed through at least one wrapper (injected
  /// or organic).  With provenance enabled this counts captured throws, so
  /// it equals the number of throw-site attributions made.
  std::uint64_t exceptions_thrown = 0;
  // --- recovery policy engine (DESIGN.md §14) -----------------------------
  /// Production-mode faults raised by the wrapper-level injector
  /// (Runtime::fault_period) — distinct from campaign injection points.
  std::uint64_t faults_injected = 0;
  /// Re-execution attempts made under a retry policy (one per attempt after
  /// the first failure).
  std::uint64_t retry_attempts = 0;
  /// Retried calls that ultimately completed — the calls the policy engine
  /// healed outright.
  std::uint64_t retry_successes = 0;
  /// Retry budgets exhausted; the call fell back to rollback + rethrow.
  std::uint64_t retry_exhaustions = 0;
  /// Exceptions swallowed by a degrade policy after the state compare
  /// confirmed the receiver was untouched.
  std::uint64_t degraded_calls = 0;
  /// Degrade decisions refused because the post-exception state differed
  /// from the entry checkpoint — a corrupted-state verdict is never masked.
  std::uint64_t degrade_refusals = 0;
  /// Exceptions converted to a neutral return by an early_return policy.
  std::uint64_t early_returns = 0;
  /// Exceptions transformed into recovery::ServiceError by rethrow_as.
  std::uint64_t transformed_rethrows = 0;
  /// Rollback-and-rethrow recoveries performed *by the policy engine* (the
  /// engine-off path counts its rollbacks in `rollbacks` alone).
  std::uint64_t policy_rollbacks = 0;
  // --- prefix checkpoint elision (DESIGN.md §7) ----------------------------
  /// Injection-wrapper entry captures skipped because the Count baseline
  /// shows the call returns before the run's threshold with no exception
  /// crossing it (an InjectMask campaign skips the nested atomicity
  /// wrapper's checkpoint for the same calls).
  std::uint64_t elided_captures = 0;
  /// Runs whose call sequence left the baseline table before the
  /// threshold: elision switched off for the rest of the run.
  std::uint64_t elision_fallbacks = 0;
  /// Exceptions that crossed an elided wrapper — a determinism violation:
  /// the wrapper had no entry capture to mark the method with.
  std::uint64_t elision_misses = 0;
};

/// One row per RuntimeStats counter: the single field list the stats
/// arithmetic below and the metrics registry ("stats.<name>") iterate.
struct StatField {
  const char* name;
  std::uint64_t RuntimeStats::*field;
};

#define FATOMIC_STAT(f) StatField{#f, &RuntimeStats::f}
inline constexpr StatField kStatFields[] = {
    FATOMIC_STAT(snapshots_taken),      FATOMIC_STAT(comparisons),
    FATOMIC_STAT(rollbacks),            FATOMIC_STAT(wrapped_calls),
    FATOMIC_STAT(partial_checkpoints),  FATOMIC_STAT(partial_fallbacks),
    FATOMIC_STAT(checkpoint_units),     FATOMIC_STAT(validator_divergences),
    FATOMIC_STAT(arena_checkpoints),    FATOMIC_STAT(arena_bytes),
    FATOMIC_STAT(memcmp_compares),      FATOMIC_STAT(compare_fallbacks),
    FATOMIC_STAT(restore_errors),       FATOMIC_STAT(exceptions_thrown),
    FATOMIC_STAT(faults_injected),      FATOMIC_STAT(retry_attempts),
    FATOMIC_STAT(retry_successes),      FATOMIC_STAT(retry_exhaustions),
    FATOMIC_STAT(degraded_calls),       FATOMIC_STAT(degrade_refusals),
    FATOMIC_STAT(early_returns),        FATOMIC_STAT(transformed_rethrows),
    FATOMIC_STAT(policy_rollbacks),     FATOMIC_STAT(elided_captures),
    FATOMIC_STAT(elision_fallbacks),    FATOMIC_STAT(elision_misses),
};
#undef FATOMIC_STAT
static_assert(sizeof(kStatFields) / sizeof(StatField) ==
                  sizeof(RuntimeStats) / sizeof(std::uint64_t),
              "every RuntimeStats counter needs a kStatFields row");

inline RuntimeStats& operator+=(RuntimeStats& a, const RuntimeStats& b) {
  for (const StatField& f : kStatFields) a.*f.field += b.*f.field;
  return a;
}

/// Counter deltas between two points of the same runtime's history
/// (`after` must be a later observation than `before`).
inline RuntimeStats operator-(RuntimeStats after, const RuntimeStats& before) {
  for (const StatField& f : kStatFields) after.*f.field -= before.*f.field;
  return after;
}

class Runtime {
 public:
  /// The calling thread's current runtime: the innermost ScopedRuntime, or
  /// the thread's own default instance.  Distinct threads never share a
  /// runtime unless one is installed on both — which campaign code never
  /// does — so wrappers running on worker threads observe fully isolated
  /// injection state.
  static Runtime& instance();

  Runtime();

  // A runtime is an identity (wrappers hold references to it across a run);
  // configuration moves between runtimes via adopt_config().
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // --- mode ---------------------------------------------------------------
  Mode mode() const { return mode_; }
  void set_mode(Mode m) { mode_ = m; }

  // --- injection state (Listing 1) ----------------------------------------
  std::uint64_t point = 0;            ///< global counter `Point`
  std::uint64_t injection_point = 0;  ///< run threshold `InjectionPoint`
  bool injected = false;              ///< did this run fire an injection?
  const MethodInfo* injected_method = nullptr;
  std::string injected_exception;
  int depth = 0;  ///< current injection-wrapper nesting depth
  /// Non-zero while the engine itself is executing subject code on its own
  /// behalf (rollback replay reconstructing instrumented objects): every
  /// wrapper entered from such code must pass straight through — an
  /// injection point or production fault firing inside a restore would turn
  /// the rollback it serves into a RestoreError.
  int engine_depth = 0;
  /// When set, non-atomic marks carry a one-line graph-diff explanation
  /// (costs one diff per intercepted exception; off by default).
  bool record_diffs = false;
  /// When set, non-atomic marks carry the full list of object-graph diff
  /// paths (Mark::footprint) for the alias soundness gate.  Costs one
  /// bounded diff per intercepted exception; off by default.
  bool record_footprints = false;
  /// When set, injection wrappers consult the unwind capture layer and
  /// attach interned throw-site stack ids to marks and throw-site trace
  /// events (unwind/provenance.hpp).  The campaign driver sets this for
  /// provenance campaigns; requires a live unwind::ScopedArm to observe
  /// anything.
  bool provenance = false;
  /// Serial of the last ThrowRecord this runtime attributed (per-thread
  /// throw ordinal).  One propagating exception passes through every nested
  /// wrapper on its way out; comparing serials lets the outer wrappers skip
  /// re-recording the throw-site event and the exceptions_thrown count the
  /// innermost wrapper already made.
  std::uint64_t last_throw_serial = 0;

  /// Generic runtime exceptions appended to every method's declared list
  /// (the paper's E_{k+1}..E_n).  Defaults to one InjectedRuntimeError.
  std::vector<ExceptionSpec>& runtime_exceptions() {
    return runtime_exceptions_;
  }

  /// Resets per-run state and arms the next injection threshold.
  void begin_run(std::uint64_t threshold);

  /// Copies the campaign configuration — mode, wrap predicate, generic
  /// runtime exception set, diff recording, prefix baseline — from `src`,
  /// leaving this runtime's per-run state untouched.  Used by campaign
  /// workers to mirror the driving thread's runtime before replaying
  /// injection runs.
  void adopt_config(const Runtime& src);

  // --- per-run observations -------------------------------------------------
  std::vector<Mark> marks;

  // --- call counting ---------------------------------------------------------
  std::unordered_map<const MethodInfo*, std::uint64_t> call_counts;
  /// Dynamic call-graph edges observed in Count mode: (caller, callee) with
  /// call counts; nullptr caller means "called from the program top level".
  std::map<std::pair<const MethodInfo*, const MethodInfo*>, std::uint64_t>
      call_edges;
  /// The Count baseline's call table, one entry per instrumented call in
  /// call order; `point` advances as the injector's counter would.
  BaselineTable call_log;
  /// call_log indices of the active instrumented calls (Count mode only).
  std::vector<std::uint32_t> call_stack;
  void reset_counts() {
    call_counts.clear();
    call_edges.clear();
    call_log.clear();
    call_stack.clear();
    point = 0;
  }

  // --- prefix checkpoint elision (DESIGN.md §7) -----------------------------
  /// Installs the baseline table the injection wrappers consult: call k of
  /// a run skips its entry capture when it matches entry k and the baseline
  /// shows it returning below the threshold with no exception crossing it.
  /// Null (the default) keeps Listing 1's capture on every call.
  void set_prefix_baseline(std::shared_ptr<const BaselineTable> table) {
    baseline_ = std::move(table);
  }
  const std::shared_ptr<const BaselineTable>& prefix_baseline() const {
    return baseline_;
  }
  /// Per-run elision cursor: the index of the next call in the baseline
  /// table, and whether the run still follows the table.
  std::size_t call_index = 0;
  bool elision_live = false;

  // --- masking -----------------------------------------------------------------
  /// Predicate selecting the methods whose calls are replaced by atomicity
  /// wrappers (Figure 1, step 5).  Null means "wrap nothing".
  using WrapPredicate = std::function<bool(const MethodInfo&)>;
  void set_wrap_predicate(WrapPredicate p) { wrap_ = std::move(p); }
  const WrapPredicate& wrap_predicate() const { return wrap_; }
  bool should_wrap(const MethodInfo& mi) const { return wrap_ && wrap_(mi); }

  // --- checkpoint plans (write-set analysis, DESIGN.md §8) ------------------
  /// Installs the per-method checkpoint plans the atomicity wrappers consult.
  /// Null (the default) means every checkpoint is a full deep copy.
  void set_checkpoint_plans(std::shared_ptr<const PlanMap> plans) {
    plans_ = std::move(plans);
    plan_memo_.clear();
  }
  const std::shared_ptr<const PlanMap>& checkpoint_plans() const {
    return plans_;
  }
  /// The plan for `mi`, or null when none is installed / the plan is full.
  /// Memoized per MethodInfo — wrappers call this on every protected call.
  const snapshot::CheckpointPlan* checkpoint_plan(const MethodInfo& mi);

  // --- recovery policies (DESIGN.md §14) ------------------------------------
  /// Installs the per-method recovery policy table the masking wrappers
  /// consult.  Null (the default) means the engine is off: every masked call
  /// takes the classic rollback-and-rethrow path unchanged.
  void set_recovery_policies(
      std::shared_ptr<const recovery::PolicyTable> policies) {
    policies_ = std::move(policies);
    policy_memo_.clear();
  }
  const std::shared_ptr<const recovery::PolicyTable>& recovery_policies()
      const {
    return policies_;
  }
  /// The policy for `mi`, or null when no table is installed or the table
  /// has no entry for the method.  Memoized per MethodInfo — wrappers call
  /// this on every protected call.
  const recovery::RecoveryPolicy* recovery_policy(const MethodInfo& mi);

  // --- production-mode fault injection (DESIGN.md §14) ----------------------
  /// When nonzero, masking wrappers raise an InjectedRuntimeError inside the
  /// protected region on every fault_period-th wrapped attempt — the live
  /// fault source the recovery bench drives.  0 (the default) disables the
  /// injector entirely; campaign semantics are bit-identical.
  std::uint64_t fault_period = 0;
  /// Attempts seen by the production-fault injector.  Advances per attempt
  /// (retries included), so a retried call faces a fresh fault decision.
  /// Deliberately NOT copied by adopt_config — each runtime counts its own.
  std::uint64_t fault_counter = 0;

  /// Debug completeness validator: when set, every partial checkpoint also
  /// takes a shadow full checkpoint, and a rollback re-checks the restored
  /// receiver against the shadow (stats.validator_divergences counts
  /// mismatches).  The shadow also checks the arena against its oracle:
  /// every arena capture is shadowed by a graph capture and every compare
  /// verdict must agree.  Costs a full capture per wrapped call — off by
  /// default.
  bool validate_checkpoints = false;

  // --- checkpoint engine (DESIGN.md §10) ------------------------------------
  /// Full-checkpoint representation: always the arena, except inside a
  /// campaign whose CampaignSettings::backend selects the graph oracle —
  /// the campaign mirrors its setting here for its own length.
  snapshot::BackendKind checkpoint_backend = snapshot::default_backend();
  /// Capture scratch for the arena — slabs, address vectors and the alias
  /// map are recycled across this runtime's captures.
  snapshot::ArenaPool arena_pool;

  RuntimeStats stats;

  /// Structured event sink for this runtime's wrappers (trace/trace.hpp).
  /// Disabled by default; the campaign driver enables it for traced
  /// campaigns and slices per-run events off it.  Runtimes are per-thread,
  /// so appends are unsynchronized; adopt_config copies the enabled state
  /// and epoch (worker ordinals are assigned by the campaign driver).
  trace::TraceBuffer trace;

 private:
  Mode mode_ = Mode::Direct;
  std::vector<ExceptionSpec> runtime_exceptions_;
  WrapPredicate wrap_;
  std::shared_ptr<const PlanMap> plans_;
  std::unordered_map<const MethodInfo*, const snapshot::CheckpointPlan*>
      plan_memo_;
  std::shared_ptr<const recovery::PolicyTable> policies_;
  std::unordered_map<const MethodInfo*, const recovery::RecoveryPolicy*>
      policy_memo_;
  std::shared_ptr<const BaselineTable> baseline_;
};

/// RAII: installs a runtime as the calling thread's current one — every
/// Runtime::instance() call on this thread resolves to it until the scope
/// ends.  Campaign worker threads use this to run the injector program
/// against an isolated runtime without touching any wrapper call site.
class ScopedRuntime {
 public:
  explicit ScopedRuntime(Runtime& rt);
  ~ScopedRuntime();
  ScopedRuntime(const ScopedRuntime&) = delete;
  ScopedRuntime& operator=(const ScopedRuntime&) = delete;

 private:
  Runtime* saved_;
};

/// RAII: saves a runtime's campaign-scoped settings — wrap predicate,
/// checkpoint plans, recovery policies, prefix baseline, validator flag,
/// diff / footprint / provenance flags and checkpoint backend — and puts
/// them back on exit.
/// Experiment::run and MaskedScope install their values inside one, so a
/// nested scope (a mask-verify campaign launched from inside a MaskedScope)
/// hands the outer settings back intact.
class ScopedSettings {
 public:
  explicit ScopedSettings(Runtime& rt);
  ~ScopedSettings();
  ScopedSettings(const ScopedSettings&) = delete;
  ScopedSettings& operator=(const ScopedSettings&) = delete;

 private:
  Runtime& rt_;
  Runtime::WrapPredicate wrap_;
  std::shared_ptr<const PlanMap> plans_;
  std::shared_ptr<const recovery::PolicyTable> policies_;
  std::shared_ptr<const BaselineTable> baseline_;
  bool validate_checkpoints_;
  bool record_diffs_;
  bool record_footprints_;
  bool provenance_;
  snapshot::BackendKind backend_;
};

/// RAII helper that saves and restores the runtime's mode — keeps
/// experiments from leaking mode changes into each other.
class ScopedMode {
 public:
  explicit ScopedMode(Mode m);
  ~ScopedMode();
  ScopedMode(const ScopedMode&) = delete;
  ScopedMode& operator=(const ScopedMode&) = delete;

 private:
  Mode saved_;
};

}  // namespace fatomic::weave
