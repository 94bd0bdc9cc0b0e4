// The wrapper engine: every instrumented subject method routes its body
// through invoke(), which applies the behaviour of the active Mode:
//
//   Inject      — the paper's injection wrapper (Listing 1): fire injection
//                 points, deep-copy the receiver, call, and on an exception
//                 compare object graphs, mark atomic/non-atomic, rethrow.
//                 Calls the baseline shows returning before the run's
//                 threshold skip the copy (prefix elision, DESIGN.md §7).
//   Mask        — the paper's atomicity wrapper (Listing 2): checkpoint,
//                 call, roll back and rethrow on exception (only for methods
//                 selected by the wrap predicate).
//   InjectMask  — injection wrapper around the atomicity wrapper, used to
//                 verify that the corrected program P_C is failure atomic.
//   Count       — call counting for the call-weighted figures.
//   Direct      — the original program P.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>

#include "fatomic/common/error.hpp"
#include "fatomic/recovery/policy.hpp"
#include "fatomic/snapshot/backend.hpp"
#include "fatomic/snapshot/diff.hpp"
#include "fatomic/snapshot/partial.hpp"
#include "fatomic/snapshot/restore.hpp"
#include "fatomic/unwind/provenance.hpp"
#include "fatomic/weave/exception_name.hpp"
#include "fatomic/weave/method_info.hpp"
#include "fatomic/weave/runtime.hpp"

namespace fatomic::weave {

namespace detail {

/// Listing 1, lines 2-5: one potential injection point per exception type
/// (declared first, then the generic runtime exceptions), gated by the
/// global counter against the run threshold.
inline void fire_injection_points(const MethodInfo& mi, Runtime& rt) {
  auto fire = [&](const ExceptionSpec& e) {
    if (++rt.point == rt.injection_point) {
      rt.injected = true;
      rt.injected_method = &mi;
      rt.injected_exception = e.type_name;
      if (rt.trace.enabled())
        rt.trace.instant(trace::EventKind::Injection, &mi, rt.point,
                         e.type_name);
      e.raise();
    }
  };
  for (const ExceptionSpec& e : mi.declared()) fire(e);
  for (const ExceptionSpec& e : rt.runtime_exceptions()) fire(e);
}

/// Takes one full checkpoint (an arena slab, or a graph capture in an
/// oracle campaign) and charges its counters/trace events.  Shared by the
/// atomicity wrapper's checkpoint and the injection wrapper's before
/// capture, so a campaign's full-checkpoint accounting is uniform.
template <class Root>
snapshot::Checkpoint take_full_checkpoint(const MethodInfo& mi,
                                          const Root& root, Runtime& rt) {
  const bool arena = rt.checkpoint_backend == snapshot::BackendKind::Arena;
  const std::uint64_t t0 = rt.trace.begin_span();
  snapshot::Checkpoint cp =
      snapshot::Checkpoint::take(root, rt.checkpoint_backend, &rt.arena_pool);
  ++rt.stats.snapshots_taken;
  if (arena) {
    ++rt.stats.arena_checkpoints;
    rt.stats.arena_bytes += cp.bytes();
  }
  rt.trace.span(
      arena ? trace::EventKind::ArenaCapture : trace::EventKind::Snapshot, t0,
      &mi, cp.units());
  return cp;
}

/// Oracle shadow: under validate_checkpoints an arena checkpoint is
/// cross-checked against a graph capture of the same live state — the
/// engine and its oracle must agree on what they recorded.  Returns that
/// capture (empty otherwise) for compare_with_entry's verdict check.
template <class Root>
snapshot::Snapshot oracle_shadow(const MethodInfo& mi, const Root& root,
                                 const snapshot::Checkpoint& cp, Runtime& rt) {
  snapshot::Snapshot shadow;
  if (!rt.validate_checkpoints ||
      cp.backend() != snapshot::BackendKind::Arena)
    return shadow;
  shadow = snapshot::capture(root);
  if (!shadow.equals(cp.graph())) {
    ++rt.stats.validator_divergences;
    rt.trace.instant(trace::EventKind::Validator, &mi, 0, "backend");
  }
  return shadow;
}

/// Does the live state of `root` still equal the full checkpoint `before`?
/// The injection wrapper's atomicity verdict (Listing 1, line 10) and the
/// degrade guard both ask through here.  Stores the post-state capture in
/// `after` (for diffs), counts the comparison and how the arena decided it,
/// and under validate_checkpoints checks the verdict against the graph
/// oracle's (`before_shadow` is oracle_shadow's capture of `before`).
template <class Root>
bool compare_with_entry(const MethodInfo& mi, const Root& root,
                        const snapshot::Checkpoint& before,
                        const snapshot::Snapshot& before_shadow, Runtime& rt,
                        snapshot::Checkpoint& after) {
  const std::uint64_t c0 = rt.trace.begin_span();
  after = snapshot::Checkpoint::take(root, before.backend(), &rt.arena_pool);
  ++rt.stats.comparisons;
  bool used_memcmp = false;
  const bool equal = before.equals(after, &used_memcmp);
  if (before.backend() != snapshot::BackendKind::Arena) {
    rt.trace.span(trace::EventKind::Compare, c0, &mi, equal ? 1 : 0);
    return equal;
  }
  ++(used_memcmp ? rt.stats.memcmp_compares : rt.stats.compare_fallbacks);
  rt.trace.span(trace::EventKind::ArenaCompare, c0, &mi, used_memcmp ? 1 : 0);
  if (rt.validate_checkpoints &&
      before_shadow.equals(snapshot::capture(root)) != equal) {
    ++rt.stats.validator_divergences;
    rt.trace.instant(trace::EventKind::Validator, &mi, 0, "backend");
  }
  return equal;
}

/// RAII marker: subject code reached through this scope was entered by the
/// engine itself (rollback replay), so dispatch() routes it straight to the
/// body — no injection points, faults, counting or nested wrapping.
struct EngineScope {
  Runtime& rt;
  explicit EngineScope(Runtime& r) : rt(r) { ++rt.engine_depth; }
  ~EngineScope() { --rt.engine_depth; }
  EngineScope(const EngineScope&) = delete;
  EngineScope& operator=(const EngineScope&) = delete;
};

/// The entry state a masking wrapper's attempt needs; each value subsumes
/// the ones before it.
enum class EntryNeed : std::uint8_t {
  None,     ///< retry without rollback: the atomicity proof is the checkpoint
  Planned,  ///< the method's partial plan when it has one, else a full copy
  Full,     ///< a whole-state checkpoint, the only kind degrade can compare
};

/// The atomicity wrapper's entry checkpoint (Listing 2, line 6) and all it
/// is used for: restore on exception, and the "is the state still equal to
/// entry?" question.  One guard per wrapped attempt, shared by masked_call
/// and recovered_call, so both checkpoint, validate and restore alike.
///
/// No reflection traits are queried in this class's declarations:
/// masked_call's deduced return type instantiates the class at the
/// FAT_INVOKE call site, which in subject layouts with trailing FAT_REFLECT
/// blocks precedes the Reflect specialization.  The member functions have
/// concrete return types, so their trait dispatch instantiates at the end
/// of the translation unit, after every FAT_REFLECT.
template <class Root>
class EntryGuard {
 public:
  EntryGuard(const MethodInfo& mi, Root& root, Runtime& rt, EntryNeed need)
      : mi_(mi), root_(root), rt_(rt) {
    if (need == EntryNeed::None) return;
    if (need == EntryNeed::Planned) {
      plan_ = rt.checkpoint_plan(mi);
      if (rt.trace.enabled())
        rt.trace.instant(trace::EventKind::PlanLookup, &mi, plan_ != nullptr);
    }
    // Field-granular fast path (DESIGN.md §8): capture only the planned
    // leaves.  The walker handles tuple roots from invoke_with too (partial
    // plans imply no parameter writes, so extra by-ref args only contribute
    // walk structure).  Any walk-time surprise falls back to the full deep
    // copy below.
    if (plan_ != nullptr) {
      const std::uint64_t t0 = rt.trace.begin_span();
      partial_ = snapshot::partial_capture(root, *plan_);
      if (partial_.ok) {
        ++rt.stats.partial_checkpoints;
        rt.stats.checkpoint_units += partial_.values.size();
        rt.trace.span(trace::EventKind::PartialCheckpoint, t0, &mi,
                      partial_.values.size());
        if (rt.validate_checkpoints) shadow_ = snapshot::capture(root);
        return;
      }
      plan_ = nullptr;
      ++rt.stats.partial_fallbacks;
      rt.trace.instant(trace::EventKind::PartialFallback, &mi);
    }
    full_ = take_full_checkpoint(mi, root, rt);
    rt.stats.checkpoint_units += full_.units();
    shadow_ = oracle_shadow(mi, root, full_, rt);
  }

  /// Rolls the root back to entry; a no-op when nothing was captured.  A
  /// restore that fails mid-replay counts a restore error and lets the
  /// RestoreError propagate (the root may be partially restored — masking
  /// anything at that point would hide corruption).  A partial restore is
  /// re-checked against the validator shadow.
  void restore() {
    const bool partial = plan_ != nullptr;
    if (!partial && !full_.valid()) return;
    try {
      // Restoring containers of instrumented objects re-runs their
      // constructors; those entries must not fire injection points of their
      // own (the engine would sabotage its own rollback).
      EngineScope engine(rt_);
      if (partial)
        snapshot::partial_restore(root_, partial_, *plan_);
      else
        full_.restore_to(root_);
    } catch (const RestoreError&) {
      ++rt_.stats.restore_errors;
      rt_.trace.instant(trace::EventKind::RestoreFailure, &mi_);
      throw;
    }
    ++rt_.stats.rollbacks;
    rt_.trace.instant(trace::EventKind::Rollback, &mi_, partial ? 1 : 0);
    if (partial && rt_.validate_checkpoints &&
        !shadow_.equals(snapshot::capture(root_))) {
      ++rt_.stats.validator_divergences;
      rt_.trace.instant(trace::EventKind::Validator, &mi_);
    }
  }

  /// Whether the live state still equals entry (the degrade guard).  Only a
  /// full checkpoint can answer; without one the state is never presumed
  /// intact.
  bool intact() {
    if (!full_.valid()) return false;
    snapshot::Checkpoint after;
    return compare_with_entry(mi_, root_, full_, shadow_, rt_, after);
  }

 private:
  const MethodInfo& mi_;
  Root& root_;
  Runtime& rt_;
  /// Non-null exactly while a partial capture is held.
  const snapshot::CheckpointPlan* plan_ = nullptr;
  snapshot::PartialSnapshot partial_;
  snapshot::Checkpoint full_;
  /// validate_checkpoints shadow: a partial checkpoint's full capture, or
  /// an arena checkpoint's graph-oracle capture.
  snapshot::Snapshot shadow_;
};

/// Production-mode fault source (DESIGN.md §14): raises an
/// InjectedRuntimeError inside the protected region on every
/// fault_period-th attempt.  Unlike campaign injection points (exact
/// counter equality, one firing per run) this is periodic and advances per
/// attempt, so a retried call faces a fresh — usually passing — fault
/// decision: the transient-fault model the retry policy is built for.
/// fault_period == 0 (the default) makes this a no-op.
inline void maybe_inject_fault(const MethodInfo& mi, Runtime& rt) {
  if (rt.fault_period == 0) return;
  if (++rt.fault_counter % rt.fault_period != 0) return;
  ++rt.stats.faults_injected;
  if (rt.trace.enabled())
    rt.trace.instant(trace::EventKind::Fault, &mi, rt.fault_counter);
  throw InjectedRuntimeError();
}

/// Policy-engine wrapper (DESIGN.md §14): generalizes the atomicity
/// wrapper's fixed rollback-and-rethrow into the action the installed
/// RecoveryPolicy selects for the observed exception type.  Reached only
/// when the runtime has a policy table with an entry for `mi`; with no
/// table the classic masked_call path below runs unchanged.
template <class Root, class Fn>
std::invoke_result_t<Fn&> recovered_call(const MethodInfo& mi, Root& root,
                                         Fn& body, Runtime& rt,
                                         const recovery::RecoveryPolicy& pol,
                                         bool elide) {
  using recovery::Action;
  using R = std::invoke_result_t<Fn&>;
  // early_return / degrade can only synthesize a neutral result for void or
  // value-initializable returns; anything else falls back to rollback.
  constexpr bool kNeutralReturn =
      std::is_void_v<R> ||
      (std::is_default_constructible_v<R> && !std::is_reference_v<R>);

  // Which recovery paths this policy can reach decides the entry state the
  // call takes.  Only retry-without-rollback (statically proven atomic
  // methods) runs checkpoint-free; degrade needs a *full* entry checkpoint
  // because its guard is a whole-state compare, which a partial
  // (plan-scoped) snapshot cannot answer.  An elided call never sees an
  // exception, so it takes none.
  auto need_for = [&](Action a) {
    if (a == Action::Degrade) return EntryNeed::Full;
    return a == Action::Retry && !pol.rollback_before_retry
               ? EntryNeed::None
               : EntryNeed::Planned;
  };
  EntryNeed need = EntryNeed::None;
  if (!elide) {
    need = need_for(pol.action);
    for (const auto& rule : pol.exception_overrides)
      need = std::max(need, need_for(rule.second));
  }

  // One checkpoint serves every attempt: a retry restores the receiver to
  // exactly the checkpointed state, so re-capturing it would copy the same
  // state again.
  EntryGuard<Root> entry(mi, root, rt, need);
  for (unsigned attempt = 0;; ++attempt) {
    try {
      maybe_inject_fault(mi, rt);
      if constexpr (std::is_void_v<R>) {
        body();
        if (attempt != 0) ++rt.stats.retry_successes;
        return;
      } else {
        R result = body();
        if (attempt != 0) ++rt.stats.retry_successes;
        return std::forward<R>(result);
      }
    } catch (...) {
      const std::uint64_t t0 = rt.trace.begin_span();
      const std::string ex_type = current_exception_type_name();
      switch (pol.action_for(ex_type)) {
        case Action::Retry:
          if (attempt < pol.retry_budget) {
            entry.restore();
            ++rt.stats.retry_attempts;
            rt.trace.span(trace::EventKind::Recovery, t0, &mi, attempt + 1,
                          "retry");
            if (pol.backoff_us != 0) {
              const unsigned shift = attempt < 10 ? attempt : 10;
              std::this_thread::sleep_for(std::chrono::microseconds(
                  static_cast<std::uint64_t>(pol.backoff_us) << shift));
            }
            break;  // next attempt
          }
          // Budget exhausted: the policy's fallback is the paper's strategy.
          entry.restore();
          ++rt.stats.retry_exhaustions;
          rt.trace.span(trace::EventKind::Recovery, t0, &mi, attempt,
                        "retry-exhausted");
          throw;
        case Action::Rollback:
          entry.restore();
          ++rt.stats.policy_rollbacks;
          rt.trace.span(trace::EventKind::Recovery, t0, &mi, 0, "rollback");
          throw;
        case Action::RethrowAs:
          entry.restore();
          ++rt.stats.transformed_rethrows;
          rt.trace.span(trace::EventKind::Recovery, t0, &mi, 0, "rethrow_as");
          throw recovery::ServiceError(ex_type, pol.rethrow_type);
        case Action::EarlyReturn:
          entry.restore();
          if constexpr (kNeutralReturn) {
            ++rt.stats.early_returns;
            rt.trace.span(trace::EventKind::Recovery, t0, &mi, 0,
                          "early_return");
            if constexpr (std::is_void_v<R>)
              return;
            else
              return R{};
          } else {
            ++rt.stats.policy_rollbacks;
            rt.trace.span(trace::EventKind::Recovery, t0, &mi, 0, "rollback");
            throw;
          }
        case Action::Degrade: {
          // Guarded failure-oblivious continuation: swallow ONLY when the
          // post-exception state equals the entry checkpoint — a
          // corrupted-state verdict is never masked.
          const bool intact = entry.intact();
          if constexpr (kNeutralReturn) {
            if (intact) {
              ++rt.stats.degraded_calls;
              rt.trace.span(trace::EventKind::Recovery, t0, &mi, 1, "degrade");
              if constexpr (std::is_void_v<R>)
                return;
              else
                return R{};
            }
          }
          if (!intact) {
            entry.restore();
            ++rt.stats.degrade_refusals;
            rt.trace.span(trace::EventKind::Recovery, t0, &mi, 0,
                          "degrade-refused");
          } else {
            // State intact but the return type admits no neutral value: the
            // checkpoint already matches, so plain rethrow is the rollback.
            ++rt.stats.policy_rollbacks;
            rt.trace.span(trace::EventKind::Recovery, t0, &mi, 0, "rollback");
          }
          throw;
        }
      }
    }
  }
}

/// Atomicity wrapper around `body` for checkpoint root `root` (the receiver,
/// or a tuple of receiver + by-reference arguments).  `elide` is set for a
/// call prefix elision proved exception-free: it keeps the wrapper but
/// takes no checkpoint.
template <class Root, class Fn>
decltype(auto) masked_call(const MethodInfo& mi, Root& root, Fn&& body,
                           Runtime& rt, bool elide = false) {
  if constexpr (std::is_const_v<Root>) {
    // A const receiver cannot be rolled back (and cannot be mutated through
    // this path); run the body unwrapped.
    (void)mi, (void)root, (void)rt, (void)elide;
    return body();
  } else {
    if (!rt.should_wrap(mi)) return body();
    ++rt.stats.wrapped_calls;
    // Recovery policy engine (DESIGN.md §14): a method with an installed
    // policy routes through the action the evidence selected; without a
    // table this path compiles to one memoized null check.
    if (const recovery::RecoveryPolicy* pol = rt.recovery_policy(mi))
      return recovered_call(mi, root, body, rt, *pol, elide);
    EntryGuard<Root> entry(mi, root, rt,
                           elide ? EntryNeed::None : EntryNeed::Planned);
    try {
      maybe_inject_fault(mi, rt);
      return body();
    } catch (...) {
      entry.restore();
      throw;
    }
  }
}

/// Prefix checkpoint elision (DESIGN.md §7): advances the run's cursor in
/// the baseline table and returns the baseline entry of this call when its
/// checkpoints can never be read — the call matches entry k, returns below
/// the threshold and no exception crossed it in the baseline.  Runs before
/// the call's injection points fire.  The first call that departs from the
/// table before the threshold counts a fallback and ends elision for the
/// run; at or past the threshold nothing more can be elided.
inline const BaselineCall* prefix_elision(const MethodInfo& mi, Runtime& rt) {
  if (!rt.elision_live) return nullptr;
  const BaselineTable& table = *rt.prefix_baseline();
  const std::size_t k = rt.call_index++;
  if (rt.point >= rt.injection_point) {
    rt.elision_live = false;
    return nullptr;
  }
  if (k >= table.size() || table[k].method != &mi ||
      table[k].entry != rt.point) {
    rt.elision_live = false;
    ++rt.stats.elision_fallbacks;
    return nullptr;
  }
  const BaselineCall& call = table[k];
  if (call.threw || call.exit >= rt.injection_point) return nullptr;
  return &call;
}

/// RAII over an elided call: an exception leaving it is a determinism
/// violation (the wrapper has no entry capture to mark with), and a return
/// at another counter value than the baseline's departs from the table.
/// Either ends elision for the run; neither is dropped silently.
struct ElidedFrame {
  Runtime& rt;
  const BaselineCall& call;
  const int uncaught = std::uncaught_exceptions();
  ElidedFrame(Runtime& r, const BaselineCall& c) : rt(r), call(c) {
    ++rt.stats.elided_captures;
  }
  ~ElidedFrame() {
    if (std::uncaught_exceptions() > uncaught) {
      ++rt.stats.elision_misses;
      rt.elision_live = false;
    } else if (rt.elision_live && rt.point != call.exit) {
      ++rt.stats.elision_fallbacks;
      rt.elision_live = false;
    }
  }
  ElidedFrame(const ElidedFrame&) = delete;
  ElidedFrame& operator=(const ElidedFrame&) = delete;
};

/// Injection wrapper (Listing 1).  With mask_inner, the atomicity wrapper
/// runs inside the injection wrapper, mirroring the paper's P_C-under-test.
template <class Root, class Fn>
decltype(auto) injected_call(const MethodInfo& mi, Root& root, Fn&& body,
                             Runtime& rt, bool mask_inner) {
  const BaselineCall* elided = prefix_elision(mi, rt);
  fire_injection_points(mi, rt);  // may throw into our caller's wrapper
  auto inner = [&]() -> decltype(auto) {
    if (mask_inner) return masked_call(mi, root, body, rt, elided != nullptr);
    return body();
  };
  struct DepthGuard {
    Runtime& rt;
    explicit DepthGuard(Runtime& r) : rt(r) { ++rt.depth; }
    ~DepthGuard() { --rt.depth; }
  } depth_guard(rt);
  if (elided != nullptr) {
    ElidedFrame frame(rt, *elided);
    return inner();
  }
  snapshot::Checkpoint before = take_full_checkpoint(mi, root, rt);
  const snapshot::Snapshot before_shadow = oracle_shadow(mi, root, before, rt);
  try {
    return inner();
  } catch (...) {
    snapshot::Checkpoint after;
    const bool atomic =
        compare_with_entry(mi, root, before, before_shadow, rt, after);
    std::string detail;
    if (!atomic && rt.record_diffs)
      detail = snapshot::first_difference(before.graph(), after.graph());
    // Episode accounting: marks are appended in propagation order and
    // within one episode depths strictly decrease, so this wrapper is the
    // first observer of a new exception exactly when the previous mark sits
    // at the same or a shallower depth (the classifier's episode rule).
    const bool new_episode =
        rt.marks.empty() || rt.marks.back().depth <= rt.depth;
    if (new_episode) ++rt.stats.exceptions_thrown;
    // Throw-site provenance: attach the pending capture's interned stack to
    // the mark, and record one throw-site event per captured throw — the
    // record serial dedupes the nested wrappers one propagating exception
    // passes through.
    std::uint64_t throw_stack = 0;
    if (rt.provenance) {
      std::uint64_t serial = 0;
      throw_stack = unwind::current_throw_stack(&serial);
      if (throw_stack != 0 && serial != rt.last_throw_serial) {
        rt.last_throw_serial = serial;
        if (rt.trace.enabled())
          rt.trace.instant(trace::EventKind::ThrowSite, &mi, throw_stack,
                           current_exception_type_name());
      }
    }
    Mark mark{&mi, atomic, rt.injection_point, rt.depth, std::move(detail),
              current_exception_type_name(), throw_stack, {}};
    if (!atomic && rt.record_footprints) {
      for (auto& d : snapshot::diff(before.graph(), after.graph(), 256))
        mark.footprint.push_back(std::move(d.path));
    }
    rt.marks.push_back(std::move(mark));
    throw;
  }
}

/// RAII frame on the Count-mode call stack; records the dynamic call-graph
/// edge from the current top of stack (nullptr = program top level) and the
/// call's baseline-table entry.  The point counter advances by the call's
/// spec count, exactly as fire_injection_points advances it in an injector
/// run, so entry and exit are the thresholds the injector will see.
struct CountFrame {
  Runtime& rt;
  const std::uint32_t index;
  const int uncaught = std::uncaught_exceptions();
  explicit CountFrame(Runtime& r, const MethodInfo& mi)
      : rt(r), index(static_cast<std::uint32_t>(r.call_log.size())) {
    ++rt.call_counts[&mi];
    const std::uint32_t parent =
        rt.call_stack.empty() ? BaselineCall::kTopLevel : rt.call_stack.back();
    const MethodInfo* caller = parent == BaselineCall::kTopLevel
                                   ? nullptr
                                   : rt.call_log[parent].method;
    ++rt.call_edges[{caller, &mi}];
    rt.call_log.push_back({&mi, rt.point, 0, parent, false});
    rt.point += mi.declared().size() + rt.runtime_exceptions().size();
    rt.call_stack.push_back(index);
  }
  ~CountFrame() {
    BaselineCall& call = rt.call_log[index];
    call.exit = rt.point;
    call.threw = std::uncaught_exceptions() > uncaught;
    rt.call_stack.pop_back();
  }
};

template <class Root, class Fn>
decltype(auto) dispatch(const MethodInfo& mi, Root& root, Fn&& body) {
  Runtime& rt = Runtime::instance();
  // Subject code reached from the engine's own replay (EngineScope) runs
  // as the original program: no injection, wrapping or counting.
  if (rt.engine_depth != 0) return body();
  switch (rt.mode()) {
    case Mode::Direct:
      return body();
    case Mode::Count: {
      CountFrame frame(rt, mi);
      return body();
    }
    case Mode::Inject:
      return injected_call(mi, root, body, rt, /*mask_inner=*/false);
    case Mode::Mask:
      return masked_call(mi, root, body, rt);
    case Mode::InjectMask:
      return injected_call(mi, root, body, rt, /*mask_inner=*/true);
  }
  return body();  // unreachable
}

}  // namespace detail

/// Instance-method entry point: checkpoint root is the receiver.
template <class Self, class Fn>
decltype(auto) invoke(const MethodInfo& mi, Self* self, Fn&& body) {
  return detail::dispatch(mi, *self, std::forward<Fn>(body));
}

/// Instance-method entry point with extra by-reference arguments included in
/// the checkpoint root (the paper checkpoints "all arguments that are passed
/// in as non-constant references", Section 4.1).  `extra` is a std::tie of
/// those arguments.
template <class Self, class... Refs, class Fn>
decltype(auto) invoke_with(const MethodInfo& mi, Self* self,
                           std::tuple<Refs...> extra, Fn&& body) {
  auto root = std::tuple_cat(std::tie(*self), extra);
  return detail::dispatch(mi, root, std::forward<Fn>(body));
}

/// Constructor / static entry point: no receiver, so only the injection
/// points run (an exception here tests the *callers*' atomicity).
template <class Fn>
decltype(auto) invoke_static(const MethodInfo& mi, Fn&& body) {
  Runtime& rt = Runtime::instance();
  if (rt.engine_depth != 0) return body();
  // A receiverless method selected by the wrap predicate still counts as a
  // wrapped call — its atomicity wrapper is degenerate (nothing to
  // checkpoint), but the stats must reflect every call the mask routed
  // through a wrapper or the per-campaign totals undercount.
  auto count_wrapped = [&] {
    if (rt.should_wrap(mi)) ++rt.stats.wrapped_calls;
  };
  switch (rt.mode()) {
    case Mode::Direct:
      return body();
    case Mode::Count: {
      detail::CountFrame frame(rt, mi);
      return body();
    }
    case Mode::Inject:
      detail::prefix_elision(mi, rt);  // keeps the table cursor in step
      detail::fire_injection_points(mi, rt);
      return body();
    case Mode::InjectMask:
      detail::prefix_elision(mi, rt);
      detail::fire_injection_points(mi, rt);
      count_wrapped();
      return body();
    case Mode::Mask:
      count_wrapped();
      return body();
  }
  return body();  // unreachable
}

}  // namespace fatomic::weave
