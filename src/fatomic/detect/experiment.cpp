#include "fatomic/detect/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fatomic/config.hpp"
#include "fatomic/unwind/provenance.hpp"

namespace fatomic::detect {

std::size_t Campaign::distinct_classes() const {
  std::set<std::string> classes;
  for (const auto& [mi, count] : call_counts) classes.insert(mi->class_name());
  return classes.size();
}

std::string first_run_mismatch(const Campaign& a, const Campaign& b) {
  auto name = [](const weave::MethodInfo* mi) {
    return mi != nullptr ? mi->qualified_name() : std::string("-");
  };
  if (a.runs.size() != b.runs.size())
    return std::to_string(a.runs.size()) + " vs " +
           std::to_string(b.runs.size()) + " runs";
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    const RunRecord& x = a.runs[i];
    const RunRecord& y = b.runs[i];
    const std::string where = "run " + std::to_string(x.injection_point);
    if (x.injection_point != y.injection_point || x.injected != y.injected ||
        x.injected_method != y.injected_method ||
        x.injected_exception != y.injected_exception ||
        x.escaped != y.escaped)
      return where + ": injection or escape differs";
    if (x.marks.size() != y.marks.size())
      return where + ": " + std::to_string(x.marks.size()) + " vs " +
             std::to_string(y.marks.size()) + " marks";
    for (std::size_t j = 0; j < x.marks.size(); ++j) {
      const weave::Mark& m = x.marks[j];
      const weave::Mark& n = y.marks[j];
      if (m.method != n.method || m.atomic != n.atomic ||
          m.depth != n.depth || m.exception_type != n.exception_type)
        return where + ", mark " + std::to_string(j) + ": " + name(m.method) +
               " vs " + name(n.method);
    }
  }
  return "";
}

Experiment::Experiment(std::function<void()> program, CampaignSettings opts)
    : program_(std::move(program)), opts_(std::move(opts)) {}

Experiment::Experiment(std::function<void()> program,
                       const fatomic::Config& config)
    : Experiment(std::move(program), config.campaign_settings()) {}

namespace {

/// RAII: puts the driving runtime's trace buffer into the state this
/// campaign wants — armed with a fresh epoch for traced campaigns, disabled
/// otherwise (so an untraced inner campaign stays invisible to an outer
/// traced one) — and restores the previous state after.
class ScopedTrace {
 public:
  ScopedTrace(weave::Runtime& rt, bool on)
      : rt_(rt),
        saved_enabled_(rt.trace.enabled()),
        saved_epoch_(rt.trace.epoch()),
        saved_worker_(rt.trace.worker()) {
    if (on) {
      const auto now = std::chrono::steady_clock::now().time_since_epoch();
      rt_.trace.enable(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(now).count()));
      rt_.trace.set_worker(0);
      rt_.trace.set_run(0);
      rt_.trace.take(0);  // drop leftovers from an interrupted campaign
    } else {
      rt_.trace.disable();
    }
  }
  ~ScopedTrace() {
    if (saved_enabled_)
      rt_.trace.enable(saved_epoch_);
    else
      rt_.trace.disable();
    rt_.trace.set_worker(saved_worker_);
    rt_.trace.set_run(0);
  }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  weave::Runtime& rt_;
  bool saved_enabled_;
  std::uint64_t saved_epoch_;
  std::uint16_t saved_worker_;
};

/// One injector run and everything the campaign needs from it.
struct RunOutcome {
  RunRecord rec;
  /// The run's counter never reached the threshold and nothing was injected
  /// — every injection point of the program has been visited.
  bool terminal = false;
  /// Stats delta attributable to this run alone.
  weave::RuntimeStats stats;
  /// Ordinal of the worker that executed the run (0 = driving thread).
  unsigned worker = 0;
  /// This run's slice of the executing runtime's event stream.
  std::vector<trace::Event> events;
};

/// Executes the injector program once at `threshold` against the calling
/// thread's current runtime `rt` and packages the observations.
RunOutcome run_once(const std::function<void()>& program, weave::Runtime& rt,
                    weave::Mode mode, std::uint64_t threshold) {
  weave::ScopedMode m(mode);
  // Throw-stack captures stop at this frame: everything outside run_once
  // (the sequential driver loop vs a worker's std::thread trampoline) is
  // scheduling context that would otherwise make equal throw stacks hash to
  // different ids across jobs values.
  char capture_floor = 0;
  unwind::ScopedCaptureFloor floor(&capture_floor);
  const weave::RuntimeStats before = rt.stats;
  const std::size_t trace_base = rt.trace.size();
  rt.begin_run(threshold);
  const std::uint64_t run_t0 = rt.trace.begin_span();

  RunOutcome out;
  out.rec.injection_point = threshold;
  try {
    program();
  } catch (const std::exception& e) {
    out.rec.escaped = true;
    out.rec.escape_what = e.what();
    if (rt.provenance) out.rec.escape_stack = unwind::current_throw_stack();
  } catch (...) {
    out.rec.escaped = true;
    out.rec.escape_what = "(non-standard exception)";
    if (rt.provenance) out.rec.escape_stack = unwind::current_throw_stack();
  }

  out.rec.injected = rt.injected;
  out.rec.injected_method = rt.injected_method;
  out.rec.injected_exception = rt.injected_exception;
  // The next begin_run clears marks anyway, so hand the vector over instead
  // of copying it (marks can carry per-injection diff strings).
  out.rec.marks = std::move(rt.marks);
  out.terminal = !out.rec.injected && rt.point < threshold;
  rt.trace.span(trace::EventKind::Run, run_t0, out.rec.injected_method,
                out.rec.marks.size());
  out.stats = rt.stats - before;
  out.worker = rt.trace.worker();
  out.events = rt.trace.take(trace_base);
  return out;
}

/// Appends a run's contribution to the campaign — merged stats, per-worker
/// attribution, trace slice — applying the terminal-run rule: an exhausted,
/// uninjected run ends the campaign, but its record is kept when the subject
/// program escaped an exception of its own — only the truly empty terminal
/// run is dropped.  Returns true when the campaign is over.
bool absorb(Campaign& campaign, std::map<unsigned, WorkerStats>& workers,
            RunOutcome&& out) {
  campaign.stats += out.stats;
  WorkerStats& w = workers[out.worker];
  w.worker = out.worker;
  ++w.runs;
  w.stats += out.stats;
  if (campaign.trace.enabled)
    campaign.trace.events.insert(campaign.trace.events.end(),
                                 std::make_move_iterator(out.events.begin()),
                                 std::make_move_iterator(out.events.end()));
  if (out.terminal) {
    if (out.rec.escaped) campaign.runs.push_back(std::move(out.rec));
    return true;
  }
  campaign.runs.push_back(std::move(out.rec));
  return false;
}

}  // namespace

Campaign Experiment::run() {
  auto& rt = weave::Runtime::instance();
  Campaign campaign;

  // The runtime mirrors this campaign's settings for the campaign's length
  // (workers copy them through adopt_config); the driving runtime's own
  // values come back after.
  weave::ScopedSettings settings(rt);
  ScopedTrace trace_scope(rt, opts_.trace);
  campaign.trace.enabled = rt.trace.enabled();
  const std::uint64_t campaign_t0 = rt.trace.begin_span();

  // Throw-site provenance: arm the __cxa_throw interposer for the whole
  // campaign (process-wide, so parallel workers are covered) and tell the
  // wrappers to attribute captures.  Degrades to off when the interposer is
  // compiled out (FATOMIC_PROVENANCE=OFF) or unavailable on this platform.
  const bool provenance = opts_.provenance && unwind::available();
  campaign.provenance = provenance;
  unwind::ScopedArm arm(provenance);
  rt.provenance = provenance;

  // Baseline: call counts of the original program (Figures 2b / 3b) and
  // its call table, one entry per instrumented call.  A program that
  // escapes an exception even uninjected still yields a baseline — the
  // counts observed up to the escape — and its terminal injector run
  // records the escape (see absorb()).
  std::shared_ptr<const weave::BaselineTable> baseline;
  {
    weave::ScopedMode mode(weave::Mode::Count);
    rt.reset_counts();
    const std::uint64_t baseline_t0 = rt.trace.begin_span();
    try {
      program_();
    } catch (...) {
    }
    campaign.call_counts = rt.call_counts;
    campaign.call_edges = rt.call_edges;
    baseline = std::make_shared<const weave::BaselineTable>(
        std::move(rt.call_log));
    rt.call_log.clear();
    rt.trace.span(trace::EventKind::Baseline, baseline_t0, nullptr,
                  campaign.total_calls());
  }

  // Map thresholds to statically skippable runs.  Baseline call k fires one
  // injection point per exception spec of its method (declared first, then
  // the runtime exceptions — fire_injection_points), thresholds entry+1 ..
  // entry+#specs.  A threshold is skippable when every frame with a receiver
  // on the stack at that call is statically proven atomic: the run could
  // only produce atomic marks for already-proven methods (frames without a
  // receiver never produce marks), leaving the classification sets
  // unchanged.  A call's parent precedes it in the table, so one pass in
  // call order settles every stack.  DESIGN.md §7.
  std::vector<bool> prunable;
  if (!opts_.prune_atomic.empty()) {
    prunable.assign(1, false);  // thresholds are 1-based
    const std::size_t runtime_specs = rt.runtime_exceptions().size();
    std::vector<bool> proven_stack(baseline->size());
    for (std::size_t k = 0; k < baseline->size(); ++k) {
      const weave::BaselineCall& call = (*baseline)[k];
      const bool proven =
          !call.method->has_receiver() ||
          opts_.prune_atomic.count(call.method->qualified_name()) != 0;
      proven_stack[k] =
          proven && (call.parent == weave::BaselineCall::kTopLevel ||
                     proven_stack[call.parent]);
      prunable.insert(prunable.end(),
                      call.method->declared().size() + runtime_specs,
                      proven_stack[k]);
    }
  }

  // Campaign-scope events recorded so far (the baseline span) open the
  // merged stream; every kept run's slice follows in threshold order, and
  // the closing campaign span lands last.
  if (campaign.trace.enabled) campaign.trace.events = rt.trace.take(0);

  // A null wrap predicate, plan map or policy table leaves what the runtime
  // holds — a mask-verify campaign launched from inside a MaskedScope keeps
  // the scope's settings — and so does an unset validator flag.
  if (opts_.masked) {
    if (opts_.wrap) rt.set_wrap_predicate(opts_.wrap);
    if (opts_.checkpoint_plans) rt.set_checkpoint_plans(opts_.checkpoint_plans);
    if (opts_.recovery_policies)
      rt.set_recovery_policies(opts_.recovery_policies);
  }
  if (opts_.validate_checkpoints) rt.validate_checkpoints = true;
  const weave::Mode mode =
      opts_.masked ? weave::Mode::InjectMask : weave::Mode::Inject;
  rt.record_diffs = opts_.record_diffs;
  rt.record_footprints = opts_.record_footprints;
  rt.checkpoint_backend = opts_.backend;
  // Prefix checkpoint elision (DESIGN.md §7) relies on every run following
  // the baseline up to its threshold.  The graph oracle keeps Listing 1's
  // capture on every call, so backend parity checks the elided engine
  // against the unelided wrapper; production faults break the determinism.
  rt.set_prefix_baseline(opts_.backend == snapshot::BackendKind::Arena &&
                                 rt.fault_period == 0
                             ? std::move(baseline)
                             : nullptr);

  unsigned jobs = opts_.jobs != 0 ? opts_.jobs
                                  : std::max(1u, std::thread::hardware_concurrency());
  if (static_cast<std::uint64_t>(jobs) > opts_.max_runs)
    jobs = static_cast<unsigned>(opts_.max_runs);

  if (jobs > 1)
    run_parallel(campaign, mode, jobs, prunable);
  else
    run_sequential(campaign, mode, prunable);

  if (campaign.trace.enabled) {
    rt.trace.set_run(0);
    rt.trace.span(trace::EventKind::Campaign, campaign_t0, nullptr,
                  campaign.runs.size());
    std::vector<trace::Event> tail = rt.trace.take(0);
    campaign.trace.events.insert(campaign.trace.events.end(),
                                 std::make_move_iterator(tail.begin()),
                                 std::make_move_iterator(tail.end()));
  }
  return campaign;
}

namespace {

bool is_prunable(const std::vector<bool>& prunable, std::uint64_t threshold) {
  return threshold < prunable.size() && prunable[threshold];
}

/// Skipped runs the sequential loop would have executed: every prunable
/// threshold strictly below the campaign's final cutoff.
std::uint64_t count_pruned(const std::vector<bool>& prunable,
                           std::uint64_t cutoff) {
  std::uint64_t n = 0;
  for (std::uint64_t t = 1; t < cutoff && t < prunable.size(); ++t)
    if (prunable[t]) ++n;
  return n;
}

std::vector<WorkerStats> sorted_workers(
    std::map<unsigned, WorkerStats>&& workers) {
  std::vector<WorkerStats> out;
  out.reserve(workers.size());
  for (auto& [ordinal, w] : workers) out.push_back(std::move(w));
  return out;
}

}  // namespace

void Experiment::run_sequential(Campaign& campaign, weave::Mode mode,
                                const std::vector<bool>& prunable) {
  auto& rt = weave::Runtime::instance();
  std::map<unsigned, WorkerStats> workers;
  std::uint64_t cutoff = opts_.max_runs + 1;
  for (std::uint64_t threshold = 1; threshold <= opts_.max_runs; ++threshold) {
    if (is_prunable(prunable, threshold)) continue;
    if (absorb(campaign, workers, run_once(program_, rt, mode, threshold))) {
      cutoff = threshold;
      break;
    }
  }
  campaign.pruned_runs = count_pruned(prunable, cutoff);
  campaign.worker_stats = sorted_workers(std::move(workers));
}

void Experiment::run_parallel(Campaign& campaign, weave::Mode mode,
                              unsigned jobs,
                              const std::vector<bool>& prunable) {
  auto& parent = weave::Runtime::instance();

  // Workers claim thresholds from a shared counter; `stop` carries the
  // lowest terminal threshold discovered so far, cancelling runs past it
  // (the sequential loop would never have executed them).
  std::atomic<std::uint64_t> next{1};
  std::atomic<std::uint64_t> stop{opts_.max_runs + 1};

  std::mutex mu;
  std::vector<std::pair<std::uint64_t, RunOutcome>> collected;
  std::exception_ptr failure;

  auto worker = [&](unsigned ordinal) {
    // An isolated runtime mirroring the driving thread's configuration;
    // installing it makes every Runtime::instance() hit on this thread —
    // i.e. every FAT_INVOKE wrapper of the subject program — see it.
    weave::Runtime rt;
    rt.adopt_config(parent);
    rt.trace.set_worker(static_cast<std::uint16_t>(ordinal));
    weave::ScopedRuntime install(rt);
    try {
      for (;;) {
        const std::uint64_t threshold = next.fetch_add(1);
        if (threshold > opts_.max_runs || threshold > stop.load()) break;
        if (is_prunable(prunable, threshold)) continue;
        RunOutcome out = run_once(program_, rt, mode, threshold);
        if (out.terminal) {
          std::uint64_t cur = stop.load();
          while (threshold < cur &&
                 !stop.compare_exchange_weak(cur, threshold)) {
          }
        }
        std::lock_guard<std::mutex> lock(mu);
        collected.emplace_back(threshold, std::move(out));
      }
    } catch (...) {
      // Propagate the first non-run failure (run_once absorbs subject
      // exceptions; this is e.g. bad_alloc) to the caller, as the
      // sequential loop would, and cancel the remaining workers.
      std::lock_guard<std::mutex> lock(mu);
      if (!failure) failure = std::current_exception();
      stop.store(0);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(jobs);
  for (unsigned i = 0; i < jobs; ++i) pool.emplace_back(worker, i + 1);
  for (std::thread& t : pool) t.join();
  if (failure) std::rethrow_exception(failure);

  // Merge in threshold order.  Thresholds are handed out contiguously, so
  // every run below the final cutoff exists exactly once; speculative runs
  // past it are discarded, reproducing the sequential loop bit for bit.
  const std::uint64_t cutoff = stop.load();
  std::sort(collected.begin(), collected.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::map<unsigned, WorkerStats> workers;
  for (auto& [threshold, out] : collected) {
    if (threshold > cutoff) continue;
    absorb(campaign, workers, std::move(out));
  }
  campaign.pruned_runs = count_pruned(prunable, cutoff);
  campaign.worker_stats = sorted_workers(std::move(workers));
}

}  // namespace fatomic::detect
