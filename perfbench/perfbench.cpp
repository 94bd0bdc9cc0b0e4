// Benchmark program: runs one workload of the repository benchmark through the
// library's public entry points, checks every output against a reference,
// and prints the workload's metrics.  run.py builds and invokes it; README.md
// describes the workloads, the metrics and the layer attribution.
//
//   perfbench --workload detect_selfstar|verify_collections|
//                        serve_recovery
//             --seed N --seconds S --trace 0|1
//             --source-root <repo>/src/subjects
//             --reference perfbench/reference.json
//             [--git-describe TEXT]
//   perfbench --write-reference FILE     (regenerates the reference)
//
// --trace 0 measures the end-to-end metrics with the library's tracing off,
// and scales its timings by a host speed probe (see HostProbe).  --trace 1
// alternates untraced and traced passes, and attributes the traced passes'
// wall time to layers by span self time.  The last line of stdout is always
// one JSON object: correct / attempted / failed / metrics.

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <memory_resource>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "fatomic/analyze/static_report.hpp"
#include "fatomic/config.hpp"
#include "fatomic/detect/classify.hpp"
#include "fatomic/detect/experiment.hpp"
#include "fatomic/mask/masker.hpp"
#include "fatomic/recovery/derive.hpp"
#include "fatomic/report/json_parse.hpp"
#include "fatomic/snapshot/backend.hpp"
#include "fatomic/trace/trace.hpp"
#include "fatomic/weave/runtime.hpp"
#include "subjects/apps/apps.hpp"
#include "subjects/net/server.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

namespace analyze = fatomic::analyze;
namespace detect = fatomic::detect;
namespace mask = fatomic::mask;
namespace recovery = fatomic::recovery;
namespace report = fatomic::report;
namespace snapshot = fatomic::snapshot;
namespace trace = fatomic::trace;
namespace weave = fatomic::weave;

using Clock = std::chrono::steady_clock;

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

std::uint64_t nanos(Clock::duration d) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

// setup_s is the median of set-up runs taken in rounds spread over the run
// (one before the first pass, then one every kSetupRoundEvery seconds), so no
// single quiet or busy moment of the machine decides it.  A round repeats the
// set-up for kSetupRoundSeconds, at least once.
constexpr double kSetupRoundSeconds = 0.1;
constexpr double kSetupRoundEvery = 3.0;

// serve_recovery shape, taken from bench/bench_recovery: its 3000 requests
// per thread (so a session ends with the journal one of its threads ends
// with), its "req-<thread>-<index>" requests of 7-10 characters from 4
// threads, one invalid (empty) request in 50, 3 endpoints, fault period 7 and
// retry budget 3.  A fresh Server every session keeps the journal (and so the
// checkpoint size) bounded; bench_recovery never resets it, so its latency
// grows with run length.
constexpr int kSessionRequests = 3000;
constexpr int kRequestThreads = 4;
constexpr int kEndpoints = 3;
constexpr std::uint64_t kFaultPeriod = 7;
constexpr unsigned kRetryBudget = 3;
constexpr int kInvalidOneIn = 50;

// Host probe (see HostProbe): kProbeReps timed repetitions over
// kProbeEntries strings, from a private buffer of kProbeBytes, sampled every
// kProbeEverySeconds all through an untraced run.  A time is scaled by the
// probe samples from kProbeMarginS before it began to kProbeMarginS after it
// ended, to a host on which one sample takes kProbeReferenceS.
constexpr std::uint32_t kProbeEntries = 2000;
constexpr int kProbeReps = 20;
constexpr std::size_t kProbeBytes = 2u << 20;
constexpr double kProbeEverySeconds = 0.25;
constexpr double kProbeMarginS = 0.5;
constexpr double kProbeReferenceS = 0.008;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;
  bool trace = false;
  std::string source_root;
  std::string reference;
  std::string git_describe = "unknown";
  std::string write_reference;
};

// ---- measurement helpers ---------------------------------------------------

/// A duration measured from `begin` to `end`; `s` (seconds) leaves out what
/// was not the workload's (host probe samples, span attribution).
struct Timing {
  Clock::time_point begin;
  Clock::time_point end;
  double s = 0;
};

/// Uniform fixed-size sample of a latency stream (Algorithm R).  The buffer
/// is touched in full up front, so memory — and peak RSS — does not depend
/// on how many operations a run fits into its time.
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed)
      : samples_(capacity), rng_(seed) {}

  /// An operation that took `d` and ended at `end`.
  void add(Clock::duration d, Clock::time_point end) {
    const Timing t{end - d, end, seconds(d)};
    if (seen_ < samples_.size()) {
      samples_[seen_++] = t;
      return;
    }
    ++seen_;
    std::uniform_int_distribution<std::uint64_t> pick(0, seen_ - 1);
    const std::uint64_t j = pick(rng_);
    if (j < samples_.size()) samples_[j] = t;
  }

  std::uint64_t seen() const { return seen_; }
  std::uint64_t kept() const {
    return std::min<std::uint64_t>(seen_, samples_.size());
  }
  std::uint64_t capacity() const { return samples_.size(); }

  /// Nearest-rank percentile in microseconds of the samples, each in
  /// seconds as `value(timing)` gives it.
  template <class Value>
  double percentile_us(double p, Value&& value) const {
    const std::size_t n = kept();
    if (n == 0) return 0.0;
    std::vector<double> sorted;
    for (std::size_t i = 0; i < n; ++i) sorted.push_back(value(samples_[i]));
    std::sort(sorted.begin(), sorted.end());
    std::size_t rank = static_cast<std::size_t>(p * static_cast<double>(n));
    if (static_cast<double>(rank) < p * static_cast<double>(n)) ++rank;
    rank = std::clamp<std::size_t>(rank, 1, n);
    return sorted[rank - 1] * 1e6;
  }

 private:
  std::vector<Timing> samples_;
  std::uint64_t seen_ = 0;
  std::mt19937_64 rng_;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// The process's peak resident set (VmHWM).  getrusage's ru_maxrss is not
/// used: Linux carries it over exec from the parent, so it would report the
/// launcher's footprint when that is larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Counts checked outputs; a mismatch is a failed operation, never dropped.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// `what` is called only on a mismatch, to describe it.
  template <class Describe>
  void expect(bool ok, Describe&& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failed <= 10)
      std::fprintf(stderr, "check failed: %s\n", std::string(what()).c_str());
  }
};

/// Samples the host's current speed for code like the library's: the time
/// to build, copy and destroy a std::unordered_map of short strings.  It
/// runs no library code and allocates from a private buffer that an untimed
/// first repetition brings into the cache, so neither a library change nor
/// the heap or cache state the workload leaves behind moves it.  On a
/// shared host the speed of such code moves with co-tenant load by 30-40%,
/// in phases of seconds to minutes.  The probe, sampled evenly in time
/// between the workload's operations, moves with it, and scaling each timing
/// by kProbeReferenceS over the mean of the probe samples around it cancels
/// the phase.
class HostProbe {
 public:
  HostProbe() : buffer_(kProbeBytes) {}  // zeroed: pages touched

  /// Takes a sample when kProbeEverySeconds have passed since the last one
  /// (always the first time).
  void sample_if_due() {
    if (samples_.empty() || seconds(Clock::now() - last_) >= kProbeEverySeconds)
      sample();
  }

  void sample() {
    const Clock::time_point t0 = Clock::now();
    samples_.emplace_back(t0, measure());
    last_ = Clock::now();
    spent_s_ += seconds(last_ - t0);
  }

  /// Time spent sampling.  A timed interval that contained samples
  /// subtracts it.
  double spent_s() const { return spent_s_; }

  /// `t` in seconds, scaled to the reference host speed: multiplied by
  /// kProbeReferenceS over the mean of the samples taken from kProbeMarginS
  /// before it began to kProbeMarginS after it ended, or over the nearest
  /// sample when there is none.
  double scaled(const Timing& t) const {
    if (samples_.empty()) return t.s;
    const Clock::duration margin =
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(kProbeMarginS));
    auto by_time = [](const auto& sample, Clock::time_point when) {
      return sample.first < when;
    };
    auto lo = std::lower_bound(samples_.begin(), samples_.end(),
                               t.begin - margin, by_time);
    auto hi = std::lower_bound(lo, samples_.end(), t.end + margin, by_time);
    if (lo == hi) {  // none in the window: the nearest one
      if (lo == samples_.end() ||
          (lo != samples_.begin() &&
           t.begin - std::prev(lo)->first < lo->first - t.end))
        --lo;
      hi = std::next(lo);
    }
    double sum = 0;
    for (auto it = lo; it != hi; ++it) sum += it->second;
    return t.s * kProbeReferenceS * static_cast<double>(hi - lo) / sum;
  }

  std::size_t count() const { return samples_.size(); }

  double median_s() const {
    std::vector<double> v;
    for (const auto& s : samples_) v.push_back(s.second);
    return median(v);
  }

  /// Second-half median over first-half median, minus 1 (halves by time).
  double drift() const {
    if (samples_.size() < 2) return 0.0;
    const Clock::time_point mid =
        samples_.front().first +
        (samples_.back().first - samples_.front().first) / 2;
    std::vector<double> first, second;
    for (const auto& [t, v] : samples_)
      (t <= mid ? first : second).push_back(v);
    return median(second) / median(first) - 1.0;
  }

 private:
  double measure() {
    repetition();  // warm-up
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kProbeReps; ++i) repetition();
    return seconds(Clock::now() - t0);
  }

  void repetition() {
    using Map = std::pmr::unordered_map<std::uint32_t, std::pmr::string>;
    std::pmr::monotonic_buffer_resource buffer(
        buffer_.data(), buffer_.size(), std::pmr::null_memory_resource());
    std::pmr::unsynchronized_pool_resource pool(&buffer);
    Map m(&pool);
    for (std::uint32_t i = 0; i < kProbeEntries; ++i)
      m.emplace(i * 7919u, std::pmr::string(16 + i % 40, 'p', &pool));
    const Map copy(m, &pool);
    if (copy.size() != kProbeEntries) throw std::logic_error("host probe copy");
  }

  std::vector<std::byte> buffer_;
  std::vector<std::pair<Clock::time_point, double>> samples_;
  Clock::time_point last_;
  double spent_s_ = 0;
};

// ---- layer attribution -----------------------------------------------------

/// Self time per layer row (seconds) plus per-layer counters, accumulated
/// over the traced part of a run.
struct Layers {
  std::map<std::string, double> rows;
  weave::RuntimeStats stats;
  std::uint64_t injector_runs = 0;
  std::uint64_t plan_lookups = 0;
  std::uint64_t plan_hits = 0;
  std::uint64_t nonatomic_remaining = 0;
  std::uint64_t events = 0;
  /// Time spent attributing spans; excluded from the traced wall time,
  /// since it is the benchmark's work, not the library's.
  double harness_s = 0;

  void add(const std::string& row, double s) { rows[row] += s; }
};

/// Runs `f` and, when traced, adds its wall time to `row`.
template <class F>
auto timed(Layers* layers, const char* row, F&& f) {
  const Clock::time_point t0 = Clock::now();
  auto result = f();
  if (layers != nullptr) layers->add(row, seconds(Clock::now() - t0));
  return result;
}

/// One closed interval on a single thread's timeline.
struct Span {
  std::uint64_t ts = 0;
  std::uint64_t dur = 0;
  const char* row = nullptr;
};

/// The layer row a traced library span belongs to; null for instants.
const char* row_of(const trace::Event& e) {
  switch (e.kind) {
    case trace::EventKind::Campaign:
      return "detect.campaign_s";
    case trace::EventKind::Baseline:
      return "detect.baseline_s";
    case trace::EventKind::Run:
      return "detect.run_self_s";
    case trace::EventKind::Snapshot:
    case trace::EventKind::ArenaCapture:
      return "snapshot.capture_s";
    case trace::EventKind::Compare:
    case trace::EventKind::ArenaCompare:
      return "snapshot.compare_s";
    case trace::EventKind::PartialCheckpoint:
      return "snapshot.partial_s";
    case trace::EventKind::Recovery:
      if (e.detail == "retry" || e.detail == "retry-exhausted")
        return "recovery.retry_s";
      if (e.detail == "early_return") return "recovery.early_return_s";
      return "recovery.other_s";
    default:
      return nullptr;
  }
}

/// Adds each span's self time (its duration minus the parts its direct
/// children cover) to its row.  Spans come from one thread, so they nest.
void add_self_times(std::vector<Span> spans, Layers& layers) {
  std::stable_sort(spans.begin(), spans.end(),
                   [](const Span& a, const Span& b) {
                     if (a.ts != b.ts) return a.ts < b.ts;
                     return a.dur > b.dur;  // parent before child
                   });
  std::vector<std::pair<const Span*, std::uint64_t>> open;  // span, child ns
  auto close = [&] {
    const auto [s, child] = open.back();
    open.pop_back();
    layers.add(s->row, static_cast<double>(s->dur - std::min(child, s->dur)) /
                           1e9);
  };
  for (const Span& s : spans) {
    while (!open.empty() &&
           open.back().first->ts + open.back().first->dur <= s.ts)
      close();
    if (!open.empty()) open.back().second += s.dur;
    open.emplace_back(&s, 0);
  }
  while (!open.empty()) close();
}

/// Converts library trace events to spans and tallies their counters;
/// returns the Campaign span's duration (0 when absent).
std::uint64_t collect(const std::vector<trace::Event>& events,
                      std::vector<Span>& spans, Layers& layers) {
  std::uint64_t campaign_ns = 0;
  layers.events += events.size();
  for (const trace::Event& e : events) {
    if (e.kind == trace::EventKind::Run) ++layers.injector_runs;
    if (e.kind == trace::EventKind::PlanLookup) {
      ++layers.plan_lookups;
      layers.plan_hits += e.value != 0 ? 1 : 0;
    }
    if (e.kind == trace::EventKind::Campaign) campaign_ns += e.dur_ns;
    if (const char* row = row_of(e); row != nullptr && e.dur_ns > 0)
      spans.push_back(Span{e.ts_ns, e.dur_ns, row});
  }
  return campaign_ns;
}

/// Attributes one traced campaign: its spans by self time, and the outer
/// call's time outside the Campaign span to `outer_row`.
void attribute_campaign(const detect::Campaign& c, double outer_s,
                        const char* outer_row, Layers& layers) {
  const Clock::time_point t0 = Clock::now();
  std::vector<Span> spans;
  const std::uint64_t campaign_ns = collect(c.trace.events, spans, layers);
  add_self_times(std::move(spans), layers);
  layers.add(outer_row, std::max(0.0, outer_s - campaign_ns / 1e9));
  layers.stats += c.stats;
  layers.harness_s += seconds(Clock::now() - t0);
}

// ---- reference verdicts ----------------------------------------------------

struct AppReference {
  std::uint64_t injections = 0;
  std::map<std::string, std::string> methods;  ///< qualified name -> class
};

std::map<std::string, std::string> verdicts(const detect::Classification& c) {
  std::map<std::string, std::string> out;
  for (const auto& m : c.methods)
    out[m.method->qualified_name()] = detect::to_string(m.cls);
  return out;
}

std::map<std::string, AppReference> load_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference " + path);
  std::stringstream text;
  text << in.rdbuf();
  const report::JsonValue doc = report::json_parse(text.str());
  std::map<std::string, AppReference> out;
  for (const auto& [name, app] : doc.at("apps").object) {
    AppReference& ref = out[name];
    ref.injections = static_cast<std::uint64_t>(app.at("injections").as_int());
    for (const auto& [method, cls] : app.at("methods").object)
      ref.methods[method] = cls.string;
  }
  return out;
}

void check_verdicts(Checks& checks, const std::string& app,
                    const detect::Campaign& c,
                    const detect::Classification& cls,
                    const std::map<std::string, AppReference>& refs) {
  const auto it = refs.find(app);
  checks.expect(it != refs.end() && it->second.injections == c.injections() &&
                    it->second.methods == verdicts(cls),
                [&] {
                  return app +
                         ": injections or method verdicts differ from the "
                         "reference";
                });
}

/// --write-reference: every Table 1 app under both checkpoint backends; the
/// file is written only when the backends agree on every verdict.
int write_reference(const std::string& path) {
  std::ostringstream os;
  os << "{\n  \"note\": \"Expected detection verdicts per app (jobs=1). "
        "Written by perfbench --write-reference, which requires the "
        "graph and arena checkpoint backends to agree on every verdict.\",\n"
        "  \"apps\": {";
  bool first_app = true;
  for (const auto& app : subjects::apps::all_apps()) {
    std::map<std::string, std::string> seen[2];
    std::uint64_t injections[2] = {0, 0};
    const snapshot::BackendKind kinds[2] = {snapshot::BackendKind::Graph,
                                            snapshot::BackendKind::Arena};
    for (int k = 0; k < 2; ++k) {
      fatomic::Config cfg;
      cfg.jobs(1).checkpoint_backend(kinds[k]);
      const detect::Campaign c = detect::Experiment(app.program, cfg).run();
      seen[k] = verdicts(detect::classify(c, cfg.policy()));
      injections[k] = c.injections();
    }
    if (seen[0] != seen[1] || injections[0] != injections[1]) {
      std::fprintf(stderr, "%s: graph and arena backends disagree\n",
                   app.name.c_str());
      return 2;
    }
    os << (first_app ? "\n" : ",\n") << "    \"" << app.name
       << "\": {\"injections\": " << injections[0] << ", \"methods\": {";
    first_app = false;
    bool first = true;
    for (const auto& [method, cls] : seen[0]) {
      os << (first ? "\n" : ",\n") << "      \"" << method << "\": \"" << cls
         << "\"";
      first = false;
    }
    os << "\n    }}";
    std::printf("%s: %llu injections, %zu methods, backends agree\n",
                app.name.c_str(),
                static_cast<unsigned long long>(injections[0]),
                seen[0].size());
  }
  os << "\n  }\n}\n";
  std::ofstream out(path);
  out << os.str();
  return out ? 0 : 1;
}

// ---- workloads ---------------------------------------------------------------

/// What one workload contributes to the shared measurement loop.
class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Prepares analysis products and returns the set-up time in seconds;
  /// `layers` is non-null when traced.
  virtual double setup(Layers* layers) = 0;
  /// Generates the next pass's inputs from the seed (not timed).
  virtual void prepare() = 0;
  /// One pass over the workload's unit of work; `layers` non-null = traced.
  virtual void pass(Layers* layers) = 0;
  /// Untimed checks after the measured window (e.g. the shadow validator).
  virtual void finish() {}
  /// Operation latencies (one injector run, or one request).
  Reservoir& latency() { return latency_; }
  std::uint64_t ops() const { return latency_.seen(); }
  virtual const char* op_name() const = 0;
  virtual std::string describe() const = 0;

  Checks checks;
  /// Set in untraced runs: sampled between operations, never inside one.
  HostProbe* probe = nullptr;

 protected:
  Reservoir latency_{1u << 16, 0x5eed};
};

/// Wraps a subject program so each execution inside a campaign (baseline
/// and every injector run) lands in the latency reservoir; the host probe,
/// when set, samples before the execution starts.
std::function<void()> timed_program(const std::function<void()>& program,
                                    Reservoir& latency, HostProbe* probe) {
  return [&program, &latency, probe] {
    if (probe != nullptr) probe->sample_if_due();
    struct Stop {
      Reservoir& r;
      Clock::time_point t0 = Clock::now();
      ~Stop() {
        const Clock::time_point t1 = Clock::now();
        r.add(t1 - t0, t1);
      }
    } stop{latency};
    program();
  };
}

/// detect_selfstar's set-up: the first, uninstrumented execution of every
/// app, which performs the library's lazy method registration.  That happens
/// once per process, so a helper process, forked before anything has
/// registered, forks one child per sample; the child runs the apps and
/// reports its time.  Samples can so be taken all through the run.  The
/// destructor ends the helper and waits for it.
class FirstExecutions {
 public:
  explicit FirstExecutions(const std::vector<subjects::apps::App>& apps) {
    int request[2], reply[2];
    if (pipe(request) != 0) throw std::runtime_error("set-up pipe failed");
    if (pipe(reply) != 0) {
      close(request[0]);
      close(request[1]);
      throw std::runtime_error("set-up pipe failed");
    }
    std::fflush(nullptr);
    helper_ = fork();
    if (helper_ == 0) {
      close(request[1]);
      close(reply[0]);
      char c = 0;
      while (read(request[0], &c, 1) == 1) {
        const double s = child_sample(apps);
        if (write(reply[1], &s, sizeof s) != static_cast<ssize_t>(sizeof s))
          break;
      }
      _exit(0);  // the request pipe closed: the benchmark is done
    }
    close(request[0]);
    close(reply[1]);
    request_ = request[1];
    reply_ = reply[0];
    if (helper_ < 0) {
      close(request_);
      close(reply_);
      throw std::runtime_error("set-up fork failed");
    }
  }

  ~FirstExecutions() {
    close(request_);
    close(reply_);
    int status = 0;
    waitpid(helper_, &status, 0);
  }

  FirstExecutions(const FirstExecutions&) = delete;
  FirstExecutions& operator=(const FirstExecutions&) = delete;

  /// One sample, in seconds.
  double sample() {
    const char c = 1;
    double s = -1;
    if (write(request_, &c, 1) != 1 ||
        read(reply_, &s, sizeof s) != static_cast<ssize_t>(sizeof s) || s < 0)
      throw std::runtime_error("set-up child failed");
    return s;
  }

 private:
  /// In the helper: runs the apps in a fresh child; -1 on failure.
  static double child_sample(const std::vector<subjects::apps::App>& apps) {
    int fds[2];
    if (pipe(fds) != 0) return -1;
    const pid_t pid = fork();
    if (pid == 0) {
      close(fds[0]);
      bool ok = false;
      try {
        const Clock::time_point t0 = Clock::now();
        for (const auto& app : apps) app.program();
        const double s = seconds(Clock::now() - t0);
        ok = write(fds[1], &s, sizeof s) == static_cast<ssize_t>(sizeof s);
      } catch (...) {
      }
      _exit(ok ? 0 : 1);
    }
    close(fds[1]);
    double s = -1;
    const ssize_t got = pid < 0 ? 0 : read(fds[0], &s, sizeof s);
    close(fds[0]);
    int status = 0;
    const bool ok = pid > 0 && waitpid(pid, &status, 0) == pid &&
                    got == static_cast<ssize_t>(sizeof s) &&
                    WIFEXITED(status) && WEXITSTATUS(status) == 0;
    return ok ? s : -1;
  }

  pid_t helper_ = -1;
  int request_ = -1;
  int reply_ = -1;
};

/// detect_selfstar and verify_collections: one pass runs every app of the
/// suite in a seed-shuffled order.
class CampaignWorkload : public Workload {
 public:
  CampaignWorkload(std::string language, bool verify, std::uint64_t seed,
                   std::string source_root,
                   std::map<std::string, AppReference> refs)
      : apps_(subjects::apps::apps_of(language)),
        verify_(verify),
        rng_(seed),
        source_root_(std::move(source_root)),
        refs_(std::move(refs)) {
    if (!verify_) first_executions_ = std::make_unique<FirstExecutions>(apps_);
  }

  /// verify_collections: static analysis and plans.  detect_selfstar runs
  /// no analysis; its set-up is the first execution of its apps.
  double setup(Layers* layers) override {
    if (!verify_) return first_executions_->sample();
    const Clock::time_point t0 = Clock::now();
    const analyze::StaticReport report = timed(layers, "analyze.sources_s", [&] {
      return analyze::analyze_sources(source_root_);
    });
    plans_ = timed(layers, "mask.make_plans_s",
                   [&] { return mask::make_plans(report); });
    return seconds(Clock::now() - t0);
  }

  void prepare() override { std::shuffle(apps_.begin(), apps_.end(), rng_); }

  void pass(Layers* layers) override {
    for (const auto& app : apps_) run_app(app, layers);
  }

  const char* op_name() const override { return "injector runs"; }
  std::string describe() const override {
    std::string order;
    for (const auto& app : apps_) order += (order.empty() ? "" : ",") + app.name;
    return std::to_string(apps_.size()) + " apps, jobs=1, last order " + order;
  }

 private:
  void run_app(const subjects::apps::App& app, Layers* layers) {
    const std::function<void()> program = timed_program(app.program, latency_, probe);
    fatomic::Config cfg;
    cfg.jobs(1).tracing(layers != nullptr);

    auto t0 = Clock::now();
    detect::Campaign campaign = detect::Experiment(program, cfg).run();
    auto t1 = Clock::now();
    const detect::Classification cls = timed(layers, "detect.classify_s", [&] {
      return detect::classify(campaign, cfg.policy());
    });
    check_verdicts(checks, app.name, campaign, cls, refs_);
    if (layers != nullptr)
      attribute_campaign(campaign, seconds(t1 - t0), "detect.campaign_s",
                         *layers);
    if (!verify_) return;

    // The CLI's --mask-verify --mask-partial: wrap the pure non-atomic
    // methods, checkpoint by the static write-set plans, re-run the campaign.
    auto t2 = Clock::now();
    fatomic::Config vcfg = cfg;
    vcfg.mask(mask::wrap_pure(cls, cfg.policy())).checkpoint_plans(plans_);
    const mask::MaskVerification verified =
        mask::verify_masked_full(program, vcfg);
    auto t3 = Clock::now();
    const std::size_t remaining =
        verified.classification.nonatomic_names().size();
    checks.expect(remaining == 0, [&] {
      return app.name + ": non-atomic methods remain after masking";
    });
    checks.expect(verified.campaign.stats.restore_errors == 0, [&] {
      return app.name + ": restore errors in the masked campaign";
    });
    if (layers != nullptr) {
      attribute_campaign(verified.campaign, seconds(t3 - t2), "mask.verify_s",
                         *layers);
      layers->nonatomic_remaining += remaining;
    }
  }

  std::vector<subjects::apps::App> apps_;
  bool verify_;
  std::mt19937_64 rng_;
  std::string source_root_;
  std::map<std::string, AppReference> refs_;
  std::shared_ptr<const weave::PlanMap> plans_;
  std::unique_ptr<FirstExecutions> first_executions_;
};

/// serve_recovery: ServerDemo's Server in production Mask mode under a
/// periodic fault source, one closed-loop client; one pass is one session
/// on a fresh Server.
class ServeWorkload : public Workload {
 public:
  ServeWorkload(std::uint64_t seed, std::string source_root)
      : rng_(seed), source_root_(std::move(source_root)) {}

  ~ServeWorkload() override {
    auto& rt = weave::Runtime::instance();
    rt.fault_period = 0;
    rt.set_recovery_policies(nullptr);
    rt.set_checkpoint_plans(nullptr);
    rt.set_wrap_predicate(nullptr);
    rt.set_mode(weave::Mode::Direct);
  }

  double setup(Layers* layers) override {
    const Clock::time_point t0 = Clock::now();
    const analyze::StaticReport report = timed(layers, "analyze.sources_s", [&] {
      return analyze::analyze_sources(source_root_);
    });
    // The policy bench/bench_recovery deploys: the derived table plus an
    // operator overlay for the served method — retry transient faults after
    // rollback, neutralize invalid requests (NetError) after rollback.
    policies_ = timed(layers, "recovery.derive_s", [&] {
      recovery::PolicyTable table =
          *recovery::derive_policy_table(report, nullptr).table;
      recovery::RecoveryPolicy serve;
      serve.action = recovery::Action::Retry;
      serve.retry_budget = kRetryBudget;
      serve.rollback_before_retry = true;
      serve.exception_overrides["subjects::net::NetError"] =
          recovery::Action::EarlyReturn;
      table.set("subjects::net::Server::handle", serve);
      return std::make_shared<const recovery::PolicyTable>(std::move(table));
    });
    plans_ = timed(layers, "mask.make_plans_s",
                   [&] { return mask::make_plans(report); });

    // Deploy: production Mask mode, Server methods wrapped.  Tracing and
    // the shadow validator stay off.
    auto& rt = weave::Runtime::instance();
    rt.set_mode(weave::Mode::Mask);
    rt.set_wrap_predicate([](const weave::MethodInfo& mi) {
      return mi.qualified_name().rfind("subjects::net::Server::", 0) == 0;
    });
    rt.set_checkpoint_plans(plans_);
    rt.set_recovery_policies(policies_);
    rt.validate_checkpoints = false;
    return seconds(Clock::now() - t0);
  }

  void prepare() override { requests_ = generate_session(); }

  void pass(Layers* layers) override {
    auto& rt = weave::Runtime::instance();
    const weave::RuntimeStats before = rt.stats;
    std::vector<Span> spans;
    if (layers != nullptr) {
      rt.trace.enable(0);
      rt.trace.take(0);
      spans.reserve(requests_.size());
    }

    subjects::net::Server server;
    server.provision(kEndpoints);
    rt.fault_counter = 0;
    rt.fault_period = kFaultPeriod;  // armed after provisioning
    for (const std::string& request : requests_) {
      std::string reply;
      bool threw = false;
      if (probe != nullptr) probe->sample_if_due();
      const Clock::time_point t0 = Clock::now();
      try {
        reply = server.handle(request);
      } catch (...) {
        threw = true;
      }
      const Clock::time_point t1 = Clock::now();
      latency_.add(t1 - t0, t1);
      if (layers != nullptr)
        spans.push_back(Span{nanos(t0.time_since_epoch()), nanos(t1 - t0),
                             "weave.serve_self_s"});
      // Valid requests echo as "ok:<request>"; invalid (empty) ones get the
      // neutral early-return reply.
      const bool echoed =
          request.empty()
              ? reply.empty()
              : reply.size() == request.size() + 3 &&
                    reply.compare(0, 3, "ok:") == 0 &&
                    reply.compare(3, std::string::npos, request) == 0;
      checks.expect(!threw && echoed, [&] {
        return "request '" + request + "' got reply '" + reply + "'";
      });
    }
    rt.fault_period = 0;
    checks.expect(server.invariants_hold(),
                  [] { return "Server invariants violated at session end"; });
    journal_bytes_ = server.journal().size();

    if (layers != nullptr) {
      const Clock::time_point t0 = Clock::now();
      collect(rt.trace.take(0), spans, *layers);
      rt.trace.disable();
      add_self_times(std::move(spans), *layers);
      layers->stats += rt.stats - before;
      layers->harness_s += seconds(Clock::now() - t0);
    }
  }

  /// One untimed session with the shadow checkpoint validator on.
  void finish() override {
    auto& rt = weave::Runtime::instance();
    const weave::RuntimeStats before = rt.stats;
    rt.validate_checkpoints = true;
    prepare();
    pass(nullptr);
    rt.validate_checkpoints = false;
    const weave::RuntimeStats d = rt.stats - before;
    divergences_ = d.validator_divergences;
    checks.expect(d.validator_divergences == 0 && d.restore_errors == 0, [] {
      return "shadow validator session: divergences or restore errors";
    });
  }

  const char* op_name() const override { return "requests"; }
  std::string describe() const override {
    return "session " + std::to_string(kSessionRequests) +
           " requests on a fresh Server, journal " +
           std::to_string(journal_bytes_) +
           " bytes at session end, fault period " +
           std::to_string(kFaultPeriod) + ", retry budget " +
           std::to_string(kRetryBudget) + ", 1 client thread, validator " +
           "session divergences " + std::to_string(divergences_);
  }

 private:
  /// Seeded request contents, lengths and invalid-request positions:
  /// bench_recovery's "req-<thread>-<index>" form with a random thread and
  /// index, so lengths (7-10 characters) follow its distribution.
  std::vector<std::string> generate_session() {
    std::uniform_int_distribution<int> invalid(1, kInvalidOneIn);
    std::uniform_int_distribution<int> thread(0, kRequestThreads - 1);
    std::uniform_int_distribution<int> index(0, kSessionRequests - 1);
    std::vector<std::string> out(kSessionRequests);
    for (std::string& r : out) {
      if (invalid(rng_) == 1) continue;  // empty: the organic NetError
      r = "req-" + std::to_string(thread(rng_)) + "-" +
          std::to_string(index(rng_));
    }
    return out;
  }

  std::mt19937_64 rng_;
  std::string source_root_;
  std::vector<std::string> requests_;
  std::shared_ptr<const recovery::PolicyTable> policies_;
  std::shared_ptr<const weave::PlanMap> plans_;
  std::size_t journal_bytes_ = 0;
  std::uint64_t divergences_ = 0;
};

// ---- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_result(const Checks& checks, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("%-28s %s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  std::string line = "{\"correct\": ";
  line += checks.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(checks.attempted);
  line += ", \"failed\": " + std::to_string(checks.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    line += (i ? ", " : "") + json_string(metrics[i].name) +
            ": {\"value\": " + number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  line += "}}";
  std::printf("%s\n", line.c_str());
}

/// The # meta line: how and where the run was made, and the host probe.
void print_stamp(const Args& args, const HostProbe& probe) {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  const char* opt = "optimized, NDEBUG";
#elif defined(__OPTIMIZE__)
  const char* opt = "optimized, asserts on";
#else
  const char* opt = "unoptimized";
#endif
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::printf(
      "# meta {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %u, \"build\": %s, \"compiler\": %s, "
      "\"checkpoint_backend\": %s, \"git\": %s, "
      "\"host_probe_s\": %s, \"host_probe_samples\": %zu, "
      "\"host_drift\": %s}\n",
      json_string(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), number(args.seconds).c_str(),
      args.trace ? 1 : 0, std::thread::hardware_concurrency(),
      json_string(std::string(PERFBENCH_BUILD_TYPE) + " (" + opt + ")")
          .c_str(),
      json_string(compiler).c_str(),
      json_string(snapshot::to_string(snapshot::default_backend())).c_str(),
      json_string(args.git_describe).c_str(), number(probe.median_s()).c_str(),
      probe.count(), number(probe.drift()).c_str());
}

/// error_rate = failed / attempted checks.  It is printed, not a bounded
/// metric: it is 0 on correct code, and bounds are shares of the parent's
/// value.
void print_error_rate(const Checks& checks) {
  const double error_rate =
      static_cast<double>(checks.failed) /
      static_cast<double>(std::max<std::uint64_t>(checks.attempted, 1));
  std::printf("error_rate %s (%llu failed of %llu checked)\n",
              number(error_rate).c_str(),
              static_cast<unsigned long long>(checks.failed),
              static_cast<unsigned long long>(checks.attempted));
}

// ---- the measurement loop --------------------------------------------------

/// Per-pass wall times, without input generation, span attribution and
/// host probe samples.
struct PassTimes {
  std::vector<Timing> plain;
  std::vector<double> traced;
};

/// Runs passes until `budget_s` has elapsed (the last pass is always
/// completed, so every pass covers the same work).  With `layers` set,
/// untraced and traced passes alternate, so both see the same host phases,
/// and there is at least one of each.  `between`, when set, runs untimed
/// after each pass; the host probe samples before each pass when due (and,
/// in untraced runs, between the pass's operations), and once after the
/// last.
PassTimes run_passes(Workload& w, double budget_s, HostProbe& probe,
                     Layers* layers,
                     const std::function<void()>& between = {}) {
  PassTimes times;
  const Clock::time_point start = Clock::now();
  bool traced = false;
  do {
    Layers* const pass_layers = traced ? layers : nullptr;
    probe.sample_if_due();
    w.prepare();
    const double harness0 = pass_layers != nullptr ? layers->harness_s : 0;
    const double probe0 = probe.spent_s();
    const Clock::time_point t0 = Clock::now();
    w.pass(pass_layers);
    const Clock::time_point t1 = Clock::now();
    const double harness =
        (pass_layers != nullptr ? layers->harness_s - harness0 : 0) +
        (probe.spent_s() - probe0);
    const double s = seconds(t1 - t0) - harness;
    if (traced)
      times.traced.push_back(s);
    else
      times.plain.push_back(Timing{t0, t1, s});
    if (between) between();
    if (layers != nullptr) traced = !traced;
  } while (seconds(Clock::now() - start) < budget_s ||
           (layers != nullptr && times.traced.empty()));
  probe.sample();
  return times;
}

/// Appends set-up durations to `times`: repeats the set-up for
/// kSetupRoundSeconds, at least once.
void setup_round(Workload& w, std::vector<Timing>& times) {
  const Clock::time_point start = Clock::now();
  Clock::time_point t0 = start;
  do {
    const double s = w.setup(nullptr);
    const Clock::time_point t1 = Clock::now();
    times.push_back(Timing{t0, t1, s});
    t0 = t1;
  } while (seconds(t0 - start) < kSetupRoundSeconds);
}

/// The seconds of each timing, scaled by `probe` when it is set.
std::vector<double> values(const std::vector<Timing>& times,
                           const HostProbe* probe) {
  std::vector<double> out;
  for (const Timing& t : times)
    out.push_back(probe != nullptr ? probe->scaled(t) : t.s);
  return out;
}

std::vector<Metric> end_to_end(Workload& w, const Args& args,
                               HostProbe& probe) {
  std::vector<Timing> setups;
  setup_round(w, setups);
  Clock::time_point last_round = Clock::now();
  w.probe = &probe;
  const std::vector<Timing> passes =
      run_passes(w, args.seconds, probe, nullptr, [&] {
        if (seconds(Clock::now() - last_round) < kSetupRoundEvery) return;
        setup_round(w, setups);
        last_round = Clock::now();
      }).plain;
  w.probe = nullptr;
  // Every time is scaled to the reference host speed (see HostProbe).
  const std::vector<double> scaled = values(passes, &probe);
  double total = 0;
  for (double p : scaled) total += p;
  const std::uint64_t ops = w.ops();
  auto latency = [&probe](const Timing& t) { return probe.scaled(t); };
  const std::vector<Metric> metrics = {
      {"setup_s", median(values(setups, &probe)), "s"},
      {"sweep_s", median(scaled), "s"},
      {"serve_rps", static_cast<double>(ops) / total, "1/s"},
      {"serve_p50_us", w.latency().percentile_us(0.50, latency), "us"},
      {"serve_p99_us", w.latency().percentile_us(0.99, latency), "us"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  std::vector<double> sorted = values(passes, nullptr);
  std::vector<double> factors;
  for (std::size_t i = 0; i < sorted.size(); ++i)
    factors.push_back(scaled[i] / sorted[i]);
  std::sort(sorted.begin(), sorted.end());
  w.finish();
  std::printf("%s: %zu set-ups, %zu passes, %llu %s, latency reservoir %llu "
              "(%s)\n",
              args.workload.c_str(), setups.size(), passes.size(),
              static_cast<unsigned long long>(ops), w.op_name(),
              static_cast<unsigned long long>(
                  std::min<std::uint64_t>(ops, w.latency().capacity())),
              w.describe().c_str());
  std::printf("unscaled pass time (s): min %s, median %s, max %s; "
              "median host scale %s\n",
              number(sorted.front()).c_str(), number(median(sorted)).c_str(),
              number(sorted.back()).c_str(), number(median(factors)).c_str());
  print_error_rate(w.checks);
  return metrics;
}

std::vector<Metric> per_layer(Workload& w, const Args& args,
                              HostProbe& probe) {
  Layers layers;
  const double setup_s = w.setup(&layers);
  // Untraced passes are the reference for the tracing overhead.
  const PassTimes times = run_passes(w, args.seconds, probe, &layers);
  const std::vector<double> plain = values(times.plain, nullptr);
  const std::vector<double>& traced = times.traced;
  w.finish();

  double wall = setup_s;
  for (double p : traced) wall += p;
  double attributed = 0;
  for (const auto& [row, s] : layers.rows) attributed += s;

  const double n = static_cast<double>(traced.size());
  const weave::RuntimeStats& st = layers.stats;
  auto per_pass = [n](std::uint64_t v) { return static_cast<double>(v) / n; };
  auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / den;
  };
  auto row = [&layers](const char* name) {
    const auto it = layers.rows.find(name);
    return it == layers.rows.end() ? 0.0 : it->second;
  };
  std::printf("%s traced: %zu untraced + %zu traced passes, %llu trace "
              "events\n",
              args.workload.c_str(), plain.size(), traced.size(),
              static_cast<unsigned long long>(layers.events));
  print_error_rate(w.checks);
  return {
      {"analyze.sources_s", row("analyze.sources_s"), "s"},
      {"mask.make_plans_s", row("mask.make_plans_s"), "s"},
      {"recovery.derive_s", row("recovery.derive_s"), "s"},
      {"detect.campaign_s", row("detect.campaign_s"), "s"},
      {"detect.baseline_s", row("detect.baseline_s"), "s"},
      {"detect.classify_s", row("detect.classify_s"), "s"},
      {"detect.run_self_s", row("detect.run_self_s"), "s"},
      {"detect.injector_runs", per_pass(layers.injector_runs), "count/pass"},
      {"snapshot.captures", per_pass(st.snapshots_taken), "count/pass"},
      {"snapshot.captures_per_run",
       ratio(st.snapshots_taken, layers.injector_runs), "ratio"},
      {"snapshot.capture_s", row("snapshot.capture_s"), "s"},
      {"snapshot.capture_units", per_pass(st.checkpoint_units), "count/pass"},
      {"snapshot.arena_bytes", per_pass(st.arena_bytes), "B/pass"},
      {"snapshot.compares", per_pass(st.comparisons), "count/pass"},
      {"snapshot.compare_s", row("snapshot.compare_s"), "s"},
      {"snapshot.memcmp_ratio", ratio(st.memcmp_compares, st.comparisons),
       "ratio"},
      {"snapshot.partial_checkpoints", per_pass(st.partial_checkpoints),
       "count/pass"},
      {"snapshot.partial_s", row("snapshot.partial_s"), "s"},
      {"snapshot.partial_fallback_ratio",
       ratio(st.partial_fallbacks,
             st.partial_checkpoints + st.partial_fallbacks),
       "ratio"},
      {"snapshot.rollbacks", per_pass(st.rollbacks), "count/pass"},
      {"snapshot.restore_errors", per_pass(st.restore_errors), "count/pass"},
      {"weave.wrapped_calls", per_pass(st.wrapped_calls), "count/pass"},
      {"weave.exceptions_thrown", per_pass(st.exceptions_thrown),
       "count/pass"},
      {"weave.plan_hit_ratio", ratio(layers.plan_hits, layers.plan_lookups),
       "ratio"},
      {"weave.serve_self_s", row("weave.serve_self_s"), "s"},
      {"mask.verify_s", row("mask.verify_s"), "s"},
      {"mask.nonatomic_remaining", per_pass(layers.nonatomic_remaining),
       "count/pass"},
      {"recovery.faults", per_pass(st.faults_injected), "count/pass"},
      {"recovery.retry_attempts", per_pass(st.retry_attempts), "count/pass"},
      {"recovery.rate",
       ratio(st.retry_successes, st.retry_successes + st.retry_exhaustions),
       "ratio"},
      {"recovery.retry_s", row("recovery.retry_s"), "s"},
      {"recovery.early_return_s", row("recovery.early_return_s"), "s"},
      {"recovery.other_s", row("recovery.other_s"), "s"},
      {"recovery.policy_rollbacks", per_pass(st.policy_rollbacks),
       "count/pass"},
      {"unattributed_s", wall - attributed, "s"},
      {"trace.wall_s", wall, "s"},
      {"trace.passes", n, "count"},
      {"trace.overhead_ratio", median(traced) / median(plain) - 1.0, "ratio"},
  };
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (a == "--workload")
      args.workload = v;
    else if (a == "--seed")
      args.seed = std::stoull(v);
    else if (a == "--seconds")
      args.seconds = std::stod(v);
    else if (a == "--trace")
      args.trace = v == "1";
    else if (a == "--source-root")
      args.source_root = v;
    else if (a == "--reference")
      args.reference = v;
    else if (a == "--git-describe")
      args.git_describe = v;
    else if (a == "--write-reference")
      args.write_reference = v;
    else
      return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Args args;
    if (!parse_args(argc, argv, args)) {
      std::fprintf(stderr, "usage: see the header of perfbench/perfbench.cpp\n");
      return 1;
    }
    if (!args.write_reference.empty())
      return write_reference(args.write_reference);
    if (args.seconds <= 0 || args.source_root.empty() ||
        args.reference.empty()) {
      std::fprintf(stderr,
                   "--seconds, --source-root and --reference are required\n");
      return 1;
    }
    std::unique_ptr<Workload> w;
    if (args.workload == "detect_selfstar")
      w = std::make_unique<CampaignWorkload>(
          "C++", false, args.seed, args.source_root,
          load_reference(args.reference));
    else if (args.workload == "verify_collections")
      w = std::make_unique<CampaignWorkload>(
          "Java", true, args.seed, args.source_root,
          load_reference(args.reference));
    else if (args.workload == "serve_recovery")
      w = std::make_unique<ServeWorkload>(args.seed, args.source_root);
    else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 1;
    }
    HostProbe probe;
    const std::vector<Metric> metrics = args.trace
                                            ? per_layer(*w, args, probe)
                                            : end_to_end(*w, args, probe);
    print_stamp(args, probe);
    print_result(w->checks, metrics);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
