// Checkpoint engine bench: the arena flat-buffer engine must beat its
// graph-walk oracle by >= 5x on checkpoint work (capture + compare) for the xml
// and collections subject families, while classifying every campaign
// bit-identically.  CI fails the job (exit 2) when either gate breaks.
//
// Methodology: each app's campaign runs traced under both backends; the
// per-backend checkpoint cost is the summed duration of its capture and
// compare spans (Snapshot + Compare for graph, ArenaCapture + ArenaCompare
// for arena — both span pairs cover the same work: the before capture, and
// the after capture + equality on the exception path).  Best of 3 reps per
// backend guards against scheduler noise; classifications are compared on
// rep 1 (they are deterministic, so any rep would do).
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fatomic/config.hpp"
#include "fatomic/detect/classify.hpp"
#include "fatomic/detect/experiment.hpp"
#include "fatomic/report/json.hpp"
#include "fatomic/snapshot/backend.hpp"
#include "fatomic/trace/trace.hpp"
#include "subjects/apps/apps.hpp"

namespace detect = fatomic::detect;
namespace report = fatomic::report;
namespace snapshot = fatomic::snapshot;
namespace trace = fatomic::trace;

namespace {

constexpr int kReps = 3;
constexpr double kRequiredSpeedup = 5.0;

/// Subject family, by app naming convention (Table 1 groups).
std::string family_of(const std::string& name) {
  if (name.rfind("xml", 0) == 0) return "xml";
  if (name == "RegExp") return "regexp";
  if (name == "adaptorChain" || name == "stdQ") return "stl";
  return "collections";
}

struct BackendRun {
  std::uint64_t checkpoint_ns = 0;  ///< capture + compare span time
  std::string classification;      ///< classification_json, rep 1
  std::uint64_t memcmp_compares = 0;
  std::uint64_t compare_fallbacks = 0;
  std::uint64_t arena_bytes = 0;
};

BackendRun measure(const subjects::apps::App& app,
                   snapshot::BackendKind kind) {
  BackendRun best;
  for (int rep = 0; rep < kReps; ++rep) {
    fatomic::Config config;
    config.tracing(true).checkpoint_backend(kind);
    detect::Campaign campaign =
        detect::Experiment(app.program, config).run();

    std::uint64_t ns = 0;
    for (const trace::Event& e : campaign.trace.events) {
      const bool graph_work = e.kind == trace::EventKind::Snapshot ||
                              e.kind == trace::EventKind::Compare;
      const bool arena_work = e.kind == trace::EventKind::ArenaCapture ||
                              e.kind == trace::EventKind::ArenaCompare;
      if (graph_work || arena_work) ns += e.dur_ns;
    }
    if (rep == 0) {
      best.checkpoint_ns = ns;
      best.classification =
          report::classification_json(detect::classify(campaign));
      best.memcmp_compares = campaign.stats.memcmp_compares;
      best.compare_fallbacks = campaign.stats.compare_fallbacks;
      best.arena_bytes = campaign.stats.arena_bytes;
    } else {
      best.checkpoint_ns = std::min(best.checkpoint_ns, ns);
    }
  }
  return best;
}

}  // namespace

int main() {
  struct FamilyTotal {
    std::uint64_t graph_ns = 0;
    std::uint64_t arena_ns = 0;
  };
  std::vector<std::pair<std::string, FamilyTotal>> families;
  auto family_total = [&](const std::string& f) -> FamilyTotal& {
    for (auto& [name, t] : families)
      if (name == f) return t;
    families.emplace_back(f, FamilyTotal{});
    return families.back().second;
  };

  bench_common::JsonArray rows;
  int status = 0;

  std::printf("%-14s %-11s %14s %14s %9s\n", "app", "family", "graph_ns",
              "arena_ns", "speedup");
  for (const auto& app : subjects::apps::all_apps()) {
    const BackendRun graph = measure(app, snapshot::BackendKind::Graph);
    const BackendRun arena = measure(app, snapshot::BackendKind::Arena);
    if (graph.classification != arena.classification) {
      std::printf("%-14s CLASSIFICATION DIVERGED between backends\n",
                  app.name.c_str());
      status = 2;
    }
    const std::string family = family_of(app.name);
    FamilyTotal& total = family_total(family);
    total.graph_ns += graph.checkpoint_ns;
    total.arena_ns += arena.checkpoint_ns;

    const double speedup =
        arena.checkpoint_ns == 0
            ? 0.0
            : static_cast<double>(graph.checkpoint_ns) /
                  static_cast<double>(arena.checkpoint_ns);
    std::printf("%-14s %-11s %14llu %14llu %8.2fx\n", app.name.c_str(),
                family.c_str(),
                static_cast<unsigned long long>(graph.checkpoint_ns),
                static_cast<unsigned long long>(arena.checkpoint_ns),
                speedup);
    rows.add_raw(bench_common::JsonObject{}
                     .put("name", app.name)
                     .put("family", family)
                     .put("graph_checkpoint_ns", graph.checkpoint_ns)
                     .put("arena_checkpoint_ns", arena.checkpoint_ns)
                     .put("speedup", speedup)
                     .put("memcmp_compares", arena.memcmp_compares)
                     .put("compare_fallbacks", arena.compare_fallbacks)
                     .put("arena_bytes", arena.arena_bytes)
                     .put("classification_identical",
                          graph.classification == arena.classification)
                     .dump());
  }

  std::printf("\n%-14s %14s %14s %9s  gate\n", "family", "graph_ns",
              "arena_ns", "speedup");
  bench_common::JsonArray family_rows;
  for (const auto& [name, t] : families) {
    const double speedup = t.arena_ns == 0
                               ? 0.0
                               : static_cast<double>(t.graph_ns) /
                                     static_cast<double>(t.arena_ns);
    const bool gated = name == "xml" || name == "collections";
    const bool pass = !gated || speedup >= kRequiredSpeedup;
    if (!pass) status = 2;
    std::printf("%-14s %14llu %14llu %8.2fx  %s\n", name.c_str(),
                static_cast<unsigned long long>(t.graph_ns),
                static_cast<unsigned long long>(t.arena_ns), speedup,
                gated ? (pass ? "PASS (>=5x)" : "FAIL (<5x)") : "-");
    family_rows.add_raw(bench_common::JsonObject{}
                            .put("family", name)
                            .put("graph_checkpoint_ns", t.graph_ns)
                            .put("arena_checkpoint_ns", t.arena_ns)
                            .put("speedup", speedup)
                            .put("gated", gated)
                            .put("pass", pass)
                            .dump());
  }

  bench_common::write_bench_json(
      "backend", bench_common::JsonObject{}
                     .put("required_speedup", kRequiredSpeedup)
                     .put("reps", kReps)
                     .put_raw("apps", rows.dump())
                     .put_raw("families", family_rows.dump())
                     .put("pass", status == 0)
                     .dump());
  return status;
}
