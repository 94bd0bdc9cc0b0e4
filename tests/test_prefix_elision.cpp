// Prefix checkpoint elision (DESIGN.md §7): an injector run skips the entry
// captures of the calls the Count baseline shows returning before the run's
// threshold with no exception crossing them.  The elided arena campaign must
// record exactly the runs and marks of the graph oracle, which keeps
// Listing 1's capture on every call; a run that leaves the baseline table
// falls back to full capture, and an exception crossing an elided wrapper is
// counted, never dropped.
#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "fatomic/detect/classify.hpp"
#include "fatomic/detect/experiment.hpp"
#include "fatomic/mask/masker.hpp"
#include "fatomic/report/json.hpp"
#include "fatomic/weave/runtime.hpp"
#include "subjects/apps/apps.hpp"
#include "testing/synthetic.hpp"

namespace detect = fatomic::detect;
namespace mask = fatomic::mask;
namespace report = fatomic::report;
namespace snapshot = fatomic::snapshot;
namespace weave = fatomic::weave;

namespace {

detect::Campaign run(std::function<void()> program, snapshot::BackendKind kind,
                     unsigned jobs = 1) {
  detect::CampaignSettings opts;
  opts.backend = kind;
  opts.jobs = jobs;
  return detect::Experiment(std::move(program), opts).run();
}

std::string classification(const detect::Campaign& c) {
  return report::classification_json(detect::classify(c));
}

bool in_baseline() {
  return weave::Runtime::instance().mode() == weave::Mode::Count;
}

/// The baseline makes one call the injector runs never make, so every run
/// leaves the table at its second call.
void drifting_program() {
  synthetic::Account a;
  if (in_baseline()) a.helper();
  a.set(1);
  a.nonatomic_update(2);
  a.calls_nonatomic(3);
  a.batch_add({1, 2});
}

/// Same call sequence in every run, but safe_withdraw throws only in the
/// injector runs: an exception the baseline never saw crosses an elided
/// wrapper.
void treacherous_program() {
  synthetic::Account a;
  a.set(5);
  try {
    a.safe_withdraw(in_baseline() ? 1 : 1000000);
  } catch (const synthetic::BankError&) {
  }
  a.set(6);
  a.nonatomic_update(7);
}

std::size_t runs_with_mark(const detect::Campaign& c, const std::string& method,
                           const std::string& exception_type) {
  std::size_t n = 0;
  for (const detect::RunRecord& r : c.runs)
    for (const weave::Mark& m : r.marks)
      if (m.method->qualified_name() == method &&
          m.exception_type == exception_type) {
        ++n;
        break;
      }
  return n;
}

}  // namespace

TEST(PrefixElision, EveryFamilyRecordsTheOracleRuns) {
  std::vector<subjects::apps::App> apps = subjects::apps::all_apps();
  for (const char* hidden : {"lintDemo", "netDemo", "ServerDemo"})
    apps.push_back(subjects::apps::app(hidden));
  for (const auto& app : apps) {
    SCOPED_TRACE(app.name);
    const detect::Campaign oracle =
        run(app.program, snapshot::BackendKind::Graph, 2);
    const detect::Campaign elided =
        run(app.program, snapshot::BackendKind::Arena, 2);
    EXPECT_EQ(detect::first_run_mismatch(oracle, elided), "");
    EXPECT_EQ(classification(oracle), classification(elided));
    EXPECT_EQ(oracle.stats.elided_captures, 0u)
        << "the graph oracle keeps Listing 1's capture on every call";
    EXPECT_GT(elided.stats.elided_captures, 0u);
    EXPECT_LT(elided.stats.snapshots_taken, oracle.stats.snapshots_taken);
    EXPECT_EQ(elided.stats.elision_fallbacks, 0u);
    EXPECT_EQ(elided.stats.elision_misses, 0u);
    // Elision removes only captures: every compare still happens.
    EXPECT_EQ(elided.stats.comparisons, oracle.stats.comparisons);
  }
}

TEST(PrefixElision, MaskedVerificationSkipsTheNestedCheckpointToo) {
  const auto& app = subjects::apps::app("LinkedList");
  detect::CampaignSettings opts;
  opts.masked = true;
  opts.wrap = mask::wrap_pure(detect::classify(detect::Experiment(app.program).run()));
  opts.backend = snapshot::BackendKind::Graph;
  const detect::Campaign oracle = detect::Experiment(app.program, opts).run();
  opts.backend = snapshot::BackendKind::Arena;
  const detect::Campaign elided = detect::Experiment(app.program, opts).run();
  EXPECT_EQ(detect::first_run_mismatch(oracle, elided), "");
  EXPECT_EQ(classification(oracle), classification(elided));
  EXPECT_EQ(elided.stats.wrapped_calls, oracle.stats.wrapped_calls);
  EXPECT_EQ(elided.stats.rollbacks, oracle.stats.rollbacks);
  EXPECT_GT(elided.stats.elided_captures, 0u);
  EXPECT_LT(elided.stats.snapshots_taken, oracle.stats.snapshots_taken);
  EXPECT_EQ(elided.stats.elision_fallbacks + elided.stats.elision_misses, 0u);
}

TEST(PrefixElision, DriftingCallSequenceFallsBackAndClassifiesLikeTheOracle) {
  const detect::Campaign oracle =
      run(drifting_program, snapshot::BackendKind::Graph);
  const detect::Campaign elided =
      run(drifting_program, snapshot::BackendKind::Arena);
  EXPECT_GT(elided.stats.elision_fallbacks, 0u);
  EXPECT_EQ(elided.stats.elision_misses, 0u);
  EXPECT_EQ(detect::first_run_mismatch(oracle, elided), "");
  EXPECT_EQ(classification(oracle), classification(elided));
}

TEST(PrefixElision, ExceptionThrownAndCaughtInThePrefixKeepsItsMarks) {
  const detect::Campaign oracle =
      run(synthetic::workload, snapshot::BackendKind::Graph);
  const detect::Campaign elided =
      run(synthetic::workload, snapshot::BackendKind::Arena);
  EXPECT_GT(elided.stats.elided_captures, 0u);
  EXPECT_EQ(elided.stats.elision_fallbacks + elided.stats.elision_misses, 0u);
  EXPECT_EQ(detect::first_run_mismatch(oracle, elided), "");
  // Every run whose threshold lies past the organic throws still marks the
  // methods those throws crossed.
  for (const char* method : {"synthetic::Account::safe_withdraw",
                             "synthetic::Account::sloppy_withdraw"}) {
    SCOPED_TRACE(method);
    const std::size_t marked =
        runs_with_mark(elided, method, "synthetic::BankError");
    EXPECT_GT(marked, 0u);
    EXPECT_EQ(marked, runs_with_mark(oracle, method, "synthetic::BankError"));
  }
}

TEST(PrefixElision, ExceptionCrossingAnElidedWrapperIsCounted) {
  const detect::Campaign elided =
      run(treacherous_program, snapshot::BackendKind::Arena);
  EXPECT_GT(elided.stats.elision_misses, 0u)
      << "a determinism violation must never pass silently";
  const detect::Campaign oracle =
      run(treacherous_program, snapshot::BackendKind::Graph);
  EXPECT_EQ(oracle.stats.elision_misses, 0u);
}

TEST(PrefixElision, ProductionFaultsKeepEveryCapture) {
  auto& rt = weave::Runtime::instance();
  rt.fault_period = 1000000;  // armed, but never reached in this campaign
  const detect::Campaign c =
      run(synthetic::workload, snapshot::BackendKind::Arena);
  rt.fault_period = 0;
  rt.fault_counter = 0;
  EXPECT_EQ(c.stats.elided_captures, 0u);
}
