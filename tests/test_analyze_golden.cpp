// Golden lock on the whole static analysis: dumps every fact the passes
// derive from the subject tree as canonical text and compares it byte for
// byte with tests/golden/static_report.txt.  Refactors of the analysis
// front end must leave this dump unchanged; a precision change updates the
// golden file in the same commit and says why.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "fatomic/analyze/alias.hpp"
#include "fatomic/analyze/static_report.hpp"

namespace analyze = fatomic::analyze;

namespace {

const std::string kSubjectRoot = std::string(FATOMIC_SOURCE_DIR) + "/subjects";
const std::string kGolden =
    std::string(FATOMIC_TESTS_DIR) + "/golden/static_report.txt";

template <class C>
std::string join(const C& items) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& x : items) {
    os << (first ? "" : ",") << x;
    first = false;
  }
  os << "}";
  return os.str();
}

std::string alias_text(const analyze::AliasTarget& t) {
  static const char* const kKinds[] = {"local", "field", "param", "top"};
  return std::string(kKinds[static_cast<int>(t.kind)]) + " roots=" +
         join(t.roots) + " positions=" + join(t.positions);
}

void dump_graph_map(std::ostream& os, const char* title,
                    const std::map<std::string, std::set<std::string>>& m) {
  os << "== graph." << title << " (" << m.size() << ")\n";
  for (const auto& [node, set] : m) os << node << " " << join(set) << "\n";
}

std::string dump(const analyze::StaticReport& r,
                 const analyze::AliasAnalysis& aliases) {
  std::ostringstream os;
  os << "== effects.methods (" << r.effects.methods.size() << ")\n";
  for (const auto& [name, es] : r.effects.methods) {
    os << name << " verdict=" << es.verdict() << " scanned=" << es.scanned
       << " static=" << es.is_static << " catches=" << es.catches
       << " mut=" << es.mutation_events << " throw=" << es.throw_events
       << " write_top=" << es.write_top << " writes=" << join(es.write_names)
       << " reasons=" << join(es.write_top_reasons) << "\n";
  }
  os << "== effects.helpers (" << r.effects.helpers.size() << ")\n";
  for (const auto& [name, fs] : r.effects.helpers) {
    os << name << " env=" << fs.mutates_env << " params=" << fs.mutates_params
       << " throws=" << fs.may_throw << " catches=" << fs.catches
       << " writes=" << join(fs.writes) << (fs.writes_unknown ? "+?" : "")
       << " param_writes=" << join(fs.param_writes)
       << (fs.param_writes_unknown ? "+?" : "")
       << " positions=" << join(fs.write_param_positions)
       << (fs.param_positions_unknown ? "+?" : "") << "\n";
  }
  os << "== write_sets (" << r.write_sets.methods.size() << ", partial "
     << r.write_sets.partial_count() << ")\n";
  for (const auto& [name, w] : r.write_sets.methods) {
    os << name << " top=" << w.top << " names=" << join(w.names)
       << " plan=" << fatomic::snapshot::to_string(w.plan)
       << " capture=" << join(w.plan.capture) << " prune=" << join(w.plan.prune)
       << "\n";
    for (const std::string& why : w.top_reasons) os << "  top: " << why << "\n";
  }
  dump_graph_map(os, "calls", r.graph.calls);
  dump_graph_map(os, "ctor_classes", r.graph.ctor_classes);
  dump_graph_map(os, "may_propagate", r.graph.may_propagate);
  dump_graph_map(os, "may_raise_explicit", r.graph.may_raise_explicit);
  os << "== graph.open " << join(r.graph.open) << "\n";
  os << "== aliases (" << aliases.by_key.size() << ")\n";
  for (const auto& [key, fa] : aliases.by_key) {
    os << key << " this_top=" << fa.this_top
       << " this_sinks=" << join(fa.this_sinks)
       << " tied=" << join(fa.tied_positions)
       << " has_return=" << fa.has_return
       << " returns=" << alias_text(fa.returns) << "\n";
    for (const auto& [var, t] : fa.locals)
      os << "  " << var << " -> " << alias_text(t) << "\n";
  }
  return os.str();
}

TEST(AnalyzeGolden, StaticReportMatchesGoldenFile) {
  const analyze::StaticReport report = analyze::analyze_sources(kSubjectRoot);
  const analyze::AliasAnalysis aliases = analyze::analyze_aliases(report.model);
  const std::string actual = dump(report, aliases);

  std::ifstream in(kGolden, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << kGolden;
  const std::string expected((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  if (actual == expected) return;

  // Leave the actual dump next to the test's temp files for diffing.
  const std::filesystem::path out =
      std::filesystem::path(::testing::TempDir()) / "static_report.actual.txt";
  std::ofstream(out, std::ios::binary) << actual;
  std::size_t line = 1, i = 0;
  while (i < actual.size() && i < expected.size() && actual[i] == expected[i])
    if (actual[i++] == '\n') ++line;
  FAIL() << "static analysis differs from " << kGolden << " at line " << line
         << "; actual dump written to " << out.string();
}

}  // namespace
