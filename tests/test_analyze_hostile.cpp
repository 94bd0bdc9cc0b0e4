// Hostile input for the static analyzer: every subject source is rewritten
// into a temp tree with one random corruption each — truncated at a random
// byte, a span of up to 64 bytes deleted, or a stray bracket, operator or
// keyword inserted — and the whole pipeline runs over the result.  The
// analyzer may reject a tree with std::runtime_error; any other exception,
// a crash or a sanitizer report is a failure.  The seed is fixed so every
// run corrupts the same way.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fatomic/analyze/static_report.hpp"

namespace analyze = fatomic::analyze;
namespace fs = std::filesystem;

namespace {

const std::string kSubjectRoot = std::string(FATOMIC_SOURCE_DIR) + "/subjects";

constexpr std::uint32_t kSeed = 20031;
constexpr int kRounds = 32;

/// Relative path and contents of every scannable subject file.
std::vector<std::pair<fs::path, std::string>> subject_files() {
  std::vector<std::pair<fs::path, std::string>> out;
  for (const auto& entry : fs::recursive_directory_iterator(kSubjectRoot)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".hpp" && ext != ".h" && ext != ".cpp" && ext != ".cc") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    out.emplace_back(fs::relative(entry.path(), kSubjectRoot),
                     std::string((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string corrupt(const std::string& text, std::mt19937& rng) {
  static const char* const kInserts[] = {
      "{", "}", "(", ")", "<", ">>", "[", "]", "try", "catch", "throw",
      "\"", "/*", "->", "::"};
  auto pick = [&rng](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n)(rng);
  };
  const std::size_t at = pick(text.size());
  switch (pick(2)) {
    case 0:
      return text.substr(0, at);
    case 1:
      return text.substr(0, at) +
             text.substr(std::min(text.size(), at + pick(64)));
    default:
      return text.substr(0, at) + " " +
             kInserts[pick(std::size(kInserts) - 1)] + " " + text.substr(at);
  }
}

TEST(AnalyzeHostile, CorruptedSubjectTreesNeverCrashTheAnalyzer) {
  const auto files = subject_files();
  ASSERT_FALSE(files.empty());
  const fs::path root = fs::path(::testing::TempDir()) / "fatomic_hostile";
  std::mt19937 rng(kSeed);
  for (int round = 0; round < kRounds; ++round) {
    fs::remove_all(root);
    for (const auto& [rel, text] : files) {
      fs::create_directories((root / rel).parent_path());
      std::ofstream(root / rel, std::ios::binary) << corrupt(text, rng);
    }
    try {
      const analyze::StaticReport report = analyze::analyze_sources(root.string());
      EXPECT_EQ(report.effects.methods.size(), report.write_sets.methods.size())
          << "round " << round;
    } catch (const std::runtime_error&) {
      // Rejecting malformed input is allowed.
    } catch (const std::exception& e) {
      ADD_FAILURE() << "round " << round << ": unexpected exception: "
                    << e.what();
    }
  }
  fs::remove_all(root);
}

}  // namespace
