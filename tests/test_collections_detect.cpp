// Detection expectations for the collection subjects: each deliberately
// planted legacy bug pattern must classify exactly as designed, and each
// carefully ordered method must classify atomic — this pins down the
// injection engine against the subject corpus, method by method.
#include <gtest/gtest.h>

#include <map>

#include "fatomic/config.hpp"
#include "fatomic/detect/classify.hpp"
#include "fatomic/detect/experiment.hpp"
#include "subjects/apps/apps.hpp"

namespace detect = fatomic::detect;
using detect::MethodClass;

namespace {

class CollectionsDetect : public ::testing::Test {
 protected:
  static MethodClass cls_of(const std::string& app,
                            const std::string& method) {
    static std::map<std::string, detect::Classification> cache;
    auto it = cache.find(app);
    if (it == cache.end()) {
      detect::Experiment exp(subjects::apps::app(app).program);
      it = cache.emplace(app, detect::classify(exp.run())).first;
    }
    const auto* r = it->second.find("subjects::collections::" + method);
    EXPECT_NE(r, nullptr) << method;
    return r == nullptr ? MethodClass::Atomic : r->cls;
  }

  void TearDown() override {
    fatomic::weave::Runtime::instance().set_mode(fatomic::weave::Mode::Direct);
  }
};

}  // namespace

TEST_F(CollectionsDetect, CircularListSingleStepMutatorsAtomic) {
  EXPECT_EQ(cls_of("CircularList", "CircularList::push_front"),
            MethodClass::Atomic);
  EXPECT_EQ(cls_of("CircularList", "CircularList::push_back"),
            MethodClass::Atomic);
  EXPECT_EQ(cls_of("CircularList", "CircularList::pop_front"),
            MethodClass::Atomic);
  EXPECT_EQ(cls_of("CircularList", "CircularList::reverse"),
            MethodClass::Atomic);
}

TEST_F(CollectionsDetect, CircularListIncrementalOpsPure) {
  EXPECT_EQ(cls_of("CircularList", "CircularList::append_all"),
            MethodClass::PureNonAtomic);
  EXPECT_EQ(cls_of("CircularList", "CircularList::remove_all"),
            MethodClass::PureNonAtomic);
  EXPECT_EQ(cls_of("CircularList", "CircularList::rotate"),
            MethodClass::PureNonAtomic);
  EXPECT_EQ(cls_of("CircularList", "CircularList::splice_front"),
            MethodClass::PureNonAtomic);
}

TEST_F(CollectionsDetect, CircularListDelegatorConditional) {
  EXPECT_EQ(cls_of("CircularList", "CircularList::rotate_to"),
            MethodClass::ConditionalNonAtomic);
}

TEST_F(CollectionsDetect, CircularListReadsAtomic) {
  EXPECT_EQ(cls_of("CircularList", "CircularList::at"), MethodClass::Atomic);
  EXPECT_EQ(cls_of("CircularList", "CircularList::index_of"),
            MethodClass::Atomic);
  EXPECT_EQ(cls_of("CircularList", "CircularList::to_vector"),
            MethodClass::Atomic);
}

TEST_F(CollectionsDetect, HelperClassStaysAtomicUnderAtomicUsage) {
  // The CircularList app uses Dynarray only through push_back/contains/
  // pop_back — the helper class must classify fully atomic there.
  EXPECT_EQ(cls_of("CircularList", "Dynarray::push_back"),
            MethodClass::Atomic);
  EXPECT_EQ(cls_of("CircularList", "Dynarray::contains"),
            MethodClass::Atomic);
  EXPECT_EQ(cls_of("CircularList", "Dynarray::pop_back"),
            MethodClass::Atomic);
}

TEST_F(CollectionsDetect, HashedSetSizeBeforeRehashBug) {
  EXPECT_EQ(cls_of("HashedSet", "HashedSet::add"),
            MethodClass::PureNonAtomic);
  EXPECT_EQ(cls_of("HashedSet", "HashedSet::remove"), MethodClass::Atomic);
  EXPECT_EQ(cls_of("HashedSet", "HashedSet::ensure"),
            MethodClass::ConditionalNonAtomic);
  EXPECT_EQ(cls_of("HashedSet", "HashedSet::union_with"),
            MethodClass::PureNonAtomic);
  EXPECT_EQ(cls_of("HashedSet", "HashedSet::intersect"),
            MethodClass::PureNonAtomic);
}

TEST_F(CollectionsDetect, LLMapMoveToFrontGetIsNonAtomic) {
  // A *read* that reorders the chain before a fallible audit: the paper's
  // point that non-atomicity hides in unexpected places.
  EXPECT_EQ(cls_of("LLMap", "LLMap::get"), MethodClass::PureNonAtomic);
  EXPECT_EQ(cls_of("LLMap", "LLMap::get_or"), MethodClass::Atomic);
  EXPECT_EQ(cls_of("LLMap", "LLMap::put"), MethodClass::Atomic);
  EXPECT_EQ(cls_of("LLMap", "LLMap::remove"), MethodClass::Atomic);
}

TEST_F(CollectionsDetect, LinkedBufferDrainPatterns) {
  EXPECT_EQ(cls_of("LinkedBuffer", "LinkedBuffer::append"),
            MethodClass::PureNonAtomic);
  EXPECT_EQ(cls_of("LinkedBuffer", "LinkedBuffer::append_line"),
            MethodClass::ConditionalNonAtomic);
  EXPECT_EQ(cls_of("LinkedBuffer", "LinkedBuffer::append_chunk"),
            MethodClass::Atomic);
  EXPECT_EQ(cls_of("LinkedBuffer", "LinkedBuffer::consume"),
            MethodClass::PureNonAtomic);
  EXPECT_EQ(cls_of("LinkedBuffer", "LinkedBuffer::compact"),
            MethodClass::PureNonAtomic);
}

TEST_F(CollectionsDetect, RBTreeStructuralWork) {
  EXPECT_EQ(cls_of("RBTree", "RBTree::insert"), MethodClass::PureNonAtomic)
      << "size_ is bumped before the fallible validate()";
  EXPECT_EQ(cls_of("RBTree", "RBTree::remove"), MethodClass::PureNonAtomic)
      << "rebuild-from-traversal loses elements on mid-rebuild failure";
  EXPECT_EQ(cls_of("RBTree", "RBTree::ensure"),
            MethodClass::ConditionalNonAtomic);
  EXPECT_EQ(cls_of("RBTree", "RBTree::contains"), MethodClass::Atomic);
  EXPECT_EQ(cls_of("RBTree", "RBTree::validate"), MethodClass::Atomic);
  EXPECT_EQ(cls_of("RBTree", "RBTree::to_sorted_vector"),
            MethodClass::Atomic);
}

TEST_F(CollectionsDetect, RBMapMirrorsRBTree) {
  EXPECT_EQ(cls_of("RBMap", "RBMap::put"), MethodClass::PureNonAtomic);
  EXPECT_EQ(cls_of("RBMap", "RBMap::remove"), MethodClass::PureNonAtomic);
  EXPECT_EQ(cls_of("RBMap", "RBMap::put_if_absent"),
            MethodClass::ConditionalNonAtomic);
  EXPECT_EQ(cls_of("RBMap", "RBMap::get"), MethodClass::Atomic);
  EXPECT_EQ(cls_of("RBMap", "RBMap::min_key"), MethodClass::Atomic);
}

TEST_F(CollectionsDetect, RegexpCompileMutatesBeforeCheck) {
  detect::Experiment exp(subjects::apps::app("RegExp").program);
  auto cls = detect::classify(exp.run());
  EXPECT_EQ(cls.find("subjects::regexp::Regexp::compile")->cls,
            MethodClass::PureNonAtomic);
  EXPECT_EQ(cls.find("subjects::regexp::Regexp::matches")->cls,
            MethodClass::Atomic);
  EXPECT_EQ(cls.find("subjects::regexp::Regexp::count_matches")->cls,
            MethodClass::PureNonAtomic)
      << "scanning mutates the match state incrementally";
}

TEST_F(CollectionsDetect, DynarrayConditionalDelegation) {
  EXPECT_EQ(cls_of("Dynarray", "Dynarray::extend_with"),
            MethodClass::ConditionalNonAtomic);
  EXPECT_EQ(cls_of("Dynarray", "Dynarray::resize"),
            MethodClass::PureNonAtomic);
  EXPECT_EQ(cls_of("Dynarray", "Dynarray::grow"), MethodClass::Atomic);
  EXPECT_EQ(cls_of("Dynarray", "Dynarray::insert_at"), MethodClass::Atomic);
}

// Diff recording must not take the injection wrapper off the arena: every
// full checkpoint stays an arena slab, the oracle shadow still runs, and the
// decoded slabs render the same field-named diffs as graph-walk captures.
TEST_F(CollectionsDetect, LinkedListDiffsStayOnArenaUnderValidator) {
  const auto& program = subjects::apps::app("LinkedList").program;
  fatomic::Config cfg;
  cfg.record_diffs(true).validate_checkpoints(true);
  const detect::Campaign arena = detect::Experiment(program, cfg).run();
  fatomic::Config oracle_cfg;
  oracle_cfg.record_diffs(true).checkpoint_backend(
      fatomic::snapshot::BackendKind::Graph);
  const detect::Campaign oracle = detect::Experiment(program, oracle_cfg).run();

  EXPECT_GT(arena.stats.snapshots_taken, 0u);
  EXPECT_EQ(arena.stats.arena_checkpoints, arena.stats.snapshots_taken);
  EXPECT_EQ(arena.stats.validator_divergences, 0u);
  ASSERT_EQ(arena.runs.size(), oracle.runs.size());
  std::size_t diffs = 0;
  for (std::size_t r = 0; r < arena.runs.size(); ++r) {
    const auto& got = arena.runs[r].marks;
    const auto& want = oracle.runs[r].marks;
    ASSERT_EQ(got.size(), want.size()) << "run " << r;
    for (std::size_t m = 0; m < got.size(); ++m) {
      EXPECT_EQ(got[m].detail, want[m].detail) << "run " << r << " mark " << m;
      diffs += !got[m].detail.empty();
    }
  }
  EXPECT_GT(diffs, 0u) << "LinkedList has non-atomic marks to render";
}
