// Checkpoint parity: the arena engine must agree with its graph-walk oracle
// on every shape the snapshot layer supports — aliases, cycles,
// polymorphism, sliced fallback — and both must detect the same structural
// mutations.  Also hosts the snapshot-layer regression tests for
// the alias-key hash, bitwise float identity and restore exception safety.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <unordered_map>
#include <vector>

#include "fatomic/config.hpp"
#include "fatomic/detect/campaign.hpp"
#include "fatomic/report/json.hpp"
#include "fatomic/snapshot/arena.hpp"
#include "fatomic/snapshot/backend.hpp"
#include "fatomic/snapshot/capture.hpp"
#include "fatomic/snapshot/restore.hpp"
#include "testing/types.hpp"

namespace snap = fatomic::snapshot;
using namespace testing_types;

FAT_POLY(Shape, Circle);
FAT_POLY(Shape, Rect);

namespace {

/// Both backends must produce the same logical graph: the decoded arena
/// table equals the graph capture, node for node — field names included,
/// which Node equality ignores but diffs and footprints render.
template <class T>
void expect_parity(const T& value) {
  snap::Snapshot graph = snap::capture(value);
  snap::ArenaSnapshot arena = snap::arena_capture(value);
  ASSERT_EQ(graph.node_count(), arena.node_count());
  const snap::Snapshot decoded = arena.decode();
  EXPECT_TRUE(graph.equals(decoded))
      << "decoded arena table diverges from the graph capture";
  for (std::size_t id = 0; id < graph.node_count(); ++id) {
    const auto& want = graph.node(static_cast<snap::NodeId>(id)).child_names;
    const auto& got = decoded.node(static_cast<snap::NodeId>(id)).child_names;
    ASSERT_EQ(got.size(), want.size()) << "node " << id;
    for (std::size_t i = 0; i < want.size(); ++i)
      EXPECT_STREQ(got[i], want[i]) << "node " << id << " field " << i;
  }

  // Checkpoint-level mixed compare takes the same decode path.
  auto g = snap::Checkpoint::take(value, snap::BackendKind::Graph);
  auto a = snap::Checkpoint::take(value, snap::BackendKind::Arena);
  EXPECT_TRUE(g.equals(a));
  EXPECT_TRUE(a.equals(g));
}

/// Mutations must flip the verdict of BOTH backends, and restoring from the
/// arena checkpoint must bring the graph verdict back to equal.
template <class T, class Mutate>
void expect_mutation_detected(T& value, Mutate&& mutate) {
  auto g = snap::Checkpoint::take(value, snap::BackendKind::Graph);
  auto a = snap::Checkpoint::take(value, snap::BackendKind::Arena);
  mutate(value);
  EXPECT_FALSE(g.equals(snap::Checkpoint::take(value, snap::BackendKind::Graph)));
  EXPECT_FALSE(a.equals(snap::Checkpoint::take(value, snap::BackendKind::Arena)));
  a.restore_to(value);
  EXPECT_TRUE(g.equals(snap::Checkpoint::take(value, snap::BackendKind::Graph)))
      << "arena restore must reproduce the checkpointed graph";
}

}  // namespace

// ---------------------------------------------------------------------------
// Parity: aliases, cycles, polymorphism.

TEST(BackendParity, PrimitivesAndContainers) {
  Nested n;
  n.inner = {7, 2.5, true, "abc"};
  n.values = {1, 2, 3};
  n.table = {{"k", 1}, {"z", 2}};
  n.opt = 42;
  expect_parity(n);
  expect_mutation_detected(n, [](Nested& v) { v.table["k"] = 9; });
  EXPECT_EQ(n.table["k"], 1);
}

TEST(BackendParity, RawPointerAliases) {
  AliasPair ap;
  ap.owner = std::make_unique<Plain>(Plain{1, 1.0, false, "p"});
  ap.alias = ap.owner.get();
  expect_parity(ap);
  expect_mutation_detected(ap, [](AliasPair& v) { v.owner->i = 99; });
  EXPECT_EQ(ap.alias->i, 1);
}

TEST(BackendParity, OwnedPointerCycle) {
  Ring ring;
  ring.insert(1);
  ring.insert(2);
  ring.insert(3);
  expect_parity(ring);
  expect_mutation_detected(ring, [](Ring& v) { v.entry->value = -1; });
}

TEST(BackendParity, RcPtrSharingAndCycles) {
  RcList list;
  list.push_front(1);
  list.push_front(2);
  expect_parity(list);

  // Close the list into a cycle: head -> a -> b -> head.
  auto tail = list.head->next;
  tail->next = list.head;
  expect_parity(list);
  expect_mutation_detected(list, [](RcList& v) { v.head->value = 7; });
  // restore_to rebuilt the ring out of fresh nodes; break both the old ring
  // (still pinned by `tail`) and the restored one so refcounts reach zero.
  tail->next.reset();
  list.head->next->next.reset();
}

TEST(BackendParity, SharedPtrDiamond) {
  SharedDiamond d;
  d.left = std::make_shared<Plain>(Plain{3, 0.5, true, "shared"});
  d.right = d.left;
  expect_parity(d);
  expect_mutation_detected(d, [](SharedDiamond& v) { v.right->s = "bent"; });
  EXPECT_EQ(d.left->s, "shared");
}

TEST(BackendParity, RegisteredPolymorphicPointees) {
  Drawing dr;
  dr.title = "scene";
  auto c = std::make_unique<Circle>();
  c->id = 1;
  c->radius = 2.0;
  auto r = std::make_unique<Rect>();
  r->id = 2;
  r->w = 3.0;
  r->h = 4.0;
  dr.shapes.push_back(std::move(c));
  dr.shapes.push_back(std::move(r));
  expect_parity(dr);
  expect_mutation_detected(dr, [](Drawing& v) {
    static_cast<Circle*>(v.shapes[0].get())->radius = 9.0;
  });
}

namespace fallback_types {

/// Reflected base with a derived type that is deliberately NOT registered
/// with FAT_POLY: both backends must take the sliced-capture fallback.
struct Creature {
  virtual ~Creature() = default;
  int legs = 0;
};
struct Spider : Creature {
  bool venomous = false;
};
struct Zoo {
  std::unique_ptr<Creature> star;
};

}  // namespace fallback_types

FAT_REFLECT(fallback_types::Creature,
            FAT_FIELD(fallback_types::Creature, legs));
FAT_REFLECT(fallback_types::Spider, FAT_FIELD(fallback_types::Spider, legs),
            FAT_FIELD(fallback_types::Spider, venomous));
FAT_REFLECT(fallback_types::Zoo, FAT_FIELD(fallback_types::Zoo, star));

TEST(BackendParity, UnregisteredPolymorphicSlicedFallback) {
  fallback_types::Zoo zoo;
  auto s = std::make_unique<fallback_types::Spider>();
  s->legs = 8;
  s->venomous = true;
  zoo.star = std::move(s);
  expect_parity(zoo);

  // The slice only sees Creature::legs, on both backends alike.
  snap::ArenaSnapshot a = snap::arena_capture(zoo);
  static_cast<fallback_types::Spider*>(zoo.star.get())->venomous = false;
  EXPECT_TRUE(a.decode().equals(snap::capture(zoo)))
      << "derived-only state must be invisible to the sliced capture";
  zoo.star->legs = 6;
  EXPECT_FALSE(a.decode().equals(snap::capture(zoo)));
}

// ---------------------------------------------------------------------------
// The memcmp fast path and its structural fallback.

TEST(ArenaCompare, MemcmpDecidesEqualAndSizeMismatch) {
  Nested n;
  n.values = {1, 2, 3};
  n.inner.s = "steady";
  auto a = snap::Checkpoint::take(n, snap::BackendKind::Arena);
  auto b = snap::Checkpoint::take(n, snap::BackendKind::Arena);

  bool used_memcmp = false;
  EXPECT_TRUE(a.equals(b, &used_memcmp));
  EXPECT_TRUE(used_memcmp) << "byte-identical slabs must not decode";

  n.inner.s = "longer than before";  // string payload changes the slab size
  auto c = snap::Checkpoint::take(n, snap::BackendKind::Arena);
  used_memcmp = false;
  EXPECT_FALSE(a.equals(c, &used_memcmp));
  EXPECT_TRUE(used_memcmp) << "slab length mismatch is conclusive";
}

TEST(ArenaCompare, SameSizeMismatchFallsBackStructurally) {
  Plain p{1, 2.0, true, "x"};
  auto a = snap::Checkpoint::take(p, snap::BackendKind::Arena);
  p.i = 2;  // same slab length, different bytes
  auto b = snap::Checkpoint::take(p, snap::BackendKind::Arena);

  bool used_memcmp = true;
  EXPECT_FALSE(a.equals(b, &used_memcmp));
  EXPECT_FALSE(used_memcmp)
      << "same-length byte mismatch must consult the structural oracle";
}

TEST(ArenaPool, SlabsAreRecycledAcrossCaptures) {
  snap::ArenaPool pool;
  Plain p{5, 1.5, false, "pooled"};
  {
    snap::ArenaSnapshot first = snap::arena_capture(p, &pool);
    EXPECT_GT(first.byte_size(), 0u);
  }  // destructor returns the slab to the pool
  { snap::ArenaSnapshot second = snap::arena_capture(p, &pool); }
  EXPECT_EQ(pool.captures, 2u);
  EXPECT_GE(pool.slab_reuses, 1u);
}

// ---------------------------------------------------------------------------
// Satellite regressions.

TEST(AliasKeyRegression, BuilderMapKeepsSameAddressDifferentTagDistinct) {
  // An object and its first member share an address and differ only in the
  // type tag; the alias key must keep them distinct.
  using snap::detail::AliasKey;
  using snap::detail::AliasKeyHash;
  std::unordered_map<AliasKey, snap::NodeId, AliasKeyHash> map;
  const void* addr = &map;
  map.emplace(AliasKey{addr, "Outer"}, snap::NodeId{0});
  map.emplace(AliasKey{addr, "Inner"}, snap::NodeId{1});
  ASSERT_EQ(map.size(), 2u);
  EXPECT_EQ(map.at(AliasKey{addr, "Outer"}), snap::NodeId{0});
  EXPECT_EQ(map.at(AliasKey{addr, "Inner"}), snap::NodeId{1});
}

TEST(AliasKeyRegression, ArenaMapKeepsSameAddressDifferentTagDistinct) {
  // The arena's open-addressing map hashes the address alone; equality must
  // still split same-address entries by tag, including growth rehashing.
  snap::detail::ArenaSeenMap map;
  const int probe = 0;
  const void* addr = &probe;
  snap::NodeId* outer = map.find_or_insert(addr, "Outer");
  ASSERT_EQ(*outer, snap::kInvalidNode);
  *outer = 0;
  snap::NodeId* inner = map.find_or_insert(addr, "Inner");
  ASSERT_EQ(*inner, snap::kInvalidNode) << "tag must disambiguate";
  *inner = 1;
  // Force several growth cycles, then re-probe the original keys.
  std::vector<int> filler(500);
  for (int& f : filler) {
    snap::NodeId* s = map.find_or_insert(&f, "int");
    *s = 2;
  }
  EXPECT_EQ(*map.find_or_insert(addr, "Outer"), 0u);
  EXPECT_EQ(*map.find_or_insert(addr, "Inner"), 1u);
  EXPECT_EQ(map.size(), 502u);
}

namespace first_member_types {

struct Inner {
  int x = 0;
};
struct Outer {
  Inner inner;  // &Outer == &Outer.inner: alias keys differ only by tag
  int y = 0;
};

}  // namespace first_member_types

FAT_REFLECT(first_member_types::Inner,
            FAT_FIELD(first_member_types::Inner, x));
FAT_REFLECT(first_member_types::Outer,
            FAT_FIELD(first_member_types::Outer, inner),
            FAT_FIELD(first_member_types::Outer, y));

TEST(AliasKeyRegression, FirstMemberSharesAddressWithOwner) {
  first_member_types::Outer o;
  o.inner.x = 1;
  o.y = 2;
  snap::Snapshot s = snap::capture(o);
  // Outer + inner + two primitives; a conflated alias map would collapse the
  // inner object into a self-reference.
  EXPECT_EQ(s.node_count(), 4u);
  expect_parity(o);
  expect_mutation_detected(o, [](first_member_types::Outer& v) {
    v.inner.x = -1;
  });
}

TEST(BitwiseFloats, NanIsStableStateOnBothBackends) {
  Plain p{0, std::numeric_limits<double>::quiet_NaN(), false, ""};
  // NaN != NaN as a value, but as *state* an unchanged NaN must compare
  // equal — otherwise every injection through a NaN field reads non-atomic.
  expect_parity(p);
  snap::Snapshot g = snap::capture(p);
  EXPECT_TRUE(g.equals(snap::capture(p)));
  snap::ArenaSnapshot a = snap::arena_capture(p);
  EXPECT_TRUE(a.identical(snap::arena_capture(p)));
}

TEST(BitwiseFloats, SignedZeroAndDenormalsDistinguished) {
  Plain pos{0, 0.0, false, ""};
  Plain neg{0, -0.0, false, ""};
  // 0.0 == -0.0 as values; as bit-state they differ on both backends.
  EXPECT_FALSE(snap::capture(pos).equals(snap::capture(neg)));
  EXPECT_FALSE(snap::Checkpoint::take(pos, snap::BackendKind::Arena)
                   .equals(snap::Checkpoint::take(neg, snap::BackendKind::Arena)));

  Plain denorm{0, std::numeric_limits<double>::denorm_min(), false, ""};
  EXPECT_FALSE(snap::capture(pos).equals(snap::capture(denorm)));
}

TEST(BitwiseFloats, NanRoundTripsThroughRestore) {
  Plain p{1, -0.0, false, "nan"};
  snap::Snapshot before = snap::capture(p);
  p.d = 3.25;
  snap::restore(p, before);
  EXPECT_TRUE(std::signbit(p.d));
  EXPECT_EQ(p.d, 0.0);

  p.d = std::numeric_limits<double>::quiet_NaN();
  snap::Snapshot nan_state = snap::capture(p);
  p.d = 0.0;
  snap::restore(p, nan_state);
  EXPECT_TRUE(std::isnan(p.d));
}

namespace fragile_types {

/// Allocator that can be armed to fail: models rollback hitting OOM.
template <class T>
struct ThrowingAlloc {
  using value_type = T;
  static inline bool armed = false;
  ThrowingAlloc() = default;
  template <class U>
  ThrowingAlloc(const ThrowingAlloc<U>&) {}
  T* allocate(std::size_t n) {
    if (armed) throw std::bad_alloc();
    return std::allocator<T>{}.allocate(n);
  }
  void deallocate(T* p, std::size_t n) {
    std::allocator<T>{}.deallocate(p, n);
  }
  friend bool operator==(const ThrowingAlloc&, const ThrowingAlloc&) {
    return true;
  }
};

struct Fragile {
  std::vector<int, ThrowingAlloc<int>> values;
};

}  // namespace fragile_types

FAT_REFLECT(fragile_types::Fragile,
            FAT_FIELD(fragile_types::Fragile, values));

TEST(RestoreSafety, MidReplayAllocationFailureRaisesRestoreError) {
  fragile_types::Fragile f;
  f.values = {1, 2, 3};
  snap::Snapshot before = snap::capture(f);
  f.values.clear();
  f.values.shrink_to_fit();  // force restore to reallocate

  fragile_types::ThrowingAlloc<int>::armed = true;
  EXPECT_THROW(snap::restore(f, before), fatomic::RestoreError);
  fragile_types::ThrowingAlloc<int>::armed = false;

  // Once allocation works again the same snapshot must restore cleanly.
  snap::restore(f, before);
  EXPECT_EQ(f.values.size(), 3u);
  EXPECT_TRUE(before.equals(snap::capture(f)));
}

TEST(RestoreSafety, RestoreErrorIsDistinctFromSnapshotError) {
  // Callers need to tell "rollback failed, state suspect" apart from
  // ordinary capture errors; the type hierarchy carries that distinction.
  static_assert(std::is_base_of_v<fatomic::SnapshotError, fatomic::RestoreError>);
  static_assert(std::is_base_of_v<fatomic::FatomicError, fatomic::RestoreError>);
  try {
    throw fatomic::RestoreError("boom");
  } catch (const fatomic::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
}

TEST(CampaignJson, StatsCarryArenaAndRestoreCounters) {
  fatomic::detect::Campaign campaign;
  campaign.stats.arena_checkpoints = 4;
  campaign.stats.restore_errors = 1;
  const std::string json = fatomic::report::campaign_json(campaign);
  EXPECT_NE(json.find("\"arena_checkpoints\":4"), std::string::npos);
  EXPECT_NE(json.find("\"arena_bytes\":"), std::string::npos);
  EXPECT_NE(json.find("\"memcmp_compares\":"), std::string::npos);
  EXPECT_NE(json.find("\"compare_fallbacks\":"), std::string::npos);
  EXPECT_NE(json.find("\"restore_errors\":1"), std::string::npos);
}

TEST(BackendConfig, ParseAndPrintRoundTrip) {
  EXPECT_STREQ(snap::to_string(snap::BackendKind::Arena), "arena");
  EXPECT_STREQ(snap::to_string(snap::BackendKind::Graph), "graph");
  // The arena is the engine; the graph walk is only ever asked for.
  EXPECT_EQ(snap::default_backend(), snap::BackendKind::Arena);
  EXPECT_EQ(fatomic::Config{}.checkpoint_backend(), snap::BackendKind::Arena);
}
