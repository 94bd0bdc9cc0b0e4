// Arena flat-buffer snapshots: the one checkpoint engine the wrappers run
// (backend.hpp).  Builder::take() (capture.hpp) stays as its test oracle.
//
// One preorder walk — the *same* deterministic walk as Builder, with the
// same alias keys — serializes the object graph into a contiguous byte slab
// instead of a node table.  Each node becomes one tagged record, emitted in
// Builder's allocation order, so record ordinals coincide with the NodeIds
// Builder would have assigned and decode() reconstructs a node table
// identical to Builder::take()'s, field names included.  Because captures
// of structurally equal graphs produce byte-identical slabs, graph equality
// is a single memcmp; only a byte mismatch needs the structural oracle
// (record types are encoded as pointers to static descriptors, so two
// *equal* graphs can in principle disagree on bytes, never the other way
// around — compare Checkpoint::equals).
//
// Record stream grammar (little-endian, in-process only — never persisted):
//   value   := prim | object | sequence | pointer | null | ref
//   prim    := 0x00 code payload            (code selects tag + payload size)
//   object  := 0x01 type:u64 count:u32 value*count
//   sequence:= 0x02 type:u64 count:u32 value*count
//   pointer := 0x03 owned:u8 value          (the pointee, possibly a ref)
//   null    := 0x04
//   ref     := 0x05 ordinal:u32             (back-reference; creates no node)
// `type` is the address of a static detail::RecordType: the type name plus,
// for reflected classes, the field names — one descriptor per type, so the
// names cost no slab bytes.  Source addresses (Node::src_addr, needed by the
// restorer's external-alias fixups) live in a side vector parallel to record
// ordinals — deliberately *outside* the slab, so address churn between runs
// never breaks memcmp.
//
// Slabs and address vectors are recycled through a per-weave::Runtime
// ArenaPool: steady-state captures perform no allocation beyond amortized
// vector growth, which is where the capture speedup over the node-table
// walk comes from (bench_backend gates it).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>
#include <string>
#include <type_traits>
#include <typeindex>
#include <utility>
#include <vector>

#include "fatomic/snapshot/capture.hpp"

namespace fatomic::snapshot {

class ArenaEncoder;
class ArenaPool;

namespace detail {

/// The arena's alias map: same key semantics as Builder's (address + type
/// tag, names compared by value) — required for the ordinal/NodeId
/// correspondence decode() relies on — but a different engine.  The alias
/// map is the hot loop of any capture, and Builder's unordered_map pays a
/// string hash on every find AND every emplace.  Here the hash covers the
/// address alone (same-address different-tag entries — an object and its
/// first member — just share a bucket chain; equality disambiguates), and
/// find + insert collapse into one open-addressing probe returning a slot
/// the caller fills in.  This map is most of the arena capture speedup.
class ArenaSeenMap {
 public:
  ArenaSeenMap() = default;

  /// Probes for (addr, name), claiming a slot on a miss.  The returned id
  /// is kInvalidNode for a newly claimed slot — the caller registers by
  /// writing the node id through the pointer *before* the next map call
  /// (growth invalidates slot pointers).
  NodeId* find_or_insert(const void* addr, const char* name) {
    if ((size_ + 1) * 4 >= slots_.size() * 3) grow();
    std::size_t i = index_of(addr);
    while (true) {
      Slot& s = slots_[i];
      if (s.gen != gen_) {
        s.addr = addr;
        s.name = name;
        s.id = kInvalidNode;
        s.gen = gen_;
        ++size_;
        return &s.id;
      }
      if (s.addr == addr &&
          (s.name == name || std::strcmp(s.name, name) == 0))
        return &s.id;
      i = (i + 1) & (slots_.size() - 1);
    }
  }

  /// O(1): bumping the generation invalidates every live slot.  A campaign
  /// reuses one map for thousands of captures whose sizes vary wildly; a
  /// memset-style clear would charge every small capture for the largest
  /// capture's capacity.
  void clear() {
    size_ = 0;
    if (++gen_ == 0) {  // wrapped: stamps from 2^32 captures ago are live again
      for (Slot& s : slots_) s.gen = 0;
      gen_ = 1;
    }
  }

  std::size_t size() const { return size_; }

 private:
  struct Slot {
    const void* addr = nullptr;
    const char* name = nullptr;
    NodeId id = kInvalidNode;
    std::uint32_t gen = 0;  ///< slot is live iff gen == map generation
  };

  std::size_t index_of(const void* addr) const {
    auto h = static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(addr));
    h ^= h >> 33;
    h *= 0x9E3779B97F4A7C15ull;  // golden-ratio mix, same family as AliasKeyHash
    h ^= h >> 29;
    return static_cast<std::size_t>(h) & (slots_.size() - 1);
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 64 : old.size() * 2, Slot{});
    for (const Slot& s : old) {
      if (s.gen != gen_) continue;
      std::size_t i = index_of(s.addr);
      while (slots_[i].gen == gen_) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;  ///< power-of-two capacity, linear probing
  std::size_t size_ = 0;
  std::uint32_t gen_ = 1;  ///< 0 is reserved for never-used slots
};

/// What an object/sequence record's type word points to.  Descriptor
/// identity implies equal names, so byte-equal slabs still imply equal
/// graphs.
struct RecordType {
  const char* name;
  const char* const* fields = nullptr;  ///< reflected classes: field names
  std::uint32_t field_count = 0;
};

inline constexpr RecordType kOptionalRecord{"std::optional"};
inline constexpr RecordType kTupleRecord{"std::tuple"};
inline constexpr RecordType kPairRecord{"std::pair"};
inline constexpr RecordType kSeqRecord{"seq"};
inline constexpr RecordType kMapRecord{"map"};

/// The static descriptor of reflected class T (its FAT_REFLECT entry).
template <class T>
struct ObjectRecord {
  static constexpr auto field_names = std::apply(
      [](const auto&... f) {
        return std::array<const char*, sizeof...(f)>{f.name...};
      },
      reflect::Reflect<T>::fields);
  static constexpr RecordType type{
      reflect::Reflect<T>::name, field_names.data(),
      static_cast<std::uint32_t>(field_names.size())};
};

enum ArenaRecord : std::uint8_t {
  kRecPrim = 0,
  kRecObject = 1,
  kRecSequence = 2,
  kRecPointer = 3,
  kRecNull = 4,
  kRecRef = 5,
};

enum ArenaPrimCode : std::uint8_t {
  kPrimBool = 0,
  kPrimChar = 1,
  kPrimEnum = 2,
  kPrimInt = 3,
  kPrimUint = 4,
  kPrimF32 = 5,
  kPrimF64 = 6,
  kPrimString = 7,
};

}  // namespace detail

/// Reusable capture scratch: free slabs, free address vectors and the alias
/// map, all retaining their capacity between captures.  Owned by
/// weave::Runtime (one per runtime — runtimes are per-thread, so no locks);
/// must outlive every ArenaSnapshot captured through it.
class ArenaPool {
 public:
  std::uint64_t captures = 0;     ///< arena captures served by this pool
  std::uint64_t slab_reuses = 0;  ///< captures that recycled a slab

  std::vector<std::byte> take_bytes() {
    if (free_bytes_.empty()) return {};
    std::vector<std::byte> out = std::move(free_bytes_.back());
    free_bytes_.pop_back();
    out.clear();
    ++slab_reuses;
    return out;
  }
  std::vector<const void*> take_addrs() {
    if (free_addrs_.empty()) return {};
    std::vector<const void*> out = std::move(free_addrs_.back());
    free_addrs_.pop_back();
    out.clear();
    return out;
  }
  void give_back(std::vector<std::byte>&& bytes,
                 std::vector<const void*>&& addrs) {
    free_bytes_.push_back(std::move(bytes));
    free_addrs_.push_back(std::move(addrs));
  }
  /// The shared alias map, cleared for a fresh capture (buckets retained).
  detail::ArenaSeenMap& seen_scratch() {
    seen_.clear();
    return seen_;
  }

 private:
  std::vector<std::vector<std::byte>> free_bytes_;
  std::vector<std::vector<const void*>> free_addrs_;
  detail::ArenaSeenMap seen_;
};

/// One arena capture: the record slab plus the src_addr side vector.
/// Move-only; returns its buffers to the owning pool on destruction.
class ArenaSnapshot {
 public:
  ArenaSnapshot() = default;
  ~ArenaSnapshot() { release(); }
  ArenaSnapshot(ArenaSnapshot&& o) noexcept
      : bytes_(std::move(o.bytes_)),
        addrs_(std::move(o.addrs_)),
        node_count_(o.node_count_),
        pool_(o.pool_) {
    o.bytes_.clear();
    o.addrs_.clear();
    o.node_count_ = 0;
    o.pool_ = nullptr;
  }
  ArenaSnapshot& operator=(ArenaSnapshot&& o) noexcept {
    if (this != &o) {
      release();
      bytes_ = std::move(o.bytes_);
      addrs_ = std::move(o.addrs_);
      node_count_ = o.node_count_;
      pool_ = o.pool_;
      o.bytes_.clear();
      o.addrs_.clear();
      o.node_count_ = 0;
      o.pool_ = nullptr;
    }
    return *this;
  }
  ArenaSnapshot(const ArenaSnapshot&) = delete;
  ArenaSnapshot& operator=(const ArenaSnapshot&) = delete;

  bool empty() const { return node_count_ == 0; }
  std::size_t node_count() const { return node_count_; }
  std::size_t byte_size() const { return bytes_.size(); }

  /// The fast path: byte equality of the slabs.  Sound in one direction
  /// only — identical bytes imply equal graphs; differing bytes need the
  /// structural oracle (see file comment).
  bool identical(const ArenaSnapshot& o) const {
    return bytes_.size() == o.bytes_.size() &&
           (bytes_.empty() ||
            std::memcmp(bytes_.data(), o.bytes_.data(), bytes_.size()) == 0);
  }

  /// Replays the record stream into a Snapshot node table identical to the
  /// one Builder::take() would have produced for the same live graph, field
  /// names included.  This is how checkpoints restore (decode + Restorer),
  /// how compare falls back, and what diffs and footprints render from.
  Snapshot decode() const;

 private:
  friend class ArenaEncoder;
  template <class T>
  friend ArenaSnapshot arena_capture(const T& root, ArenaPool* pool);

  void attach(ArenaPool& pool) {
    bytes_ = pool.take_bytes();
    addrs_ = pool.take_addrs();
    pool_ = &pool;
  }
  void release() {
    if (pool_ != nullptr) pool_->give_back(std::move(bytes_), std::move(addrs_));
    pool_ = nullptr;
    bytes_.clear();
    addrs_.clear();
    node_count_ = 0;
  }

  std::vector<std::byte> bytes_;
  std::vector<const void*> addrs_;  ///< src_addr per ordinal (not compared)
  std::uint32_t node_count_ = 0;
  ArenaPool* pool_ = nullptr;
};

/// The preorder serializer.  Mirrors Builder::capture_value branch for
/// branch — same alias keys, same registration points, same node creation
/// order — so ordinals match Builder's NodeIds.  Public surface
/// is encode_value/encode_object; the latter is the re-entry point for
/// polymorphic dispatch (PolyOps::encode).
class ArenaEncoder {
 public:
  ArenaEncoder(ArenaSnapshot& out, detail::ArenaSeenMap& seen)
      : out_(out), seen_(seen) {}

  template <class T>
  NodeId encode_value(const T& v, bool owned = false) {
    namespace tr = traits;
    if constexpr (tr::is_primitive_v<T>) {
      return encode_primitive(v);
    } else if constexpr (std::is_pointer_v<T>) {
      return encode_raw_pointer(v, owned);
    } else if constexpr (tr::is_unique_ptr<T>::value ||
                         tr::is_shared_ptr<T>::value) {
      return encode_smart(v.get());
    } else if constexpr (tr::is_rc_ptr<T>::value) {
      return encode_smart(v.get());
    } else if constexpr (tr::is_optional_v<T>) {
      NodeId* slot = seen_.find_or_insert(&v, detail::kOptionalRecord.name);
      if (*slot != kInvalidNode) return emit_ref(*slot);
      NodeId id = begin_composite(detail::kRecSequence,
                                  detail::kOptionalRecord, &v,
                                  v.has_value() ? 1u : 0u);
      *slot = id;  // before children: cycles resolve to this node
      if (v.has_value()) encode_value(*v);
      return id;
    } else if constexpr (tr::is_tuple_v<T>) {
      // Synthetic weave roots — no alias registration (capture.hpp).
      NodeId id = begin_composite(detail::kRecObject, detail::kTupleRecord,
                                  &v, std::tuple_size_v<T>);
      std::apply([&](const auto&... elems) { (encode_value(elems), ...); }, v);
      return id;
    } else if constexpr (tr::is_pair_v<T>) {
      NodeId* slot = seen_.find_or_insert(&v, detail::kPairRecord.name);
      if (*slot != kInvalidNode) return emit_ref(*slot);
      NodeId id =
          begin_composite(detail::kRecObject, detail::kPairRecord, &v, 2u);
      *slot = id;
      encode_value(v.first);
      encode_value(v.second);
      return id;
    } else if constexpr (std::is_same_v<T, std::vector<bool>>) {
      // Proxy addresses must not enter the alias map; anonymous bit nodes.
      NodeId* slot = seen_.find_or_insert(&v, detail::kSeqRecord.name);
      if (*slot != kInvalidNode) return emit_ref(*slot);
      NodeId id = begin_composite(detail::kRecSequence, detail::kSeqRecord,
                                  &v, v.size());
      *slot = id;
      for (std::size_t i = 0; i < v.size(); ++i) {
        new_node(nullptr);
        prim3(detail::kPrimBool, static_cast<bool>(v[i]) ? 1 : 0);
      }
      return id;
    } else if constexpr (tr::is_sequence_v<T> || tr::is_std_array_v<T> ||
                         tr::is_set_v<T>) {
      NodeId* slot = seen_.find_or_insert(&v, detail::kSeqRecord.name);
      if (*slot != kInvalidNode) return emit_ref(*slot);
      NodeId id = begin_composite(detail::kRecSequence, detail::kSeqRecord,
                                  &v, v.size());
      *slot = id;
      for (const auto& e : v) encode_value(e);
      return id;
    } else if constexpr (tr::is_map_v<T>) {
      NodeId* slot = seen_.find_or_insert(&v, detail::kMapRecord.name);
      if (*slot != kInvalidNode) return emit_ref(*slot);
      NodeId id = begin_composite(detail::kRecSequence, detail::kMapRecord,
                                  &v, v.size());
      *slot = id;
      for (const auto& kv : v) {
        // Entry pair nodes carry the entry address but are not registered —
        // mirrors Builder exactly.
        begin_composite(detail::kRecObject, detail::kPairRecord, &kv, 2u);
        encode_value(kv.first);
        encode_value(kv.second);
      }
      return id;
    } else if constexpr (reflect::is_reflected_v<T>) {
      return encode_object(v);
    } else {
      static_assert(detail::dependent_false<T>,
                    "type is not capturable: register it with FAT_REFLECT or "
                    "use a supported container/pointer/primitive type");
    }
  }

  template <reflect::Reflected T>
  NodeId encode_object(const T& v) {
    const detail::RecordType& type =
        detail::ObjectRecord<std::remove_cv_t<T>>::type;
    NodeId* slot = seen_.find_or_insert(&v, type.name);
    if (*slot != kInvalidNode) return emit_ref(*slot);
    NodeId id = begin_composite(detail::kRecObject, type, &v,
                                reflect::field_count<T>());
    *slot = id;  // before children: cycles resolve to this node
    reflect::for_each_field<T>(
        [&](const auto& f) { encode_value(v.*(f.member), f.owned); });
    return id;
  }

 private:
  template <class T>
  NodeId encode_primitive(const T& v) {
    const char* tag = detail::prim_tag<T>();
    NodeId* slot = seen_.find_or_insert(&v, tag);
    if (*slot != kInvalidNode) return emit_ref(*slot);
    NodeId id = new_node(&v);
    *slot = id;
    if constexpr (std::is_same_v<T, bool>) {
      prim3(detail::kPrimBool, v ? 1 : 0);
    } else if constexpr (std::is_same_v<T, char>) {
      prim3(detail::kPrimChar, static_cast<std::uint8_t>(v));
    } else if constexpr (std::is_enum_v<T>) {
      prim64(detail::kPrimEnum,
             static_cast<std::uint64_t>(static_cast<std::int64_t>(
                 static_cast<std::underlying_type_t<T>>(v))));
    } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
      prim64(detail::kPrimInt,
             static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
    } else if constexpr (std::is_integral_v<T>) {
      prim64(detail::kPrimUint, static_cast<std::uint64_t>(v));
    } else if constexpr (std::is_same_v<T, float>) {
      std::byte buf[6];
      buf[0] = std::byte{detail::kRecPrim};
      buf[1] = std::byte{detail::kPrimF32};
      const std::uint32_t bits = std::bit_cast<std::uint32_t>(v);
      std::memcpy(buf + 2, &bits, 4);
      append(buf, sizeof buf);
    } else if constexpr (std::is_floating_point_v<T>) {
      prim64(detail::kPrimF64,
             std::bit_cast<std::uint64_t>(static_cast<double>(v)));
    } else {
      static_assert(std::is_same_v<T, std::string>);
      std::byte buf[6];
      buf[0] = std::byte{detail::kRecPrim};
      buf[1] = std::byte{detail::kPrimString};
      const std::uint32_t len = static_cast<std::uint32_t>(v.size());
      std::memcpy(buf + 2, &len, 4);
      append(buf, sizeof buf);
      append(v.data(), v.size());
    }
    return id;
  }

  template <class U>
  NodeId encode_raw_pointer(U* p, bool owned) {
    if (p == nullptr) return emit_null();
    NodeId id = new_node(nullptr);
    const std::byte buf[2] = {std::byte{detail::kRecPointer},
                              std::byte{owned ? std::uint8_t{1} : std::uint8_t{0}}};
    append(buf, sizeof buf);
    encode_pointee(const_cast<const U*>(p));
    return id;
  }

  template <class U>
  NodeId encode_smart(const U* p) {
    if (p == nullptr) return emit_null();
    NodeId id = new_node(nullptr);
    const std::byte buf[2] = {std::byte{detail::kRecPointer}, std::byte{1}};
    append(buf, sizeof buf);
    encode_pointee(p);
    return id;
  }

  template <class U>
  NodeId encode_pointee(const U* p) {
    if constexpr (std::is_polymorphic_v<U>) {
      const PolyOps* ops = PolyRegistry::instance().find(typeid(U), typeid(*p));
      if (ops != nullptr) {
        const void* mda = dynamic_cast<const void*>(p);
        // encode_object re-probes the same key (most-derived address,
        // Reflect<Derived>::name == ops->class_name) and fills the slot this
        // probe claimed — a claimed-but-unfilled slot reads as unseen.
        NodeId* slot = seen_.find_or_insert(mda, ops->class_name);
        if (*slot != kInvalidNode) return emit_ref(*slot);
        return ops->encode(static_cast<const void*>(p), *this);
      }
      if constexpr (reflect::is_reflected_v<U>) {
        return encode_object(*p);  // sliced capture, same caveat as Builder
      } else {
        throw SnapshotError(std::string("unregistered polymorphic pointee: ") +
                            typeid(*p).name());
      }
    } else {
      return encode_value(*p);
    }
  }

  NodeId new_node(const void* addr) {
    out_.addrs_.push_back(addr);
    return out_.node_count_++;
  }
  NodeId emit_ref(NodeId target) {
    std::byte buf[5];
    buf[0] = std::byte{detail::kRecRef};
    std::memcpy(buf + 1, &target, 4);
    append(buf, sizeof buf);
    return target;
  }
  NodeId emit_null() {
    NodeId id = new_node(nullptr);
    u8(detail::kRecNull);
    return id;
  }
  NodeId begin_composite(std::uint8_t record, const detail::RecordType& type,
                         const void* addr, std::size_t count) {
    NodeId id = new_node(addr);
    std::byte buf[13];
    buf[0] = std::byte{record};
    const std::uint64_t word =
        static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(&type));
    std::memcpy(buf + 1, &word, 8);
    const std::uint32_t n = static_cast<std::uint32_t>(count);
    std::memcpy(buf + 9, &n, 4);
    append(buf, sizeof buf);
    return id;
  }

  // One append per record where possible — per-field push_backs cost a
  // growth check each, and record emission is the inner loop.
  void prim3(std::uint8_t code, std::uint8_t payload) {
    const std::byte buf[3] = {std::byte{detail::kRecPrim}, std::byte{code},
                              std::byte{payload}};
    append(buf, sizeof buf);
  }
  void prim64(std::uint8_t code, std::uint64_t payload) {
    std::byte buf[10];
    buf[0] = std::byte{detail::kRecPrim};
    buf[1] = std::byte{code};
    std::memcpy(buf + 2, &payload, 8);
    append(buf, sizeof buf);
  }
  void u8(std::uint8_t b) { out_.bytes_.push_back(std::byte{b}); }
  void append(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::byte*>(p);
    out_.bytes_.insert(out_.bytes_.end(), b, b + n);
  }

  ArenaSnapshot& out_;
  detail::ArenaSeenMap& seen_;
};

/// Captures the object graph rooted at `root` into an arena snapshot.  With
/// a pool, slab/address buffers and the alias map are recycled; without one
/// (tests, ad-hoc callers) the capture owns fresh buffers.
template <class T>
ArenaSnapshot arena_capture(const T& root, ArenaPool* pool) {
  ArenaSnapshot out;
  detail::ArenaSeenMap local;
  detail::ArenaSeenMap* seen = &local;
  if (pool != nullptr) {
    out.attach(*pool);
    seen = &pool->seen_scratch();
    ++pool->captures;
  }
  ArenaEncoder e(out, *seen);
  e.encode_value(root, /*owned=*/false);
  return out;
}

template <class T>
ArenaSnapshot arena_capture(const T& root) {
  return arena_capture(root, static_cast<ArenaPool*>(nullptr));
}

}  // namespace fatomic::snapshot
