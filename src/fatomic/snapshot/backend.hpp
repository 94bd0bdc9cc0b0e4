// The checkpoint the weave wrappers capture, compare and restore through:
// the paper's deep_copy/compare/replace triple (Listings 1-2).  The runtime
// always checkpoints with the arena slab (arena.hpp).  The node-table graph
// walk (capture.hpp) is kept only as the independent oracle: the
// --validate-checkpoints shadow, the snapshot property and parity tests, and
// campaigns explicitly configured with BackendKind::Graph (the CLI's
// --cross-check parity gate, bench_backend, the benchmark's reference run).
#pragma once

#include <cstdint>
#include <variant>

#include "fatomic/snapshot/arena.hpp"
#include "fatomic/snapshot/restore.hpp"

namespace fatomic::snapshot {

enum class BackendKind : std::uint8_t {
  Graph,  ///< the oracle: node-table walk + structural compare (capture.hpp)
  Arena,  ///< the engine: flat-buffer slab + memcmp compare (arena.hpp)
};

inline const char* to_string(BackendKind k) {
  return k == BackendKind::Arena ? "arena" : "graph";
}

/// What every checkpoint outside an oracle campaign uses.
constexpr BackendKind default_backend() { return BackendKind::Arena; }

/// One full checkpoint — the object the wrappers hold between "before" and
/// "after" (Listing 1) or across a masked call (Listing 2).  Movable, not
/// copyable (arena slabs are pool-owned).
class Checkpoint {
 public:
  Checkpoint() = default;

  template <class T>
  static Checkpoint take(const T& root, BackendKind kind,
                         ArenaPool* pool = nullptr) {
    Checkpoint c;
    if (kind == BackendKind::Arena)
      c.rep_.emplace<ArenaSnapshot>(arena_capture(root, pool));
    else
      c.rep_.emplace<Snapshot>(Builder::take(root));
    return c;
  }

  bool valid() const { return rep_.index() != 0; }
  BackendKind backend() const {
    return std::holds_alternative<ArenaSnapshot>(rep_) ? BackendKind::Arena
                                                       : BackendKind::Graph;
  }

  /// Captured node count — the unit charged to stats.checkpoint_units.
  std::size_t units() const;

  /// Arena slab size in bytes; 0 for a graph (oracle) checkpoint.
  std::size_t bytes() const;

  /// Graph equality (the paper's compare).  Arena/arena pairs decide by one
  /// memcmp over the slabs and fall back to a structural compare of the
  /// decoded tables only on byte mismatch — byte-equal slabs imply equal
  /// graphs, the converse does not hold (encoded record-type pointers may
  /// differ between equal graphs).  `used_memcmp`, when non-null, reports
  /// whether the fast path was conclusive (feeds stats.memcmp_compares /
  /// stats.compare_fallbacks).
  bool equals(const Checkpoint& other, bool* used_memcmp = nullptr) const;

  /// Rolls `root` back to this checkpoint (the paper's replace).  The arena
  /// stream restores by decoding to a node table and replaying it through
  /// the Restorer.
  template <class T>
  void restore_to(T& root) const {
    if (const auto* s = std::get_if<Snapshot>(&rep_)) {
      Restorer::apply(root, *s);
    } else if (const auto* a = std::get_if<ArenaSnapshot>(&rep_)) {
      const Snapshot decoded = a->decode();
      Restorer::apply(root, decoded);
    } else {
      throw SnapshotError("restore from an empty checkpoint");
    }
  }

  /// The node-table view of this checkpoint (decoding when arena-backed) —
  /// the diagnostic path: diffs, footprints, the shadow validator.
  Snapshot graph() const;

 private:
  std::variant<std::monostate, Snapshot, ArenaSnapshot> rep_;
};

}  // namespace fatomic::snapshot
