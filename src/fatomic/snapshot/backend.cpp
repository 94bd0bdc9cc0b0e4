#include "fatomic/snapshot/backend.hpp"

namespace fatomic::snapshot {

std::size_t Checkpoint::units() const {
  if (const auto* s = std::get_if<Snapshot>(&rep_)) return s->node_count();
  if (const auto* a = std::get_if<ArenaSnapshot>(&rep_)) return a->node_count();
  return 0;
}

std::size_t Checkpoint::bytes() const {
  if (const auto* a = std::get_if<ArenaSnapshot>(&rep_)) return a->byte_size();
  return 0;
}

bool Checkpoint::equals(const Checkpoint& other, bool* used_memcmp) const {
  if (used_memcmp != nullptr) *used_memcmp = false;
  const auto* a1 = std::get_if<ArenaSnapshot>(&rep_);
  const auto* a2 = std::get_if<ArenaSnapshot>(&other.rep_);
  if (a1 != nullptr && a2 != nullptr) {
    if (a1->identical(*a2)) {
      if (used_memcmp != nullptr) *used_memcmp = true;
      return true;
    }
    // Slab length is fully determined by the decoded table (record sizes
    // depend only on kinds, counts and values), so a length mismatch is
    // already conclusive; equal-length mismatches may still be equal graphs
    // whose record-type pointers differ — ask the structural oracle.
    if (a1->byte_size() != a2->byte_size()) {
      if (used_memcmp != nullptr) *used_memcmp = true;
      return false;
    }
    return a1->decode().equals(a2->decode());
  }
  const auto* s1 = std::get_if<Snapshot>(&rep_);
  const auto* s2 = std::get_if<Snapshot>(&other.rep_);
  if (s1 != nullptr && s2 != nullptr) return s1->equals(*s2);
  // Engine vs oracle (validator cross-checks): compare node tables.
  if (s1 != nullptr && a2 != nullptr) return s1->equals(a2->decode());
  if (a1 != nullptr && s2 != nullptr) return a1->decode().equals(*s2);
  // At least one side is empty: equal only if both are.
  return !valid() && !other.valid();
}

Snapshot Checkpoint::graph() const {
  if (const auto* s = std::get_if<Snapshot>(&rep_)) return *s;
  if (const auto* a = std::get_if<ArenaSnapshot>(&rep_)) return a->decode();
  return Snapshot{};
}

}  // namespace fatomic::snapshot
