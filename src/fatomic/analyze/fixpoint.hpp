// The one fixpoint solver of the static analyzer (DESIGN.md §7).  Effect
// summaries, write-set reach, both exception-flow passes and return aliases
// each solve `v[n] = v[n] ⊔ transfer(n, v)` over a join semilattice with
// it; a pass supplies only the transfer and the join.  The solver joins
// every new value into the current one, so values only grow and, the
// lattices being finite for a finite source tree, every solve terminates on
// any input without a round cap.  It re-runs exactly the nodes whose
// transfers read (through `read`) a value that grew, and it runs pending
// nodes callee-first.  When the queue runs dry, each node's last evaluation
// read final values, so a pass may keep what that evaluation computed.
#pragma once

#include <cstddef>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fatomic/analyze/body.hpp"

namespace fatomic::analyze {

/// calls[n]: the nodes n's transfer is likely to read.  It only orders the
/// queue; dependencies always come from `Fixpoint::read`.
using CallHint = std::vector<std::vector<std::size_t>>;

/// Post-order rank of every node (iterative DFS from node 0 up): a node
/// ranks after all it reaches, except along recursion's back edges.
std::vector<std::size_t> callee_first(const CallHint& calls);

template <class V>
class Fixpoint {
 public:
  /// One node per seed, the value its solve starts from.
  explicit Fixpoint(std::vector<V> seeds)
      : values_(std::move(seeds)), readers_(values_.size()) {}

  /// Node m's value; inside a transfer, also a dependency on m.
  const V& read(std::size_t m) {
    if (current_ == kNone) return values_[m];
    std::vector<std::size_t>& r = readers_[m];
    if (r.empty() || r.back() != current_) r.push_back(current_);
    if (probe_ != nullptr) (*probe_)[current_].push_back(m);
    return values_[m];
  }

  /// Joins `transfer(n)` into node n with `join(V& into, const V& from)`
  /// until no value grows, pending nodes in callee-first order of `calls`.
  template <class Transfer, class Join>
  void solve(const CallHint& calls, Transfer&& transfer, Join&& join) {
    const std::vector<std::size_t> rank = callee_first(calls);
    std::set<std::pair<std::size_t, std::size_t>> queue;  // (rank, node)
    for (std::size_t n = 0; n < rank.size(); ++n) queue.emplace(rank[n], n);
    while (!queue.empty()) {
      const std::size_t n = queue.begin()->second;
      queue.erase(queue.begin());
      current_ = n;
      const V next = transfer(n);
      current_ = kNone;
      V joined = values_[n];
      join(joined, next);
      if (joined == values_[n]) continue;
      values_[n] = std::move(joined);
      for (std::size_t r : readers_[n]) queue.emplace(rank[r], r);
    }
  }

  /// Same, for cheap transfers: the call hint is what each transfer reads
  /// in one probe evaluation against the seeds, whose result is dropped.
  template <class Transfer, class Join>
  void solve(Transfer&& transfer, Join&& join) {
    CallHint calls(values_.size());
    probe_ = &calls;
    for (current_ = 0; current_ < values_.size(); ++current_)
      transfer(current_);
    probe_ = nullptr;
    current_ = kNone;
    solve(calls, transfer, join);
  }

  std::vector<V> take() { return std::move(values_); }

 private:
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  std::vector<V> values_;
  std::vector<std::vector<std::size_t>> readers_;  ///< readers_[m] read m
  std::size_t current_ = kNone;
  CallHint* probe_ = nullptr;  ///< collects the reads of a probe
};

/// The nodes of a SummaryTable: one per definition key ("Class::name", or
/// "name" for a free function; definitions sharing a key join into it), then
/// one per simple name.  The call hint of a key is the names its bodies
/// call; that of a name, its keys.
struct SummaryNodes {
  explicit SummaryNodes(const std::vector<IndexedDef>& defs);

  std::map<std::string, std::size_t> key, name;
  std::size_t keys = 0;  ///< key nodes are [0, keys)
  /// A key node's definition indices; a name node's key nodes.
  std::vector<std::vector<std::size_t>> parts;
  CallHint calls;
};

/// Summaries of the scanned definitions, looked up as the body passes
/// resolve a call: by key, or by simple name — the join over every
/// definition with that name, the sound answer when the receiver is
/// unknown.  Both are Fixpoint nodes, so a call resolved by name runs again
/// only when a definition of that name grows.  Passes 1 and 5 solve one.
template <class V>
class SummaryTable {
 public:
  explicit SummaryTable(const std::vector<IndexedDef>& defs)
      : nodes_(defs), fix_(std::vector<V>(nodes_.parts.size())) {}

  /// nullptr when no definition has that key / name.
  const V* by_key(const std::string& k) { return find(nodes_.key, k); }
  const V* by_name(const std::string& n) { return find(nodes_.name, n); }
  /// What a call to `name` from a definition of class `cls` ("" for a free
  /// function) reaches: the same class's member, else the free function,
  /// else the union over every definition with that simple name.
  const V* callee(const std::string& cls, const std::string& name) {
    const V* v = cls.empty() ? nullptr : by_key(cls + "::" + name);
    if (v == nullptr) v = by_key(name);
    return v != nullptr ? v : by_name(name);
  }
  /// Whether some definition is named `n` (no dependency).
  bool defines(const std::string& n) const {
    return nodes_.name.count(n) > 0;
  }

  /// Solves from bottom: a key joins `scan(def_index)` over its
  /// definitions, a name joins its keys.
  template <class Scan, class Join>
  void solve(Scan&& scan, Join&& join) {
    fix_.solve(
        nodes_.calls,
        [&](std::size_t n) {
          V v{};
          for (std::size_t p : nodes_.parts[n])
            join(v, n < nodes_.keys ? scan(p) : fix_.read(p));
          return v;
        },
        join);
  }

  /// The keyed summaries, moved out: the table is spent afterwards.
  std::map<std::string, V> keyed() {
    std::vector<V> values = fix_.take();
    std::map<std::string, V> out;
    for (const auto& [k, n] : nodes_.key) out.emplace(k, std::move(values[n]));
    return out;
  }

 private:
  const V* find(const std::map<std::string, std::size_t>& view,
                const std::string& k) {
    auto it = view.find(k);
    return it == view.end() ? nullptr : &fix_.read(it->second);
  }

  SummaryNodes nodes_;
  Fixpoint<V> fix_;
};

}  // namespace fatomic::analyze
