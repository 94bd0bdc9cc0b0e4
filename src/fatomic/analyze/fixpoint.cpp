#include "fatomic/analyze/fixpoint.hpp"

namespace fatomic::analyze {

std::vector<std::size_t> callee_first(const CallHint& calls) {
  std::vector<std::size_t> rank(calls.size());
  std::vector<bool> seen(calls.size(), false);
  std::vector<std::pair<std::size_t, std::size_t>> stack;  // node, next edge
  auto visit = [&](std::size_t v) {
    if (!seen[v]) stack.emplace_back(v, 0);
    seen[v] = true;
  };
  std::size_t next = 0;
  for (std::size_t root = 0; root < calls.size(); ++root) {
    visit(root);
    while (!stack.empty()) {
      auto& [v, e] = stack.back();
      if (e < calls[v].size()) {
        visit(calls[v][e++]);  // may reallocate the stack: v, e are stale
        continue;
      }
      rank[v] = next++;
      stack.pop_back();
    }
  }
  return rank;
}

SummaryNodes::SummaryNodes(const std::vector<IndexedDef>& defs) {
  for (std::size_t i = 0; i < defs.size(); ++i) {
    auto [it, added] = key.emplace(defs[i].key, parts.size());
    if (added) parts.emplace_back();
    parts[it->second].push_back(i);
  }
  keys = parts.size();
  for (const auto& [k, n] : key) {
    auto [it, added] = name.emplace(simple_of(k), parts.size());
    if (added) parts.emplace_back();
    parts[it->second].push_back(n);
  }
  calls.resize(parts.size());
  for (std::size_t n = 0; n < keys; ++n)
    for (std::size_t i : parts[n]) {
      const BodyIndex& body = defs[i].whole;
      for (std::size_t t = 0; t + 1 < body.size(); ++t) {
        if (body.tk(t + 1) != "(") continue;
        if (auto it = name.find(body.tk(t)); it != name.end())
          calls[n].push_back(it->second);
      }
    }
  for (std::size_t n = keys; n < parts.size(); ++n) calls[n] = parts[n];
}

}  // namespace fatomic::analyze
