#include "fatomic/analyze/callgraph_static.hpp"

#include <algorithm>

#include "fatomic/analyze/body.hpp"
#include "fatomic/analyze/fixpoint.hpp"
#include "fatomic/detect/callgraph.hpp"
#include "fatomic/weave/method_info.hpp"

namespace fatomic::analyze {
namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Two exception names denote the same type when equal or when one is a
/// namespace-qualified form of the other ("EmptyError" as written at the
/// throw site vs. the demangled "subjects::collections::EmptyError").
bool names_match(const std::string& a, const std::string& b) {
  return a == b || ends_with(a, "::" + b) || ends_with(b, "::" + a);
}

/// The wildcard for exceptions of statically unknown type (a `throw expr;`
/// of unresolvable type, a rethrow, an open callee).
const char* const kAny = "*";

/// One call site: its position (for catch-clause filtering) and the
/// instrumented nodes / helper definitions it may reach.
struct CallEvt {
  std::size_t pos = 0;
  std::set<std::string> inst_nodes;
  std::set<std::string> helper_keys;
};

/// What a frame's body (a node's or a helper's) reaches: every exception
/// type that may escape it (`prop`), the explicitly thrown ones (`expl`,
/// which flow on through helpers only), and the instrumented nodes and
/// FAT_CTOR_INFO classes it calls through helpers and constructor bodies.
struct Frame {
  std::set<std::string> prop, expl, calls, ctors;
  bool operator==(const Frame&) const = default;
};

void join(Frame& into, const Frame& from) {
  into.prop.insert(from.prop.begin(), from.prop.end());
  into.expl.insert(from.expl.begin(), from.expl.end());
  into.calls.insert(from.calls.begin(), from.calls.end());
  into.ctors.insert(from.ctors.begin(), from.ctors.end());
}

/// The per-definition facts the fixpoint consumes.
struct DefFacts {
  /// Explicit throws that escape this definition's own try blocks, as
  /// (position, type-or-kAny).
  std::vector<std::pair<std::size_t, std::string>> throws;
  std::vector<CallEvt> calls;
  /// Mentions of FAT_CTOR_INFO class simple names (their constructors may
  /// run here).
  std::vector<std::pair<std::size_t, std::string>> ctors;
  /// The definition's indexed body: try regions for catch filtering.
  const BodyIndex* body = nullptr;
};

/// Does an exception of `type` raised at `pos` escape every enclosing try
/// block?  `kAny` is only stopped by `catch (...)`.  Handler types are
/// simple names, so the comparison strips namespaces from `type` first.
bool escapes(const DefFacts& f, std::size_t pos, const std::string& type) {
  return f.body->escapes(pos, type == kAny ? std::string() : simple_of(type));
}

/// Builds the whole graph; groups the lookup tables the scan and the
/// fixpoint share.
struct Builder {
  const SourceModel& model;
  const std::vector<IndexedDef>& defs;
  const std::set<std::string>& runtime_names;
  StaticCallGraph g;

  /// simple class name -> qualified instrumented classes carrying it.
  std::map<std::string, std::set<std::string>> simple_to_quals;
  /// method name -> instrumented nodes declaring it (any class).
  std::map<std::string, std::set<std::string>> inst_by_method;
  /// helper name / "SimpleClass::name" -> helper keys.
  std::map<std::string, std::set<std::string>> helper_by_name;
  std::map<std::string, std::set<std::string>> helper_by_suffix;
  std::map<std::string, std::vector<const IndexedDef*>> helper_defs;
  std::map<std::string, std::vector<const IndexedDef*>> node_defs;
  /// Simple names of FAT_CTOR_INFO classes -> their "(ctor)" nodes.
  std::map<std::string, std::set<std::string>> ctor_nodes_by_simple;

  std::map<const IndexedDef*, DefFacts> facts;

  Builder(const SourceModel& m, const std::vector<IndexedDef>& d,
          const std::set<std::string>& rt)
      : model(m), defs(d), runtime_names(rt) {}

  void inventory();
  void scan_def(const IndexedDef& d);
  CallEvt resolve_call(const FunctionDef& def, const BodyIndex& v,
                       std::size_t i) const;
  void fixpoint();

  StaticCallGraph build() {
    inventory();
    fixpoint();
    return std::move(g);
  }
};

void Builder::inventory() {
  for (const auto& [qn, cm] : model.classes) {
    simple_to_quals[simple_of(qn)].insert(qn);
    // A frame's seed: its declared set plus the runtime set.
    auto add_node = [&](const std::string& method) {
      std::set<std::string>& seed = g.may_propagate[qn + "::" + method];
      auto it = cm.declared_throws.find(method);
      if (it != cm.declared_throws.end())
        seed.insert(it->second.begin(), it->second.end());
      seed.insert(runtime_names.begin(), runtime_names.end());
    };
    for (const auto* ms : {&cm.instrumented, &cm.statics})
      for (const std::string& m : *ms) {
        inst_by_method[m].insert(qn + "::" + m);
        add_node(m);
      }
    if (cm.has_ctor_info) {
      ctor_nodes_by_simple[simple_of(qn)].insert(qn + "::(ctor)");
      add_node("(ctor)");
    }
  }

  // Classify every definition: an instrumented node's body, a constructor
  // body, or an un-instrumented helper.
  for (const IndexedDef& d : defs) {
    const FunctionDef& def = *d.def;
    const ClassModel* cm =
        def.class_name.empty() ? nullptr : model.find_class(def.class_name);
    if (cm != nullptr &&
        (cm->instrumented.count(def.name) || cm->statics.count(def.name))) {
      node_defs[d.key].push_back(&d);
      continue;
    }
    if (cm != nullptr && cm->has_ctor_info &&
        def.name == simple_of(def.class_name)) {
      node_defs[def.class_name + "::(ctor)"].push_back(&d);
      continue;
    }
    helper_defs[d.key].push_back(&d);
    helper_by_name[def.name].insert(d.key);
    if (!def.class_name.empty())
      helper_by_suffix[simple_of(def.class_name) + "::" + def.name].insert(
          d.key);
  }

  // Instrumented methods (and ctor frames) with no scanned body are open:
  // nothing is known, every check involving them passes trivially.
  for (const auto& [node, seed] : g.may_propagate)
    if (!node_defs.count(node)) g.open.insert(node);
}

CallEvt Builder::resolve_call(const FunctionDef& def, const BodyIndex& v,
                              std::size_t i) const {
  CallEvt evt;
  evt.pos = i;
  const std::string& name = v.tk(i);

  // The call's chain: a `Qual::...::name` head, or a member link.
  const PostfixChain c = v.chain_until(i + 1);
  const bool member_call = !c.links.empty();
  const std::vector<std::string>& quals = c.quals;
  if (!member_call && !quals.empty()) {
    if (quals.front() == "std" || quals.front() == "fatomic")
      return evt;  // standard library / framework: never a subject target
    // Qualified call: resolve through the last written qualifier.
    const std::string& cls = quals.back();
    auto sq = simple_to_quals.find(cls);
    if (sq != simple_to_quals.end())
      for (const std::string& qn : sq->second) {
        const ClassModel& cm = model.classes.at(qn);
        if (cm.instrumented.count(name) || cm.statics.count(name))
          evt.inst_nodes.insert(qn + "::" + name);
      }
    auto hk = helper_by_suffix.find(cls + "::" + name);
    if (hk != helper_by_suffix.end())
      evt.helper_keys.insert(hk->second.begin(), hk->second.end());
    return evt;
  }

  if (!member_call && !def.class_name.empty()) {
    // Unqualified call inside a member definition: C++ lookup finds a
    // member of the same class first (wrapper lambdas capture `this`, so
    // sibling calls appear receiver-less).
    const ClassModel* cm = model.find_class(def.class_name);
    if (cm != nullptr &&
        (cm->instrumented.count(name) || cm->statics.count(name))) {
      evt.inst_nodes.insert(def.class_name + "::" + name);
      return evt;
    }
    auto hk = helper_defs.find(def.class_name + "::" + name);
    if (hk != helper_defs.end()) {
      evt.helper_keys.insert(hk->first);
      return evt;
    }
  }

  // Member call on an unknown receiver, or an unqualified name with no
  // same-class match: any instrumented method or helper of that name may be
  // the target (the deliberate over-approximation graph_check leans on).
  auto in = inst_by_method.find(name);
  if (in != inst_by_method.end())
    evt.inst_nodes.insert(in->second.begin(), in->second.end());
  auto hn = helper_by_name.find(name);
  if (hn != helper_by_name.end())
    evt.helper_keys.insert(hn->second.begin(), hn->second.end());
  return evt;
}

void Builder::scan_def(const IndexedDef& d) {
  DefFacts& f = facts[&d];
  const BodyIndex& v = d.whole;
  f.body = &v;

  // `throw Type(...)` / `throw ns::Type{...}` names its type only when the
  // type is a known class or written qualified — `throw make_err()` and
  // rethrows stay unknown.
  for (const ThrowSite& t : v.throws()) {
    const std::string type =
        !t.type.empty() && (t.qualified || model.class_names.count(t.type))
            ? t.type
            : kAny;
    if (escapes(f, t.pos, type)) f.throws.emplace_back(t.pos, type);
  }
  for (std::size_t i = 0; i < v.size(); ++i) {
    const std::string& t = v.tk(i);
    if (!is_name(t)) continue;
    if (ctor_nodes_by_simple.count(t)) f.ctors.emplace_back(i, t);
    if (v.tk(i + 1) == "(" && t.rfind("FAT_", 0) != 0 &&
        t.rfind("fat_", 0) != 0) {
      CallEvt evt = resolve_call(*d.def, v, i);
      if (!evt.inst_nodes.empty() || !evt.helper_keys.empty())
        f.calls.push_back(std::move(evt));
    }
  }
}

void Builder::fixpoint() {
  // One node per frame, seeded with its declared and runtime sets, and one
  // per helper key, seeded empty.  Frame keys name instrumented methods or
  // constructors and helper keys never do, so the two cannot collide.
  std::map<std::string, std::size_t> ix;
  std::vector<const std::vector<const IndexedDef*>*> bodies;
  std::vector<Frame> seeds;
  static const std::vector<const IndexedDef*> kOpen;  // no scanned body
  for (auto& [node, seed] : g.may_propagate) {
    ix[node] = seeds.size();
    auto nd = node_defs.find(node);
    bodies.push_back(nd == node_defs.end() ? &kOpen : &nd->second);
    seeds.push_back({std::move(seed), {}, {}, {}});
  }
  for (const auto& [key, ds] : helper_defs) {
    ix[key] = seeds.size();
    bodies.push_back(&ds);
    seeds.push_back({});
  }
  for (const auto* ds : bodies)
    for (const IndexedDef* d : *ds) scan_def(*d);
  Fixpoint<Frame> flow(std::move(seeds));
  auto contribute = [&](const DefFacts& f, Frame& out) {
    for (const auto& [pos, type] : f.throws) {
      out.prop.insert(type);  // already filtered through this def's try blocks
      out.expl.insert(type);
    }
    for (const CallEvt& c : f.calls) {
      Frame in;
      out.calls.insert(c.inst_nodes.begin(), c.inst_nodes.end());
      for (const std::string& n : c.inst_nodes) {
        if (g.open.count(n)) {
          in.prop.insert(kAny);
          continue;
        }
        const Frame& e = flow.read(ix.at(n));
        in.prop.insert(e.prop.begin(), e.prop.end());
      }
      for (const std::string& k : c.helper_keys) {
        // Explicit throws flow through helpers only: an undeclared throw
        // inside an instrumented callee is the callee's own lint finding.
        const Frame& e = flow.read(ix.at(k));
        in.prop.insert(e.prop.begin(), e.prop.end());
        in.expl.insert(e.expl.begin(), e.expl.end());
        out.calls.insert(e.calls.begin(), e.calls.end());
        out.ctors.insert(e.ctors.begin(), e.ctors.end());
      }
      // k=1 call-site context: the callee's set is filtered through exactly
      // the try blocks enclosing *this* call, not smeared function-wide.
      for (const std::string& type : in.prop)
        if (escapes(f, c.pos, type)) out.prop.insert(type);
      for (const std::string& type : in.expl)
        if (escapes(f, c.pos, type)) out.expl.insert(type);
    }
    // Constructor bodies run *outside* their own wrapper frame (FAT_CTOR_ENTRY
    // wraps an empty lambda), so what an invoked constructor calls nests
    // under this frame dynamically.
    for (const auto& [pos, cls] : f.ctors) {
      out.ctors.insert(cls);
      for (const std::string& node : ctor_nodes_by_simple.at(cls)) {
        const Frame& e = flow.read(ix.at(node));
        out.calls.insert(e.calls.begin(), e.calls.end());
        out.ctors.insert(e.ctors.begin(), e.ctors.end());
        if (g.open.count(node)) {
          if (escapes(f, pos, kAny)) out.prop.insert(kAny);
          continue;
        }
        for (const std::string& type : e.prop)
          if (escapes(f, pos, type)) out.prop.insert(type);
      }
    }
  };
  flow.solve(
      [&](std::size_t i) {
        Frame next;
        for (const IndexedDef* d : *bodies[i]) contribute(facts[d], next);
        return next;
      },
      join);
  facts.clear();  // the solve was their last reader
  std::vector<Frame> solved = flow.take();
  for (auto& [node, set] : g.may_propagate) {
    Frame& f = solved[ix.at(node)];
    set = std::move(f.prop);
    g.may_raise_explicit[node] = std::move(f.expl);
    if (!node_defs.count(node)) continue;
    g.calls[node] = std::move(f.calls);
    g.ctor_classes[node] = std::move(f.ctors);
  }
}

}  // namespace

bool StaticCallGraph::covers(const std::string& node,
                             const std::string& type) const {
  if (open.count(node)) return true;
  auto it = may_propagate.find(node);
  if (it == may_propagate.end()) return false;
  for (const std::string& entry : it->second) {
    if (entry == kAny) return true;
    if (names_match(entry, type)) return true;
  }
  return false;
}

StaticCallGraph build_static_call_graph(
    const SourceModel& model, const std::vector<IndexedDef>& defs,
    const std::set<std::string>& runtime_exception_names) {
  return Builder(model, defs, runtime_exception_names).build();
}

StaticCallGraph build_static_call_graph(
    const SourceModel& model,
    const std::set<std::string>& runtime_exception_names) {
  return build_static_call_graph(model, index_definitions(model),
                                 runtime_exception_names);
}

GraphCheckResult graph_check(const detect::Campaign& campaign,
                             const StaticCallGraph& graph) {
  GraphCheckResult out;
  std::set<std::string> dedup;
  auto violate = [&](const char* kind, const std::string& node,
                     const std::string& detail) {
    if (!dedup.insert(std::string(kind) + '\n' + node + '\n' + detail).second)
      return;
    out.violations.push_back({kind, node, detail});
  };

  for (const auto& [edge, count] : campaign.call_edges) {
    const weave::MethodInfo* caller = edge.first;
    const weave::MethodInfo* callee = edge.second;
    if (caller == nullptr) continue;  // program top level: no static frame
    ++out.edges_checked;
    const std::string node = caller->qualified_name();
    if (graph.open.count(node)) continue;
    if (callee->kind() == weave::MethodKind::Constructor) {
      auto it = graph.ctor_classes.find(node);
      const std::string cls = simple_of(callee->class_name());
      if (it == graph.ctor_classes.end() || !it->second.count(cls))
        violate("ctor-edge", node, callee->qualified_name());
      continue;
    }
    auto it = graph.calls.find(node);
    if (it == graph.calls.end() || !it->second.count(callee->qualified_name()))
      violate("call-edge", node, callee->qualified_name());
  }

  std::set<std::pair<std::string, std::string>> seen_types;
  for (const detect::RunRecord& run : campaign.runs) {
    for (const weave::Mark& mark : run.marks) {
      if (mark.exception_type.empty()) continue;
      const std::string node = mark.method->qualified_name();
      if (!seen_types.emplace(node, mark.exception_type).second) continue;
      ++out.types_checked;
      if (!graph.covers(node, mark.exception_type))
        violate("exception-type", node, mark.exception_type);
    }
  }
  std::sort(out.violations.begin(), out.violations.end(),
            [](const GraphViolation& a, const GraphViolation& b) {
              if (a.node != b.node) return a.node < b.node;
              if (a.kind != b.kind) return a.kind < b.kind;
              return a.detail < b.detail;
            });
  return out;
}

std::vector<LintFinding> lint_static(
    const detect::Campaign& campaign, const SourceModel& model,
    const StaticCallGraph& graph,
    const std::set<std::string>& runtime_exception_names) {
  // Scope: classes the campaign touched, methods it never reached.  Covered
  // methods are the dynamic lint's job; classes never observed belong to
  // other subject families linked into the same binary.
  std::set<std::string> observed_methods, observed_classes;
  auto observe = [&](const weave::MethodInfo* mi) {
    if (mi == nullptr) return;
    observed_methods.insert(mi->qualified_name());
    observed_classes.insert(mi->class_name());
  };
  for (const auto& [edge, count] : campaign.call_edges) {
    observe(edge.first);
    observe(edge.second);
  }
  for (const auto& [mi, count] : campaign.call_counts) observe(mi);

  std::vector<LintFinding> findings;
  for (const auto& [qn, cm] : model.classes) {
    if (!observed_classes.count(qn)) continue;
    std::set<std::string> methods = cm.instrumented;
    methods.insert(cm.statics.begin(), cm.statics.end());
    for (const std::string& m : methods) {
      const std::string node = qn + "::" + m;
      if (observed_methods.count(node)) continue;
      if (graph.open.count(node)) continue;
      auto raised = graph.may_raise_explicit.find(node);
      if (raised == graph.may_raise_explicit.end()) continue;

      // Declaration-based allowance: the method's own FAT_THROWS, the
      // runtime set, and the declared sets of statically reachable
      // instrumented callees (their escaping exceptions legitimately pass
      // through this frame).
      std::set<std::string> allowed(runtime_exception_names);
      auto own = cm.declared_throws.find(m);
      if (own != cm.declared_throws.end())
        allowed.insert(own->second.begin(), own->second.end());
      auto callees = graph.calls.find(node);
      if (callees != graph.calls.end()) {
        for (const std::string& callee : callees->second) {
          const std::size_t sep = callee.rfind("::");
          if (sep == std::string::npos) continue;
          const ClassModel* ccm = model.find_class(callee.substr(0, sep));
          if (ccm == nullptr) continue;
          auto dt = ccm->declared_throws.find(callee.substr(sep + 2));
          if (dt != ccm->declared_throws.end())
            allowed.insert(dt->second.begin(), dt->second.end());
        }
      }

      for (const std::string& type : raised->second) {
        if (type == kAny) continue;  // unnameable: nothing to declare
        bool ok = false;
        for (const std::string& a : allowed)
          if (names_match(a, type)) {
            ok = true;
            break;
          }
        if (ok) continue;
        LintFinding f;
        f.method = node;
        f.exception_type = type;
        f.injected_at = "(static)";
        f.injection_point = 0;
        findings.push_back(std::move(f));
      }
    }
  }
  std::sort(findings.begin(), findings.end(),
            [](const LintFinding& a, const LintFinding& b) {
              return a.method != b.method ? a.method < b.method
                                          : a.exception_type < b.exception_type;
            });
  return findings;
}

}  // namespace fatomic::analyze
