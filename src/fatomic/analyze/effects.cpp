#include "fatomic/analyze/effects.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>

#include "fatomic/analyze/alias.hpp"
#include "fatomic/analyze/body.hpp"
#include "fatomic/analyze/fixpoint.hpp"

namespace fatomic::analyze {

const char* EffectSummary::verdict() const {
  if (!scanned) return "unscanned";
  if (read_only) return "read-only";
  if (commit_point_last) return "commit-point-last";
  return "unproven";
}

namespace {

/// Member calls that never mutate their receiver nor raise (accessors of the
/// standard library and of smart pointers).  Checked only after the
/// instrumented-name and helper-summary lookups, so a subject method that
/// happens to share one of these names keeps its own (stronger) facts.
const std::set<std::string>& pure_member_calls() {
  static const std::set<std::string> p = {
      "get",   "size",   "empty", "begin",  "end",   "cbegin", "cend",
      "rbegin", "rend",  "c_str", "data",   "length", "str",   "what",
  };
  return p;
}

/// std:: functions that mutate nothing even when handed tracked arguments.
const std::set<std::string>& pure_std_calls() {
  static const std::set<std::string> p = {
      "to_string", "stoi",      "max",       "min",  "distance",
      "make_unique", "make_shared", "make_pair", "tie", "isspace",
      "isdigit",  "isalpha",   "isalnum",
  };
  return p;
}

/// Lattice join of two summaries: every bit and set only grows.
void join(FnSummary& dst, const FnSummary& src) {
  dst.mutates_env |= src.mutates_env;
  dst.mutates_params |= src.mutates_params;
  dst.may_throw |= src.may_throw;
  dst.catches |= src.catches;
  dst.writes_unknown |= src.writes_unknown;
  dst.param_writes_unknown |= src.param_writes_unknown;
  dst.param_positions_unknown |= src.param_positions_unknown;
  dst.writes.insert(src.writes.begin(), src.writes.end());
  dst.param_writes.insert(src.param_writes.begin(), src.param_writes.end());
  dst.write_param_positions.insert(src.write_param_positions.begin(),
                                   src.write_param_positions.end());
}

/// Which caller-visible state an event touches.
enum class Kind { None, Fresh, TrackedLocal, SafeParam, TrackedParam, Env };

bool tracked(Kind k) {
  return k == Kind::TrackedLocal || k == Kind::TrackedParam || k == Kind::Env;
}

/// One positioned effect observation.  Positions are loop-widened: a
/// mutation inside a loop is placed at the loop's first token, a throw at
/// its last — statically, any iteration's throw may follow any iteration's
/// mutation.
struct Event {
  std::size_t pos = 0;
  bool mut = false;
  bool thr = false;
  bool via_param = false;  ///< mutation reaches the caller through a param
  /// Member names a mutation event may write.  Empty plus `target_unknown`
  /// means the write lands somewhere unresolvable — Pass 3 collapses the
  /// enclosing method's write set to ⊤.
  std::vector<std::string> targets;
  bool target_unknown = false;
  /// For via_param events: which of the enclosing function's parameter
  /// positions the write flows through.  Empty means "could not determine"
  /// and poisons the summary's position set (callers fall back to whole
  /// argument-list tracking).
  std::set<std::size_t> via_positions;
};

struct Ctx {
  const SourceModel* model;
  /// Summaries by key ("Class::helper" / free "helper") and merged over
  /// every definition sharing a simple name — the sound resolution for
  /// calls whose receiver type is unknown.  Lookups record dependencies.
  SummaryTable<FnSummary>* summaries;
  /// Qualified class names of scanned definitions, by simple name — the
  /// candidate set for receiver-typed call resolution.
  const std::map<std::string, std::set<std::string>>* def_classes_by_simple;
  /// Simple class names with any dynamic-dispatch risk (FAT_POLY, or on
  /// either side of an inheritance edge): receiver-typed resolution must
  /// not narrow calls through these, an unscanned override could run.
  const std::set<std::string>* dispatch_risky;
  /// Pass 5 bindings: a write through a tracked local lands where it aliases.
  const AliasAnalysis* alias;
};

/// Scans one function body, producing effect events against the current
/// summary table (see analyze_effects for the fixpoint driving this).
class BodyScan {
 public:
  BodyScan(const IndexedDef& d, const Ctx& ctx)
      : body_(d.invoke_body()), def_(*d.def), ctx_(ctx),
        alias_(*ctx.alias->find(d.key)) {
    for (std::size_t i = 0; i < def_.params.size(); ++i) {
      const Param& p = def_.params[i];
      if (p.name.empty()) continue;
      params_[p.name] = !p.is_const && (p.is_ref || p.is_ptr);
      param_pos_[p.name] = i;
    }
  }

  void run();

  std::vector<Event> events;
  bool catches = false;

 private:
  struct Var {
    bool tracked = false;
    /// Declared with a value type: writes to it can never reach the caller,
    /// so reassignment keeps it untracked no matter the right-hand side.
    bool value_type = false;
    /// Declared as a reference: a plain assignment writes *through* the
    /// binding into the aliased object, it never rebinds.
    bool is_ref = false;
  };

  const std::string& tk(std::size_t i) const { return body_.tk(i); }

  Kind classify(const std::string& name) const {
    if (auto it = locals_.find(name); it != locals_.end())
      return it->second.tracked ? Kind::TrackedLocal : Kind::Fresh;
    if (auto it = params_.find(name); it != params_.end())
      return it->second ? Kind::TrackedParam : Kind::SafeParam;
    return Kind::Env;
  }

  /// Is token k a base identifier of an expression (not a member/qualified
  /// name component, not a literal or keyword)?
  bool base_ident_at(std::size_t k, std::size_t from) const {
    const std::string& t = tk(k);
    if (!is_name(t)) return false;
    if (k > from) {
      const std::string& prev = tk(k - 1);
      if (prev == "." || prev == "->" || prev == "::") return false;
    }
    if (tk(k + 1) == "::") return false;
    return true;
  }

  /// What the base identifiers of [b, e) reach: tracked state at all, only
  /// through parameters, and then through which parameter positions.
  struct ExprState {
    bool tracked = false;
    bool param_only = false;
    std::set<std::size_t> positions;  ///< empty unless param_only
  };
  ExprState expr_state(std::size_t b, std::size_t e) const {
    ExprState s;
    bool env = false;
    for (std::size_t k = b; k < e; ++k) {
      if (!base_ident_at(k, b)) continue;
      const Kind kind = classify(tk(k));
      if (!tracked(kind)) continue;
      s.tracked = true;
      if (kind != Kind::TrackedParam) env = true;
      if (auto it = param_pos_.find(tk(k));
          kind == Kind::TrackedParam && it != param_pos_.end())
        s.positions.insert(it->second);
    }
    s.param_only = s.tracked && !env;
    if (!s.param_only) s.positions.clear();
    return s;
  }

  /// Does the initializer expression denote freshly owned storage (writes
  /// through the declared pointer cannot reach any caller-visible object)?
  bool expr_fresh(std::size_t b, std::size_t e) const {
    if (b >= e) return true;  // no initializer: default construction
    for (std::size_t k = b; k < e; ++k) {
      const std::string& t = tk(k);
      if (t == "new" || t == "make_unique" || t == "make_shared") return true;
    }
    for (std::size_t k = b; k < e; ++k) {
      if (!base_ident_at(k, b)) continue;
      const Kind kind = classify(tk(k));
      if (kind != Kind::Fresh && kind != Kind::SafeParam) return false;
      // Fresh base: the rest must be pure derivation (member accesses on
      // it), e.g. `chain.get()` — any second base identifier spoils it.
      for (std::size_t m = k + 1; m < e; ++m)
        if (base_ident_at(m, b)) return false;
      return true;
    }
    return true;  // literals / nullptr only
  }

  struct Chain {
    bool deref = false;
    Kind base = Kind::None;
    /// Base identifier the chain starts from (classified into `base`).
    std::string base_name;
    /// Identifier nearest the end of the chain — the immediate receiver of
    /// a member call (`children` in `root_->children.push_back`).  Empty
    /// when the chain ends in a call or index result.
    std::string recv_name;
    /// recv_name itself is dereferenced (`*p = v` writes p's pointee, not a
    /// member named "p") — the name must not be used as a write target.
    bool recv_starred = false;
    /// Member hops between the base and the written slot (`n->f` = 1,
    /// `w.p->value` = 2).  A write one hop into a frame-local object lands
    /// in that object's own storage; a second hop re-enters whatever its
    /// members point at, which the per-variable alias lattice cannot bound.
    std::size_t hops = 0;
  };

  /// This pass's reading of a parsed chain: whether it writes through a
  /// dereference, its base, the member it names last and its member hops.
  Chain read(const PostfixChain& pc) const {
    using K = ChainLink::Kind;
    Chain c;
    c.deref = std::count(pc.prefix.begin(), pc.prefix.end(), "*") > 0;
    for (const ChainLink& l : pc.links) {
      c.hops += l.kind == K::Member || l.kind == K::Arrow;
      c.deref |= l.kind == K::Arrow || l.kind == K::Index || l.kind == K::Deref;
    }
    // A trailing index group makes the owning member the written target
    // (`buckets_[i] = v` writes buckets_); a call result owns its elements
    // and names none.
    std::size_t k = pc.links.size();
    bool starred = false;
    while (k > 0 && (pc.links[k - 1].kind == K::Index ||
                     pc.links[k - 1].kind == K::Deref))
      starred |= pc.links[--k].kind == K::Deref;
    if (k > 0 ? pc.links[k - 1].kind != K::Call : is_name(pc.head)) {
      c.recv_name = k > 0 ? pc.links[k - 1].name : pc.head;
      c.recv_starred = starred || (k == 0 && !pc.prefix.empty() &&
                                   pc.prefix.back() == "*");
    }
    if (!pc.links.empty() && pc.links.front().kind == K::Call &&
        ctx_.model->class_names.count(pc.head)) {
      // `Parser(src).parse_document()` — the receiver is a freshly
      // constructed temporary; mutations through it never reach the caller.
      c.base = Kind::Fresh;
      return c;
    }
    // The first qualifier or the head; `this` classifies as Env (never a
    // local or parameter).  An opaque operand leaves the first member named
    // after it.
    c.base_name = pc.quals.empty() ? pc.head : pc.quals.front();
    for (std::size_t l = 0; c.base_name.empty() && l < pc.links.size(); ++l)
      c.base_name = pc.links[l].name;
    if (!c.base_name.empty()) c.base = classify(c.base_name);
    return c;
  }

  /// Parameter position of a chain's base, when it is a tracked parameter.
  std::set<std::size_t> chain_positions(const Chain& c) const {
    std::set<std::size_t> out;
    if (c.base == Kind::TrackedParam) {
      auto it = param_pos_.find(c.base_name);
      if (it != param_pos_.end()) out.insert(it->second);
    }
    return out;
  }

  /// Caller-side write targets for an argument expression: when [b, e) is a
  /// pure member chain (`head_`, `other.head_`), the written state lives
  /// inside that named subtree.  A bare tracked local resolves through its
  /// alias binding when that names a receiver subtree (Pass 5); calls,
  /// indexing, dereferences, and unresolved locals yield no usable target.
  std::pair<std::vector<std::string>, bool> arg_target(std::size_t b,
                                                       std::size_t e) const {
    const PostfixChain pc = body_.chain_from(b, e);
    if (pc.end != e || !pc.prefix.empty() || !is_name(pc.head))
      return {{}, false};
    for (const ChainLink& l : pc.links)
      if (l.kind != ChainLink::Kind::Member && l.kind != ChainLink::Kind::Arrow)
        return {{}, false};
    const Chain c = read(pc);
    if (c.recv_name.empty() || c.recv_starred) return {{}, false};
    if (locals_.count(c.recv_name)) {
      if (c.recv_name == c.base_name) {
        auto it = alias_.locals.find(c.base_name);
        if (it != alias_.locals.end() &&
            it->second.kind == AliasTarget::Kind::Field &&
            !it->second.roots.empty())
          return {{it->second.roots.begin(), it->second.roots.end()}, true};
      }
      return {{}, false};
    }
    return {{c.recv_name}, true};
  }

  void emit(std::size_t pos, bool mut, bool thr, bool via_param,
            std::vector<std::string> targets = {}, bool target_unknown = true,
            std::set<std::size_t> via_positions = {});
  /// Mutation with at most one named target; `target_valid` is false when
  /// the name does not denote the written member (starred/empty chains).
  void emit_mut(std::size_t pos, Kind base, const std::string& target = "",
                bool target_valid = false,
                std::set<std::size_t> via_positions = {}) {
    const bool named = target_valid && !target.empty();
    emit(pos, true, false, base == Kind::TrackedParam,
         named ? std::vector<std::string>{target} : std::vector<std::string>{},
         !named, std::move(via_positions));
  }
  /// Mutation whose targets come from a callee summary's write-name set.
  void emit_mut_set(std::size_t pos, Kind base,
                    const std::set<std::string>& names, bool unknown,
                    std::set<std::size_t> via_positions = {}) {
    emit(pos, true, false, base == Kind::TrackedParam,
         std::vector<std::string>(names.begin(), names.end()), unknown,
         std::move(via_positions));
  }

  /// Mutation through a tracked local (Pass 5): the alias binding of the
  /// chain's base decides where the write lands.  Frame-local storage drops
  /// the event, a receiver-subtree binding yields a named environment write
  /// rooted at the aliased members, a parameter binding yields a positioned
  /// via_param write, and ⊤ (or no binding) keeps the historical collapse.
  /// When the chain names a member deeper than the base (`p->next = v`),
  /// that member is the write target — never the local's own name, which is
  /// caller-meaningless (and could shadow a real member).
  void emit_write(std::size_t pos, const Chain& c) {
    const AliasTarget* t = nullptr;
    if (auto it = alias_.locals.find(c.base_name); it != alias_.locals.end())
      t = &it->second;
    const bool deeper = !c.recv_name.empty() && !c.recv_starred &&
                        c.recv_name != c.base_name;
    if (t == nullptr || t->kind == AliasTarget::Kind::Top) {
      emit_mut(pos, Kind::Env, deeper ? c.recv_name : "", deeper);
      return;
    }
    if (t->kind == AliasTarget::Kind::Local) {
      // Frame-local storage: droppable only while the write stays in the
      // object's own slots (`n->f = v`).  A second member hop re-enters
      // whatever those slots point at — a ctor frame may have stashed a
      // receiver subtree there (`Wrap w(head_); w.p->value = v`) — so the
      // write falls back to the named-environment path.
      if (c.hops <= 1) return;
      emit_mut(pos, Kind::Env, deeper ? c.recv_name : "", deeper);
      return;
    }
    std::vector<std::string> targets;
    if (deeper)
      targets.push_back(c.recv_name);
    else
      targets.assign(t->roots.begin(), t->roots.end());
    const bool unknown = targets.empty();
    emit(pos, true, false, t->kind == AliasTarget::Kind::Param,
         std::move(targets), unknown,
         t->kind == AliasTarget::Kind::Param ? t->positions
                                             : std::set<std::size_t>{});
  }

  bool local_is_ref(const std::string& name) const {
    auto it = locals_.find(name);
    return it != locals_.end() && it->second.is_ref;
  }

  /// A write through chain `c` into whatever its base points at.  Fresh
  /// bases drop out within the object's own slots only: a second member hop
  /// re-enters whatever the frame stashed there (emit_write applies the same
  /// hop rule to tracked locals).
  void write_through(std::size_t pos, const Chain& c) {
    if (c.base == Kind::TrackedLocal || (c.base == Kind::Fresh && c.hops > 1))
      emit_write(pos, c);
    else if (tracked(c.base))
      emit_mut(pos, c.base, c.recv_name, !c.recv_starred, chain_positions(c));
  }
  /// A write to the slot chain `c` names: through a dereference as above,
  /// else a member or parameter slot, or a reference local's referent (an
  /// assignment writes through a reference, it never rebinds).  False when
  /// the slot is a plain local.
  bool write_slot(std::size_t pos, const Chain& c) {
    if (c.deref)
      write_through(pos, c);
    else if (c.base == Kind::Env || c.base == Kind::TrackedParam)
      emit_mut(pos, c.base, c.recv_name, !c.recv_starred, chain_positions(c));
    else if (c.base == Kind::TrackedLocal && local_is_ref(c.base_name))
      emit_write(pos, c);
    else
      return false;
    return true;
  }

  /// Param-mutation events for a call to a summarized callee.  When the
  /// callee's written parameter positions are known, only the argument
  /// expressions at those positions are re-evaluated (and the written
  /// subtree is named from the argument chain itself); otherwise any
  /// tracked argument anywhere in the list counts, with the callee's own
  /// write names.
  void emit_param_writes(std::size_t i, std::size_t close, const FnSummary& s);
  /// The write events of a call resolved to summary `s`: its environment
  /// writes when they reach caller state (`env`, landing as `kind` through
  /// `positions`), then its parameter writes.
  void summary_writes(std::size_t i, std::size_t close, const FnSummary& s,
                      bool env, Kind kind = Kind::Env,
                      std::set<std::size_t> positions = {}) {
    if (env && s.mutates_env)
      emit_mut_set(i, kind, s.writes, s.writes_unknown, std::move(positions));
    emit_param_writes(i, close, s);
  }
  /// A mutation event for the call at `i` writing through argument [b, e),
  /// when that argument reaches tracked state.
  void arg_write(std::size_t i, std::size_t b, std::size_t e) {
    ExprState arg = expr_state(b, e);
    if (!arg.tracked) return;
    auto [tnames, tvalid] = arg_target(b, e);
    emit(i, true, false, arg.param_only,
         tvalid ? std::move(tnames) : std::vector<std::string>{}, !tvalid,
         std::move(arg.positions));
  }
  /// Mutation events for a library call that may write through any tracked
  /// argument (std::move, generic algorithms, unknown member calls' args).
  void tracked_args_mut(std::size_t i, std::size_t close) {
    for (const auto& [b, e] : body_.split_args(i + 1, close))
      arg_write(i, b, e);
  }

  /// Pass 4 receiver-typed call resolution: when the receiver's declared
  /// type names specific scanned classes — none of them dispatch-risky —
  /// the call can only reach those classes' definitions, so exactly their
  /// by-key summaries merge (instead of the by-name union over every class
  /// sharing the method name).  Fails (returns false) whenever the
  /// receiver, its declared type, or any named class is unknown: callers
  /// keep the conservative resolution.
  bool receiver_summary(const Chain& recv, const std::string& method,
                        FnSummary* out) const;

  void handle_call(std::size_t i);
  bool try_decl(std::size_t i, std::size_t& next);
  bool try_lambda(std::size_t i, std::size_t& next);

  /// True when the immediate receiver is a declared member or variable
  /// whose type mentions none of the classes instrumenting `method` — e.g.
  /// `head_.reset()` where head_ is a unique_ptr and only Regexp instruments
  /// a `reset`.  Unknown receivers and unknown declared types keep the
  /// conservative answer (false: treat the call as an injection point).
  bool field_rules_out_instrumented(const std::string& recv_name,
                                    const std::string& method) const {
    if (recv_name.empty()) return false;
    auto ft = ctx_.model->declared_types.find(recv_name);
    if (ft == ctx_.model->declared_types.end()) return false;
    const std::string& type = ft->second;
    for (const auto& [qualified, cm] : ctx_.model->classes) {
      if (!cm.instrumented.count(method)) continue;
      if (type.find(simple_of(qualified)) != std::string::npos) return false;
    }
    return true;
  }

  const BodyIndex& body_;
  const FunctionDef& def_;
  const Ctx& ctx_;
  /// Alias bindings for this definition (Pass 5).
  const FnAliasInfo& alias_;
  std::map<std::string, Var> locals_;
  std::map<std::string, bool> params_;  ///< name -> tracked
  std::map<std::string, std::size_t> param_pos_;
  /// Simple type name of the explicit `throw` currently being emitted
  /// (empty otherwise): lets emit() consult typed catch handlers.
  std::string throw_hint_;
};

void BodyScan::emit(std::size_t pos, bool mut, bool thr, bool via_param,
                    std::vector<std::string> targets, bool target_unknown,
                    std::set<std::size_t> via_positions) {
  // Catch-clause-aware suppression (Pass 4): a throw that provably cannot
  // leave the function is no injection-ordering constraint for callers.
  // The decision uses the original position — loop widening never moves an
  // event across the braces of a try block that contains the loop.
  if (thr && !body_.escapes(pos, throw_hint_)) thr = false;
  if (mut) {
    Event ev;
    const auto* loop = body_.loop_at(pos);
    ev.pos = loop != nullptr ? loop->first : pos;
    ev.mut = true;
    ev.via_param = via_param;
    ev.targets = std::move(targets);
    ev.target_unknown = target_unknown;
    ev.via_positions = std::move(via_positions);
    events.push_back(std::move(ev));
  }
  if (thr) {
    Event ev;
    const auto* loop = body_.loop_at(pos);
    ev.pos = loop != nullptr ? loop->second : pos;
    ev.thr = true;
    events.push_back(std::move(ev));
  }
}

void BodyScan::emit_param_writes(std::size_t i, std::size_t close,
                                 const FnSummary& s) {
  if (!s.mutates_params) return;
  if (!s.param_positions_unknown && !s.write_param_positions.empty()) {
    const auto args = body_.split_args(i + 1, close);
    bool in_range = true;
    for (std::size_t p : s.write_param_positions)
      if (p >= args.size()) in_range = false;
    if (in_range) {
      for (std::size_t p : s.write_param_positions)
        arg_write(i, args[p].first, args[p].second);
      return;
    }
  }
  ExprState args = expr_state(i + 2, close);
  if (!args.tracked) return;
  emit_mut_set(i, args.param_only ? Kind::TrackedParam : Kind::Env,
               s.param_writes, s.param_writes_unknown,
               std::move(args.positions));
}

bool BodyScan::receiver_summary(const Chain& recv, const std::string& method,
                                FnSummary* out) const {
  if (recv.recv_name.empty() || recv.recv_starred) return false;
  auto ft = ctx_.model->declared_types.find(recv.recv_name);
  if (ft == ctx_.model->declared_types.end()) return false;
  const std::string& type = ft->second;
  // Exact identifiers of the merged declared type (substring matching
  // would confuse LinkedList with LinkedListFixed).
  std::set<std::string> words;
  for (const Token& t : tokenize(type))
    if (is_ident(t.text)) words.insert(t.text);
  FnSummary merged;
  bool any = false;
  for (const std::string& word : words) {
    auto cit = ctx_.def_classes_by_simple->find(word);
    if (cit == ctx_.def_classes_by_simple->end()) continue;
    if (ctx_.dispatch_risky->count(word)) return false;
    for (const std::string& qualified : cit->second) {
      const FnSummary* s = ctx_.summaries->by_key(qualified + "::" + method);
      // A class named in the type without a scanned definition of the
      // method means the real callee may be unscanned: no narrowing.
      if (s == nullptr) return false;
      any = true;
      join(merged, *s);
    }
  }
  if (!any) return false;
  *out = merged;
  return true;
}

/// A call expression `name(` at token i: classify it and emit its events.
void BodyScan::handle_call(std::size_t i) {
  const std::string& name = tk(i);
  const std::string prev = i > 0 ? tk(i - 1) : "";
  const std::size_t close = body_.close(i + 1);
  const ExprState args = expr_state(i + 2, close);

  if (name.rfind("FAT_", 0) == 0) return;

  if (prev == "::") {
    // Qualified call: either the standard library or a scanned namespace.
    const PostfixChain callee = body_.chain_until(i + 1);
    if (!callee.quals.empty() && callee.quals.front() == "std") {
      // A generic algorithm may mutate through whatever it was handed (a
      // move steals exactly the moved-from chain), but contains no
      // injection point (the fault model injects only at instrumented
      // methods — DESIGN.md §7).
      if (!pure_std_calls().count(name)) tracked_args_mut(i, close);
      return;
    }
    if (const FnSummary* s = ctx_.summaries->by_name(name)) {
      summary_writes(i, close, *s, true);
      emit(i, false, s->may_throw, false);
      return;
    }
    emit(i, args.tracked, true, args.param_only, {}, true,
         args.positions);  // unknown qualified call
    return;
  }

  if (prev == "." || prev == "->") {
    // Member call: resolve the receiver chain ending before the separator.
    const Chain recv = read(body_.chain_until(i - 1));
    const bool recv_tracked = tracked(recv.base);
    const Kind recv_kind =
        recv.base == Kind::TrackedParam ? Kind::TrackedParam : Kind::Env;
    // Library treatment: mutation only, landing inside the receiver chain's
    // final member (`root_->children.push_back(x)` writes children).
    auto library_write = [&] {
      if (!recv_tracked) return;
      if (recv.base == Kind::TrackedLocal)
        emit_write(i, recv);
      else
        emit_mut(i, recv_kind, recv.recv_name, !recv.recv_starred,
                 chain_positions(recv));
    };
    // Zero-argument accessor check first: `head_.get()` must not resolve to
    // the instrumented HashedMap::get — every instrumented method sharing a
    // whitelisted name takes arguments, so arity disambiguates.
    if (close == i + 2 && pure_member_calls().count(name)) return;
    const bool instrumented = ctx_.model->instrumented_names.count(name) > 0;
    if (instrumented && field_rules_out_instrumented(recv.recv_name, name)) {
      // The receiver is a field of known non-subject type (`head_` is a
      // unique_ptr, not a Regexp), so this cannot be the instrumented
      // method of the same name — and a name-based summary lookup would
      // mis-resolve to it.  The write lands inside the named member
      // (`head_.reset()` rewrites head_).
      library_write();
      return;
    }
    // Receiver-typed narrowing first: when the declared type pins the
    // receiver to specific scanned classes, their merged summary decides
    // both the write set and fallibility (may_throw already folds the
    // injection point for instrumented definitions).
    FnSummary rs;
    const FnSummary* s = receiver_summary(recv, name, &rs)
                             ? &rs
                             : ctx_.summaries->by_name(name);
    if (instrumented && s != &rs) {
      // Potential injection point no matter the receiver type; mutation
      // only if some definition of that name mutates and the receiver is
      // caller-visible.
      if (recv_tracked && s != nullptr && s->mutates_env)
        emit_mut_set(i, recv_kind, s->writes, s->writes_unknown,
                     chain_positions(recv));
      emit(i, false, true, false);
      return;
    }
    if (s != nullptr) {
      summary_writes(i, close, *s, recv_tracked, recv_kind,
                     chain_positions(recv));
      emit(i, false, s->may_throw, false);
      return;
    }
    if (pure_member_calls().count(name) ||
        ctx_.model->clean_const_names.count(name))
      return;
    // Unknown library member call: no injection point inside.
    library_write();
    return;
  }

  // Unqualified call: a sibling/self call or a free function.  From a member
  // function it resolves to the same class's member when one exists — its
  // exact by-key summary beats the by-name union over every class sharing
  // the name.
  if (ctx_.model->instrumented_names.count(name)) {
    const FnSummary* s =
        def_.class_name.empty()
            ? nullptr
            : ctx_.summaries->by_key(def_.class_name + "::" + name);
    if (s == nullptr) s = ctx_.summaries->by_name(name);
    if (s != nullptr) summary_writes(i, close, *s, true);
    emit(i, false, true, false);
    return;
  }
  if (const FnSummary* s = ctx_.summaries->callee(def_.class_name, name)) {
    summary_writes(i, close, *s, true);
    emit(i, false, s->may_throw, false);
    return;
  }
  if (ctx_.model->clean_const_names.count(name)) return;
  // Unknown unqualified call (an unscanned constructor or free function):
  // fallible, and mutating when handed anything tracked.  With only safe
  // arguments it cannot reach caller-visible state — the subjects use no
  // mutable globals (DESIGN.md §7 assumptions).
  emit(i, args.tracked, true, args.param_only, {}, true, args.positions);
}

/// Tries to parse a local-variable declaration at statement start; on
/// success registers the names and leaves `next` at the initializer (so the
/// linear scan still sees calls inside it) or after the declarator.
bool BodyScan::try_decl(std::size_t i, std::size_t& next) {
  const std::optional<Declaration> d = body_.declaration_at(i);
  if (!d) return false;
  const bool is_eq = tk(d->after) == "=";
  if (d->structured) {
    const bool track = d->is_ref && !d->is_const;
    for (const std::string& n : d->names)
      locals_[n] = Var{track, !d->is_ref, d->is_ref};
    next = d->after + 1;
    return true;
  }
  bool track;
  bool value_type = false;
  if (d->is_ref) {
    track = !d->is_const;  // non-const alias: writes hit the aliased object
  } else if (d->is_ptr || d->is_auto) {
    // Only an `=` initializer decides freshness; `p(x)` / `p : range`
    // declare fresh storage as far as this pass is concerned.
    track = is_eq && !expr_fresh(d->init_b, d->init_e);
  } else {
    track = false;
    value_type = true;
  }
  locals_[d->names.front()] = Var{track, value_type, d->is_ref};
  next = is_eq ? d->after + 1 : d->after;
  return true;
}

/// Registers the by-value parameters of a lambda introducer at `i` as
/// value-type locals (a continuation's `p` must not classify as Env, which
/// turned `rep(p)` into a phantom environment write).  Reference parameters
/// stay unregistered: writing through them aliases caller state, and the
/// conservative Env classification is the sound one.
bool BodyScan::try_lambda(std::size_t i, std::size_t& next) {
  if (tk(i) != "[") return false;
  const std::string prevt = i > 0 ? tk(i - 1) : ";";
  // Expression position only: after an identifier, `)`, or `]` the bracket
  // is an index, not a lambda introducer.
  if (is_ident(prevt) || is_number(prevt) || prevt == ")" || prevt == "]")
    return false;
  const std::size_t cb = body_.close(i);
  if (cb >= body_.size() || tk(cb + 1) != "(") return false;
  const std::size_t pc = body_.close(cb + 1);
  if (pc >= body_.size()) return false;
  for (const auto& [b, e] : body_.split_args(cb + 1, pc)) {
    bool by_ref = false;
    std::string last_ident;
    for (std::size_t k = b; k < e; ++k) {
      const std::string& t = tk(k);
      if (t == "&" || t == "&&" || t == "*") by_ref = true;
      if (is_name(t)) last_ident = t;
    }
    if (!by_ref && !last_ident.empty())
      locals_[last_ident] = Var{false, true};
  }
  next = pc + 1;
  return true;
}

void BodyScan::run() {
  bool stmt_start = true;
  std::size_t i = 0;
  while (i < body_.size()) {
    const std::string& t = tk(i);
    if (t == ";" || t == "{" || t == "}") {
      stmt_start = true;
      ++i;
      continue;
    }
    if (t == "(") {
      stmt_start = true;  // for-init / if-declaration positions
      ++i;
      continue;
    }
    if (t == "[") {
      std::size_t next = i + 1;  // past the lambda's parameters, if one
      try_lambda(i, next);
      i = next;
      continue;
    }
    if (t == "throw") {
      // The thrown expression's constructor runs before anything can have
      // been mutated by it; suppress its call events.  When the expression
      // is a visible constructor call, its type name lets typed catch
      // handlers of enclosing try blocks stop the propagation; a bare
      // `throw;` or a rethrown variable keeps the unknown type.
      throw_hint_ = body_.throw_at(i)->type;
      emit(i, false, true, false);
      throw_hint_.clear();
      i = body_.stmt_end(i) + 1;
      stmt_start = true;
      continue;
    }
    if (t == "catch") {
      catches = true;
      ++i;
      continue;
    }
    if (t == "delete") {
      const Chain c =
          read(body_.chain_from(tk(i + 1) == "[" ? i + 3 : i + 1));
      // The named pointer's graph is destroyed — a structural write to the
      // member holding it (its pointer type keeps it out of partial plans).
      write_through(i, c);
      ++i;
      continue;
    }
    if (stmt_start && is_ident(t)) {
      std::size_t next = i;
      if (try_decl(i, next)) {
        stmt_start = false;
        i = next;
        continue;
      }
    }
    stmt_start = false;
    if (is_name(t)) {
      if (tk(i + 1) == "(") handle_call(i);
      ++i;
      continue;
    }
    if (t == "=" || t == "+=" || t == "-=" || t == "*=" || t == "/=" ||
        t == "%=" || t == "&=" || t == "|=" || t == "^=" || t == "<<=" ||
        t == ">>=") {
      const Chain c = read(body_.chain_until(i));
      if (!write_slot(i, c) && t == "=" &&
          (c.base == Kind::Fresh || c.base == Kind::TrackedLocal)) {
        // Reassigning a local pointer: its freshness follows the new value.
        std::ptrdiff_t j = static_cast<std::ptrdiff_t>(i) - 1;
        while (j >= 0 && !is_ident(tk(static_cast<std::size_t>(j)))) --j;
        if (j >= 0) {
          auto it = locals_.find(tk(static_cast<std::size_t>(j)));
          if (it != locals_.end() && !it->second.value_type)
            it->second.tracked = !expr_fresh(i + 1, body_.stmt_end(i));
        }
      }
      ++i;
      continue;
    }
    if (t == "++" || t == "--") {
      const std::string& nxt = tk(i + 1);
      const Chain c = (is_ident(nxt) || nxt == "(" || nxt == "*")
                          ? read(body_.chain_from(i + 1))
                          : read(body_.chain_until(i));
      write_slot(i, c);
      ++i;
      continue;
    }
    if (t == "<<" || t == ">>") {
      // Stream insertion/extraction mutates its left operand (shifts on
      // literals and untracked values resolve to Kind::None/Fresh).
      write_through(i, read(body_.chain_until(i)));
      ++i;
      continue;
    }
    ++i;
  }
}

/// Matches a definition's (namespace-qualified) class name to a ClassModel
/// key as written in FAT_METHOD_INFO — exact first, then suffix.
const ClassModel* class_of(const SourceModel& model, const std::string& cls) {
  if (cls.empty()) return nullptr;
  if (const ClassModel* cm = model.find_class(cls)) return cm;
  for (const auto& [key, cm] : model.classes) {
    const bool shorter = key.size() < cls.size();
    const std::string& a = shorter ? key : cls;  // the would-be suffix
    const std::string& b = shorter ? cls : key;
    if (a.size() < b.size() &&
        b.compare(b.size() - a.size(), a.size(), a) == 0 &&
        b[b.size() - a.size() - 1] == ':')
      return &cm;
  }
  return nullptr;
}

}  // namespace

EffectAnalysis analyze_effects(const SourceModel& model) {
  return analyze_effects(model, index_definitions(model));
}

EffectAnalysis analyze_effects(const SourceModel& model,
                               const std::vector<IndexedDef>& defs) {
  std::vector<bool> instrumented;
  for (const IndexedDef& d : defs) {
    const ClassModel* cm = class_of(model, d.def->class_name);
    instrumented.push_back(d.lambda.has_value() ||
                           (cm != nullptr &&
                            (cm->instrumented.count(d.def->name) ||
                             cm->statics.count(d.def->name))));
  }

  // Receiver-typed resolution inputs: which qualified classes own scanned
  // definitions per simple name, and which simple names carry any dynamic-
  // dispatch risk (FAT_POLY registration or either side of an inheritance
  // edge) — narrowing through those could miss an unscanned override.
  std::map<std::string, std::set<std::string>> def_classes_by_simple;
  for (const IndexedDef& d : defs)
    if (!d.def->class_name.empty())
      def_classes_by_simple[simple_of(d.def->class_name)].insert(
          d.def->class_name);
  const std::set<std::string> dispatch_risky = model.polymorphic();

  // Least fixpoint from bottom: every definition starts with the empty
  // summary, so self-recursion and forward references resolve to "no
  // effects yet" instead of the unknown-call fallback, whose conservative
  // event would stick through the join.  The Pass 5 bindings are solved
  // first: they depend only on the token model, not on effect summaries.
  const AliasAnalysis aliases = analyze_aliases(model, defs);
  SummaryTable<FnSummary> summaries(defs);
  Ctx ctx{&model, &summaries, &def_classes_by_simple, &dispatch_risky,
          &aliases};
  // Each definition's last scan read final summaries: the verdicts below
  // reuse it.
  struct Scan {
    std::vector<Event> events;
    bool catches = false;
  };
  std::vector<Scan> last(defs.size());
  summaries.solve(
      [&](std::size_t n) {
        BodyScan scan(defs[n], ctx);
        scan.run();
        FnSummary next;
        for (const Event& ev : scan.events) {
          next.may_throw |= ev.thr;
          if (!ev.mut) continue;
          if (!ev.via_param) {
            next.mutates_env = true;
            next.writes_unknown |= ev.target_unknown;
            next.writes.insert(ev.targets.begin(), ev.targets.end());
            continue;
          }
          next.mutates_params = true;
          next.param_writes_unknown |= ev.target_unknown;
          next.param_writes.insert(ev.targets.begin(), ev.targets.end());
          next.param_positions_unknown |= ev.via_positions.empty();
          next.write_param_positions.insert(ev.via_positions.begin(),
                                            ev.via_positions.end());
        }
        next.may_throw |= instrumented[n];  // injection point at wrapper entry
        next.catches = scan.catches;
        last[n] = {std::move(scan.events), scan.catches};
        return next;
      },
      join);

  // Final positioned pass over every instrumented method: the verdict.
  EffectAnalysis out;
  for (const auto& [cls_name, cm] : model.classes) {
    auto add = [&](const std::string& method, bool is_static) {
      EffectSummary es;
      es.class_name = cls_name;
      es.method_name = method;
      es.qualified_name = cls_name + "::" + method;
      es.is_static = is_static;
      auto add_reason = [&es](const char* r) {
        es.write_top = true;
        std::vector<std::string>& rs = es.write_top_reasons;
        if (std::find(rs.begin(), rs.end(), r) == rs.end()) rs.push_back(r);
      };
      for (std::size_t n = 0; n < defs.size(); ++n) {
        const IndexedDef& d = defs[n];
        if (d.def->name != method || class_of(model, d.def->class_name) != &cm)
          continue;
        const Scan& scan = last[n];
        es.scanned = true;
        es.catches = scan.catches;
        std::size_t first_mut = std::numeric_limits<std::size_t>::max();
        std::size_t last_thr = 0;
        for (const Event& ev : scan.events) {
          if (ev.mut) {
            ++es.mutation_events;
            first_mut = std::min(first_mut, ev.pos);
          }
          if (ev.thr) {
            ++es.throw_events;
            last_thr = std::max(last_thr, ev.pos);
          }
        }
        es.read_only = es.mutation_events == 0;
        es.commit_point_last = es.mutation_events == 0 ||
                               es.throw_events == 0 || last_thr < first_mut;
        // Pre-injection write set (Pass 3 input): a mutation needs rolling
        // back only when some injection point can still fire at or after it
        // (pos <= last_thr; equality covers a single call that both mutates
        // and throws).
        const FnAliasInfo& ai = *aliases.find(d.key);
        if (es.throw_events > 0) {
          for (const Event& ev : scan.events) {
            if (!ev.mut || ev.pos > last_thr) continue;
            if (ev.via_param) {
              // Writes through parameters riding in the wrapper's
              // FAT_INVOKE_ARGS std::tie are part of the checkpoint root
              // tuple: when every position is tied and the targets are
              // named, the write is restorable like any member write.
              const bool tied =
                  !ev.target_unknown && !ev.via_positions.empty() &&
                  std::includes(ai.tied_positions.begin(),
                                ai.tied_positions.end(),
                                ev.via_positions.begin(),
                                ev.via_positions.end());
              if (tied)
                es.write_names.insert(ev.targets.begin(), ev.targets.end());
              else
                add_reason("parameter-aliased write");
            } else if (ev.target_unknown) {
              add_reason("unresolved write target");
            } else {
              es.write_names.insert(ev.targets.begin(), ev.targets.end());
            }
          }
        }
        // A receiver escaping via `this` can be written through aliases the
        // event scan never sees.  The alias pass's per-token classification
        // decides; `this` passed only into sinks the interprocedural
        // summaries prove side-effect-free does not escape.
        bool escapes = ai.this_top;
        for (const std::string& sink : ai.this_sinks) {
          if (escapes) break;
          const FnSummary* fs = summaries.callee(d.def->class_name, sink);
          if (fs == nullptr || fs->mutates_env || fs->mutates_params)
            escapes = true;
        }
        if (escapes) add_reason("receiver escapes via this");
        break;
      }
      out.methods[es.qualified_name] = std::move(es);
    };
    for (const std::string& m : cm.instrumented) add(m, false);
    for (const std::string& m : cm.statics) add(m, true);
  }
  out.helpers = summaries.keyed();
  return out;
}

}  // namespace fatomic::analyze
