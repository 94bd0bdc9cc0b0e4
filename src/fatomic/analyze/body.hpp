// The shared front end of the static analyzer's body passes (Pass 1
// effects, Pass 4 call graph, Pass 5 aliases) and of the source scanner.
//
// Every pass reads the same token streams and needs the same lexical
// structure: which bracket closes which, where a statement or an
// initializer ends, which loops and try blocks enclose a position, what a
// `throw` constructs, and what a local declaration introduces.  This header
// is the only place those facts are computed.  A `TokenView` pairs the
// brackets of a token range once; a `BodyIndex` adds the body-level
// structure; `index_definitions` builds both views of every scanned
// definition once per analysis, so the fixpoint only looks facts up.  The
// passes keep their own transfer rules — only the lexical layer is shared.
#pragma once

#include <cstddef>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fatomic/analyze/source_model.hpp"

namespace fatomic::analyze {

/// Starts like an identifier (letter or underscore).
bool is_ident(const std::string& t);
/// Starts like a numeric literal.
bool is_number(const std::string& t);
/// An identifier that is neither a keyword nor a literal: a name.
bool is_name(const std::string& t);
/// C++ keywords the scanners must never take for names, including the
/// named casts and `decltype`.
const std::set<std::string>& keywords();
/// Fundamental type keywords.
const std::set<std::string>& builtin_types();
/// "ns::Class" -> "Class"; unqualified names are returned unchanged.
std::string simple_of(const std::string& qualified);

/// One postfix link of a chain, in source order.
struct ChainLink {
  enum class Kind {
    Member,  ///< `.name`
    Arrow,   ///< `->name`
    Call,    ///< `(args)`
    Index,   ///< `[expr]`
    Deref,   ///< a `*` inside a parenthesized operand: `(*p).x`
  };
  Kind kind = Kind::Member;
  std::string name;       ///< Member / Arrow: the member named
  std::size_t pos = 0;    ///< the name, the opening bracket, or the `*`
  std::size_t close = 0;  ///< Call / Index: the closing bracket
};

/// A postfix chain: prefix operators, a head and its links, e.g.
/// `*a->b.c`, `f(x)->m`, `ns::f(a).b`, `arr[i]`.  Parentheses and the
/// named casts are transparent: `(*p).x` reads as head `p` with links
/// [Deref, .x], `static_cast<T*>(p)->x` as head `p` with link ->x.
struct PostfixChain {
  std::size_t begin = 0, end = 0;  ///< the token range [begin, end) read
  /// Unary `*` and `&` before the operand, outermost first.
  std::vector<std::string> prefix;
  /// `this` or a name; empty for a literal, `new`, a missing operand or an
  /// opaque one.
  std::string head;
  std::size_t head_pos = 0;
  /// The qualifiers written before the head: {A, B} for `A::B::f`.
  std::vector<std::string> quals;
  /// The operand is a parenthesized expression that is no chain (`(a + b)`)
  /// or the call of a templated callee (`make<T>(x)`); links may follow.
  bool opaque = false;
  std::vector<ChainLink> links;
};

/// Bounds-safe view of the token range [begin, end) with its bracket
/// structure precomputed.  Positions are relative to `begin`; reads past
/// the range yield the empty token, so scanners never index out of bounds.
class TokenView {
 public:
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  TokenView(const std::vector<Token>& tokens, std::size_t begin,
            std::size_t end);
  explicit TokenView(const std::vector<Token>& tokens)
      : TokenView(tokens, 0, tokens.size()) {}

  std::size_t size() const { return size_; }
  const std::string& tk(std::size_t i) const {
    static const std::string empty;
    return i < size_ ? (*tokens_)[begin_ + i].text : empty;
  }

  /// The closing partner of the opening bracket at `open` ((, [ or {), or
  /// size() when it has none.
  std::size_t close(std::size_t open) const {
    return open < size_ && partner_[open] != npos ? partner_[open] : size_;
  }
  /// The opening partner of the closing bracket at `close_pos`, or npos.
  std::size_t open_of(std::size_t close_pos) const {
    return close_pos < size_ ? partner_[close_pos] : npos;
  }
  /// The innermost unclosed opening bracket before `i`, or npos.
  std::size_t enclosing_open(std::size_t i) const;
  /// End of the statement through `i`: the next `;` outside brackets or the
  /// first unbalanced closing bracket (size() when neither follows).
  std::size_t stmt_end(std::size_t i) const { return end_of(i, false); }
  /// Like stmt_end, but a top-level `,` also ends the expression (one
  /// initializer of a declaration list).
  std::size_t expr_end(std::size_t i) const { return end_of(i, true); }
  /// The comma-separated argument ranges [b, e) strictly between the
  /// brackets at `open` and `close_pos`; empty for an empty list.
  std::vector<std::pair<std::size_t, std::size_t>> split_args(
      std::size_t open, std::size_t close_pos) const;
  /// Parses the postfix chain starting at `b`, reading no token at or past
  /// `e`.  It stops at the first token that continues no chain.
  PostfixChain chain_from(std::size_t b, std::size_t e = npos) const;
  /// The postfix chain that ends right before `end`: the target of an
  /// assignment-like operator, the receiver before a member call's `.`.
  PostfixChain chain_until(std::size_t end) const {
    return chain_from(chain_start(end), end);
  }
  /// The position after the `>` closing the template argument list that
  /// opens at `open` (`>>` closes two levels), or npos when a `;`, `{` or
  /// `}` comes first or the range ends.
  std::size_t angle_end(std::size_t open) const;

 private:
  /// Parenthesized operands nested deeper than this read as opaque.
  static constexpr int kMaxGroupDepth = 16;

  std::size_t end_of(std::size_t i, bool at_comma) const;
  PostfixChain chain_from(std::size_t b, std::size_t e, int depth) const;
  /// Where the chain ending right before `end` begins (its prefix
  /// operators included).
  std::size_t chain_start(std::size_t end) const;
  /// Does the token at `i` begin an operand, so that a `*` or `&` there is
  /// unary?
  bool operand_starts(std::size_t i) const;

  const std::vector<Token>* tokens_;
  std::size_t begin_, size_;
  /// Bracket partner of every (, [, {, ), ], } — npos when unmatched.
  std::vector<std::size_t> partner_;
};

/// A `try` block: its body's token range and what its handlers catch.
struct TryRegion {
  std::size_t body_b = 0, body_e = 0;  ///< try-block body token range
  bool catches_all = false;            ///< has a `catch (...)` handler
  std::vector<std::string> handler_types;  ///< simple type names
};

/// An explicit `throw` at `pos`.  `type` is the last identifier of the
/// thrown chain when the expression visibly constructs it
/// (`throw ns::Error(...)`, `throw Error{...}`), empty otherwise (a rethrow,
/// a thrown variable, an unresolvable expression).
struct ThrowSite {
  std::size_t pos = 0;
  std::string type;
  bool qualified = false;  ///< the constructed type was written with `::`
};

/// A local declaration recognised at a statement start.
struct Declaration {
  /// The declared name, or every name of a structured binding.
  std::vector<std::string> names;
  bool structured = false;
  bool is_auto = false;
  bool is_const = false;  ///< `const` among the specifiers or declarators
  bool is_ptr = false;
  bool is_ref = false;  ///< `&` or `&&`
  /// Position of the token after the declarator: one of = ; , : ( { ) —
  /// for a structured binding, its `=` or `:`.
  std::size_t after = 0;
  /// Initializer token range [init_b, init_e); empty when there is none.
  std::size_t init_b = 0, init_e = 0;
};

/// One function body (or a sub-range of it) with its structure indexed.
class BodyIndex : public TokenView {
 public:
  /// `bases` is the model's inheritance map, consulted by escapes().
  BodyIndex(const std::vector<Token>& tokens, std::size_t begin,
            std::size_t end,
            const std::map<std::string, std::set<std::string>>& bases);

  /// The outermost loop (`for`/`while`/`do`) covering `pos` as its first
  /// and last token, or nullptr outside loops.
  const std::pair<std::size_t, std::size_t>* loop_at(std::size_t pos) const;
  /// Every explicit throw, in token order.
  const std::vector<ThrowSite>& throws() const { return throws_; }
  /// The throw site at `pos`, or nullptr when no `throw` is there.
  const ThrowSite* throw_at(std::size_t pos) const;

  /// Can an exception of `type` raised at `pos` leave the enclosing try
  /// blocks?  An empty `type` is unknown and stops only at `catch (...)`;
  /// a known type also stops at a handler naming it or one of its
  /// (transitive) bases.  Types compare as written.
  bool escapes(std::size_t pos, const std::string& type) const;

  /// Parses a local declaration starting at `i`: `const`/`static`
  /// specifiers, `auto` or a (qualified, templated) type, pointer and
  /// reference declarators, then a name or a structured binding.
  std::optional<Declaration> declaration_at(std::size_t i) const;

 private:
  bool handler_matches(const std::string& handler,
                       const std::string& type) const;

  const std::map<std::string, std::set<std::string>>* bases_;
  /// Outermost loop intervals, disjoint and in token order.
  std::vector<std::pair<std::size_t, std::size_t>> loops_;
  /// Every try block, nested ones included.  Handler bodies lie outside the
  /// recorded ranges, so a throw in a handler — a `throw;` rethrow too — is
  /// covered only by outer try blocks, exactly C++'s semantics.
  std::vector<TryRegion> trys_;
  std::vector<ThrowSite> throws_;
};

/// One scanned definition, indexed once for every pass.
struct IndexedDef {
  const FunctionDef* def = nullptr;
  /// "Class::name" for members, bare "name" for free functions.
  std::string key;
  /// The full body (the call graph and the alias pass read it).
  BodyIndex whole;
  /// The FAT_INVOKE lambda body of an instrumented wrapper, when present
  /// (the effect pass's view: the wrapper's own plumbing is not the
  /// method).
  std::optional<BodyIndex> lambda;

  const BodyIndex& invoke_body() const { return lambda ? *lambda : whole; }
};

/// Indexes every definition of `model.functions`, in order.  The result
/// points into `model`, which must outlive it.
std::vector<IndexedDef> index_definitions(const SourceModel& model);

}  // namespace fatomic::analyze
