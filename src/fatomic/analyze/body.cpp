#include "fatomic/analyze/body.hpp"

#include <algorithm>
#include <cctype>
#include <cstddef>

namespace fatomic::analyze {

bool is_ident(const std::string& t) {
  return !t.empty() && (std::isalpha(static_cast<unsigned char>(t[0])) ||
                        t[0] == '_');
}

bool is_number(const std::string& t) {
  return !t.empty() && std::isdigit(static_cast<unsigned char>(t[0]));
}

bool is_name(const std::string& t) {
  return is_ident(t) && !keywords().count(t);
}

const std::set<std::string>& keywords() {
  static const std::set<std::string> kw = {
      "if",       "else",    "for",      "while",     "do",       "switch",
      "case",     "default", "return",   "break",     "continue", "throw",
      "try",      "catch",   "new",      "delete",    "const",    "static",
      "class",    "struct",  "enum",     "union",     "public",   "private",
      "protected", "namespace", "using", "template",  "typename", "operator",
      "sizeof",   "true",    "false",    "nullptr",   "this",     "auto",
      "void",     "int",     "bool",     "char",      "unsigned", "signed",
      "long",     "short",   "float",    "double",    "noexcept", "override",
      "final",    "virtual", "explicit", "inline",    "constexpr", "mutable",
      "friend",   "goto",    "extern",   "typedef",   "static_cast",
      "dynamic_cast", "const_cast", "reinterpret_cast", "decltype",
  };
  return kw;
}

const std::set<std::string>& builtin_types() {
  static const std::set<std::string> t = {
      "void", "int",  "bool",   "char",     "unsigned",
      "long", "short", "float", "double",   "signed",
  };
  return t;
}

std::string simple_of(const std::string& qualified) {
  const std::size_t sep = qualified.rfind("::");
  return sep == std::string::npos ? qualified : qualified.substr(sep + 2);
}

namespace {

/// 1/2/3 for ( [ {, -1/-2/-3 for ) ] }, 0 for anything else.
int bracket(const std::string& t) {
  if (t.size() != 1) return 0;
  switch (t[0]) {
    case '(': return 1;
    case '[': return 2;
    case '{': return 3;
    case ')': return -1;
    case ']': return -2;
    case '}': return -3;
    default: return 0;
  }
}

}  // namespace

TokenView::TokenView(const std::vector<Token>& tokens, std::size_t begin,
                     std::size_t end)
    : tokens_(&tokens),
      begin_(begin),
      size_(end > begin ? end - begin : 0),
      partner_(size_, npos) {
  // A closer pairs with the nearest open bracket of its kind; brackets left
  // open in between (stray input) stay unmatched, so every pair nests.
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < size_; ++i) {
    const int b = bracket(tk(i));
    if (b > 0) {
      open.push_back(i);
      continue;
    }
    if (b == 0) continue;
    for (std::size_t s = open.size(); s-- > 0;) {
      if (bracket(tk(open[s])) != -b) continue;
      partner_[i] = open[s];
      partner_[open[s]] = i;
      open.resize(s);
      break;
    }
  }
}

std::size_t TokenView::enclosing_open(std::size_t i) const {
  for (std::size_t k = std::min(i, size_); k-- > 0;) {
    const int b = bracket(tk(k));
    if (b > 0) return k;
    if (b < 0) {
      if (partner_[k] == npos) return npos;
      k = partner_[k];  // skip the closed group
    }
  }
  return npos;
}

std::size_t TokenView::end_of(std::size_t i, bool at_comma) const {
  std::size_t k = i;
  while (k < size_) {
    const std::string& t = tk(k);
    const int b = bracket(t);
    if (b > 0) {
      if (partner_[k] == npos) return size_;
      k = partner_[k] + 1;  // skip the bracketed group
      continue;
    }
    if (b < 0 || t == ";" || (at_comma && t == ",")) return k;
    ++k;
  }
  return size_;
}

std::vector<std::pair<std::size_t, std::size_t>> TokenView::split_args(
    std::size_t open, std::size_t close_pos) const {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  if (close_pos <= open + 1) return out;
  std::size_t b = open + 1;
  for (std::size_t k = open + 1; k < close_pos && k < size_; ++k) {
    const std::string& t = tk(k);
    if (bracket(t) > 0) {
      if (partner_[k] == npos || partner_[k] >= close_pos) break;
      k = partner_[k];
    } else if (t == ",") {
      out.emplace_back(b, k);
      b = k + 1;
    }
  }
  out.emplace_back(b, close_pos);
  return out;
}

namespace {

bool is_named_cast(const std::string& t) {
  return t == "static_cast" || t == "dynamic_cast" || t == "const_cast" ||
         t == "reinterpret_cast";
}

}  // namespace

PostfixChain TokenView::chain_from(std::size_t b, std::size_t e) const {
  return chain_from(b, std::min(e, size_), 0);
}

PostfixChain TokenView::chain_from(std::size_t b, std::size_t e,
                                   int depth) const {
  PostfixChain c;
  c.begin = b;
  std::size_t k = b;
  while (k < e && (tk(k) == "*" || tk(k) == "&")) c.prefix.push_back(tk(k++));
  // The operand: a group — a parenthesized chain or a named cast's
  // operand, spliced in, else opaque — or a (qualified) name or `this`.
  std::size_t group = tk(k) == "(" ? k : npos;
  if (is_named_cast(tk(k)) && tk(k + 1) == "<" && tk(angle_end(k + 1)) == "(")
    group = angle_end(k + 1);
  if (group != npos) {
    const std::size_t close_pos = close(group);
    if (close_pos >= e) {
      c.end = k;
      return c;
    }
    // `make<T>(x)`: a templated callee's arguments, not an operand.
    PostfixChain in;
    if (depth < kMaxGroupDepth && !(group == k && tk(k - 1) == ">"))
      in = chain_from(group + 1, close_pos, depth + 1);
    c.opaque = in.end != close_pos || in.head.empty() ||
               std::count(in.prefix.begin(), in.prefix.end(), "&") > 0;
    if (!c.opaque) {
      const std::size_t stars = in.prefix.size(), at = in.begin;
      in.prefix = std::move(c.prefix);
      in.begin = b;
      c = std::move(in);
      for (std::size_t s = stars; s-- > 0;)  // the innermost `*` first
        c.links.push_back({ChainLink::Kind::Deref, "", at + s, 0});
    }
    k = close_pos + 1;
  } else if (k < e && (is_name(tk(k)) || tk(k) == "this")) {
    for (; tk(k + 1) == "::" && k + 2 < e && is_name(tk(k + 2)); k += 2)
      c.quals.push_back(tk(k));
    c.head = tk(k);
    c.head_pos = k++;
  }
  for (; k < e; ++k) {
    const std::string& t = tk(k);
    if ((t == "." || t == "->") && k + 1 < e && is_name(tk(k + 1))) {
      ++k;  // `x.Base::f`: the last name is the member
      while (tk(k + 1) == "::" && k + 2 < e && is_name(tk(k + 2))) k += 2;
      c.links.push_back({t == "." ? ChainLink::Kind::Member
                                  : ChainLink::Kind::Arrow,
                         tk(k), k, 0});
    } else if ((t == "(" || t == "[") && close(k) < e) {
      c.links.push_back({t == "(" ? ChainLink::Kind::Call
                                  : ChainLink::Kind::Index,
                         "", k, close(k)});
      k = close(k);
    } else {
      break;
    }
  }
  c.end = k;
  return c;
}

std::size_t TokenView::chain_start(std::size_t end) const {
  std::size_t j = std::min(end, size_);
  // Walk left over names joined by `.`, `->` and `::` (a member link
  // counts even when nothing parseable precedes it: `Foo{x}.f`), and over
  // bracket groups.
  while (j > 0) {
    const std::string& t = tk(j - 1);
    if ((t == ")" || t == "]") && open_of(j - 1) != npos) {
      j = open_of(j - 1);
      if (tk(j - 1) != ">") continue;
      // A named cast's operand, else a templated callee's arguments.
      std::size_t a = j - 1;
      while (a > 0 && tk(a) != "<" && tk(a) != ";") --a;
      if (a > 0 && is_named_cast(tk(a - 1))) j = a - 1;
      break;
    }
    if (!is_name(t) && t != "this") break;
    const std::string& sep = tk(--j - 1);
    if (j == 0 || !(sep == "." || sep == "->" ||
                    (sep == "::" && is_name(tk(j - 2)))))
      break;
    --j;
  }
  while ((tk(j - 1) == "*" || tk(j - 1) == "&") && operand_starts(j - 1)) --j;
  return j;
}

bool TokenView::operand_starts(std::size_t i) const {
  const std::string& p = tk(i - 1);  // the empty token when i == 0
  if (p != ")")
    return !(is_name(p) || is_number(p) || p == "this" || p == "]" ||
             p == "\"\"" || p == "''");
  // `if (c) *p = v`: a statement header's closing parenthesis.
  const std::string& kw = tk(open_of(i - 1) - 1);
  return kw == "if" || kw == "while" || kw == "for" || kw == "switch";
}

std::size_t TokenView::angle_end(std::size_t open) const {
  int depth = 0;
  for (std::size_t j = open; j < size_; ++j) {
    const std::string& t = tk(j);
    if (t == "<") {
      ++depth;
    } else if (t == ">") {
      if (--depth == 0) return j + 1;
    } else if (t == ">>") {
      if ((depth -= 2) <= 0) return j + 1;
    } else if (t == ";" || t == "{" || t == "}") {
      return npos;
    }
  }
  return npos;
}

BodyIndex::BodyIndex(const std::vector<Token>& tokens, std::size_t begin,
                     std::size_t end,
                     const std::map<std::string, std::set<std::string>>& bases)
    : TokenView(tokens, begin, end),
      bases_(&bases) {
  const std::size_t n = size();
  // Outermost loops: a mutation inside one is placed at its first token, a
  // throw at its last — any iteration's throw may follow any iteration's
  // mutation.
  std::size_t i = 0;
  while (i < n) {
    const std::string& t = tk(i);
    if (t != "for" && t != "while" && t != "do") {
      ++i;
      continue;
    }
    const std::size_t start = i;
    std::size_t end = i;
    if (t == "do") {
      if (tk(i + 1) != "{") {
        ++i;
        continue;
      }
      end = close(i + 1);
      if (tk(end + 1) == "while" && tk(end + 2) == "(") end = close(end + 2);
    } else {
      if (tk(i + 1) != "(") {
        ++i;
        continue;
      }
      const std::size_t header = close(i + 1);
      if (header >= n) break;
      end = tk(header + 1) == "{" ? close(header + 1) : stmt_end(header + 1);
    }
    end = std::min(end, n - 1);
    loops_.emplace_back(start, end);
    i = end + 1;
  }

  // `try { body } catch (T1) {h1} catch (T2) {h2} ...`, nested ones too.
  for (std::size_t t = 0; t + 1 < n; ++t) {
    if (tk(t) != "try" || tk(t + 1) != "{") continue;
    TryRegion r;
    const std::size_t body_close = close(t + 1);
    if (body_close >= n) continue;
    r.body_b = t + 2;
    r.body_e = body_close;
    std::size_t k = body_close + 1;
    while (tk(k) == "catch" && tk(k + 1) == "(") {
      const std::size_t pclose = close(k + 1);
      if (pclose >= n) break;
      std::vector<std::string> idents;
      bool all = false;
      for (std::size_t m = k + 2; m < pclose; ++m) {
        const std::string& h = tk(m);
        if (h == "..." || h == ".") all = true;
        if (is_ident(h) && h != "const" && !builtin_types().count(h))
          idents.push_back(h);
      }
      if (all) {
        r.catches_all = true;
      } else if (!idents.empty()) {
        // Drop a trailing variable name (`catch (const E& e)`): the last
        // identifier is the variable exactly when it sits right before `)`
        // after another identifier or a declarator token.
        if (idents.size() >= 2 && is_ident(tk(pclose - 1)) &&
            tk(pclose - 1) == idents.back())
          idents.pop_back();
        r.handler_types.push_back(idents.back());
      }
      if (tk(pclose + 1) != "{") break;
      k = close(pclose + 1) + 1;
    }
    trys_.push_back(r);
  }

  for (std::size_t t = 0; t < n; ++t) {
    if (tk(t) != "throw") continue;
    ThrowSite s;
    s.pos = t;
    const PostfixChain c = chain_from(t + 1);
    s.qualified = !c.quals.empty();
    if (c.prefix.empty() && is_name(c.head) &&
        (tk(c.head_pos + 1) == "(" || tk(c.head_pos + 1) == "{"))
      s.type = c.head;
    throws_.push_back(s);
  }
}

const std::pair<std::size_t, std::size_t>* BodyIndex::loop_at(
    std::size_t pos) const {
  auto it = std::upper_bound(
      loops_.begin(), loops_.end(), pos,
      [](std::size_t p, const std::pair<std::size_t, std::size_t>& l) {
        return p < l.first;
      });
  if (it == loops_.begin()) return nullptr;
  --it;
  return pos <= it->second ? &*it : nullptr;
}

const ThrowSite* BodyIndex::throw_at(std::size_t pos) const {
  auto it = std::lower_bound(
      throws_.begin(), throws_.end(), pos,
      [](const ThrowSite& s, std::size_t p) { return s.pos < p; });
  return it != throws_.end() && it->pos == pos ? &*it : nullptr;
}

bool BodyIndex::handler_matches(const std::string& handler,
                                const std::string& type) const {
  if (handler == type) return true;
  // handler is a (transitive) base of the thrown type, per the scanned
  // inheritance edges.  Unknown bases simply end the walk: no match, the
  // throw keeps propagating — conservative.
  std::vector<std::string> work{type};
  std::set<std::string> seen;
  while (!work.empty()) {
    const std::string cur = work.back();
    work.pop_back();
    if (!seen.insert(cur).second) continue;
    auto it = bases_->find(cur);
    if (it == bases_->end()) continue;
    for (const std::string& b : it->second) {
      if (b == handler) return true;
      work.push_back(b);
    }
  }
  return false;
}

bool BodyIndex::escapes(std::size_t pos, const std::string& type) const {
  for (const TryRegion& r : trys_) {
    if (pos < r.body_b || pos >= r.body_e) continue;
    if (r.catches_all) return false;
    if (type.empty()) continue;  // unknown type: only catch (...) is certain
    for (const std::string& h : r.handler_types)
      if (handler_matches(h, type)) return false;
  }
  return true;
}

std::optional<Declaration> BodyIndex::declaration_at(std::size_t i) const {
  Declaration d;
  std::size_t j = i;
  while (tk(j) == "const" || tk(j) == "static" || tk(j) == "constexpr") {
    if (tk(j) == "const") d.is_const = true;
    ++j;
  }
  if (tk(j) == "auto") {
    d.is_auto = true;
    ++j;
  } else {
    const std::string& first = tk(j);
    if (!is_ident(first)) return std::nullopt;
    if (keywords().count(first) && !builtin_types().count(first))
      return std::nullopt;
    if (builtin_types().count(first)) {
      while (builtin_types().count(tk(j))) ++j;
    } else {
      ++j;
      while (tk(j) == "::" && is_ident(tk(j + 1))) j += 2;
    }
    if (tk(j) == "<") {  // template arguments
      j = angle_end(j);
      if (j == npos) return std::nullopt;
    }
  }
  while (tk(j) == "*" || tk(j) == "&" || tk(j) == "&&" || tk(j) == "const") {
    if (tk(j) == "*")
      d.is_ptr = true;
    else if (tk(j) == "const")
      d.is_const = true;
    else
      d.is_ref = true;
    ++j;
  }

  if (d.is_auto && tk(j) == "[") {  // structured binding
    for (++j; j < size() && tk(j) != "]"; ++j)
      if (is_ident(tk(j))) d.names.push_back(tk(j));
    if (tk(j) != "]") return std::nullopt;
    ++j;
    if (tk(j) != "=" && tk(j) != ":") return std::nullopt;
    d.structured = true;
    d.after = j;
    d.init_b = j + 1;
    d.init_e = expr_end(j + 1);
    return d;
  }

  const std::string& name = tk(j);
  if (!is_name(name)) return std::nullopt;
  const std::string& after = tk(j + 1);
  if (after != "=" && after != ";" && after != "," && after != ":" &&
      after != "(" && after != "{" && after != ")")
    return std::nullopt;
  d.names.push_back(name);
  d.after = j + 1;
  d.init_b = d.init_e = j + 2;
  if (after == "=" || after == ":")
    d.init_e = expr_end(j + 2);
  else if (after == "(" || after == "{")
    d.init_e = close(j + 1);
  return d;
}

std::vector<IndexedDef> index_definitions(const SourceModel& model) {
  std::vector<IndexedDef> out;
  out.reserve(model.functions.size());
  for (const FunctionDef& def : model.functions) {
    IndexedDef d{&def,
                 def.class_name.empty() ? def.name
                                        : def.class_name + "::" + def.name,
                 BodyIndex(def.body, 0, def.body.size(), model.bases),
                 std::nullopt};
    // The lambda body is the brace group after the first FAT_INVOKE* token.
    const BodyIndex& w = d.whole;
    for (std::size_t i = 0; i < w.size(); ++i) {
      if (w.tk(i).rfind("FAT_INVOKE", 0) != 0) continue;
      std::size_t open = i + 1;
      while (open < w.size() && w.tk(open) != "{") ++open;
      const std::size_t close = w.close(open);
      if (close < w.size())
        d.lambda.emplace(def.body, open + 1, close, model.bases);
      break;
    }
    out.push_back(std::move(d));
  }
  return out;
}

}  // namespace fatomic::analyze
