#include "fatomic/analyze/source_model.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "fatomic/analyze/body.hpp"

namespace fatomic::analyze {

namespace {

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

std::vector<Token> tokenize(const std::string& src) {
  std::vector<Token> out;
  const std::size_t n = src.size();
  std::size_t i = 0;
  auto at = [&](std::size_t k) { return k < n ? src[k] : '\0'; };
  while (i < n) {
    const char c = src[i];
    if (c == '\\' && at(i + 1) == '\n') {
      i += 2;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '/' && at(i + 1) == '/') {
      while (i < n && src[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && at(i + 1) == '*') {
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) ++i;
      i = std::min(n, i + 2);
      continue;
    }
    if (c == '#') {  // preprocessor directive, possibly line-continued
      while (i < n && src[i] != '\n') {
        if (src[i] == '\\' && at(i + 1) == '\n') ++i;
        ++i;
      }
      continue;
    }
    if (c == 'R' && at(i + 1) == '"') {  // raw string literal
      std::size_t j = i + 2;
      std::string delim;
      while (j < n && src[j] != '(') delim.push_back(src[j++]);
      const std::string closer = ")" + delim + "\"";
      const std::size_t end = src.find(closer, j);
      i = end == std::string::npos ? n : end + closer.size();
      out.push_back({"\"\""});
      continue;
    }
    if (c == '"') {
      ++i;
      while (i < n && src[i] != '"') {
        if (src[i] == '\\') ++i;
        ++i;
      }
      ++i;
      out.push_back({"\"\""});
      continue;
    }
    if (c == '\'') {
      ++i;
      while (i < n && src[i] != '\'') {
        if (src[i] == '\\') ++i;
        ++i;
      }
      ++i;
      out.push_back({"''"});
      continue;
    }
    if (ident_char(c)) {
      std::size_t j = i;
      while (j < n && ident_char(src[j])) ++j;
      out.push_back({src.substr(i, j - i)});
      i = j;
      continue;
    }
    static const char* ops3[] = {"<<=", ">>=", "->*", "..."};
    static const char* ops2[] = {"::", "->", "++", "--", "<<", ">>", "<=",
                                 ">=", "==", "!=", "&&", "||", "+=", "-=",
                                 "*=", "/=", "%=", "&=", "|=", "^="};
    bool matched = false;
    for (const char* op : ops3) {
      if (src.compare(i, 3, op) == 0) {
        out.push_back({op});
        i += 3;
        matched = true;
        break;
      }
    }
    if (matched) continue;
    for (const char* op : ops2) {
      if (src.compare(i, 2, op) == 0) {
        out.push_back({op});
        i += 2;
        matched = true;
        break;
      }
    }
    if (matched) continue;
    out.push_back({std::string(1, c)});
    ++i;
  }
  return out;
}

namespace {

using Tokens = std::vector<Token>;

/// Joins identifier/"::" tokens starting at `i` into a qualified name;
/// advances `i` past them.
std::string read_qualified(const Tokens& t, std::size_t& i) {
  std::string name;
  while (i < t.size() && (is_ident(t[i].text) || t[i].text == "::")) {
    name += t[i].text;
    ++i;
  }
  return name;
}

/// FAT_METHOD_INFO / FAT_STATIC_INFO / FAT_CTOR_INFO / FAT_REFLECT harvester.
void harvest_macros(const Tokens& t, const TokenView& v, SourceModel& model) {
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    const std::string& m = t[i].text;
    const bool method = m == "FAT_METHOD_INFO";
    const bool stat = m == "FAT_STATIC_INFO";
    const bool ctor = m == "FAT_CTOR_INFO";
    const bool reflect = m == "FAT_REFLECT" || m == "FAT_REFLECT_EMPTY";
    const bool poly = m == "FAT_POLY";
    if (!(method || stat || ctor || reflect || poly) || t[i + 1].text != "(")
      continue;
    const std::size_t close = v.close(i + 1);
    if (close >= t.size()) continue;
    std::size_t k = i + 2;
    const std::string cls = read_qualified(t, k);
    if (cls.empty()) continue;
    if (poly) {
      // FAT_POLY(Base, Derived): both ends are polymorphic types.
      model.poly_classes.insert(simple_of(cls));
      if (k < close && t[k].text == ",") {
        ++k;
        const std::string derived = read_qualified(t, k);
        if (!derived.empty()) model.poly_classes.insert(simple_of(derived));
      }
      i = close;
      continue;
    }
    ClassModel& cm = model.classes[cls];
    cm.qualified_name = cls;
    if (reflect) {
      cm.reflected = true;
      for (; k < close; ++k) {
        if (t[k].text != "FAT_FIELD" && t[k].text != "FAT_OWNED") continue;
        // FAT_FIELD(Class, field) / FAT_OWNED(Class, field)
        std::size_t f = k + 2;
        (void)read_qualified(t, f);  // class
        if (f < close && t[f].text == ",") {
          ++f;
          if (f < close && is_ident(t[f].text)) cm.fields.insert(t[f].text);
        }
      }
    } else if (ctor) {
      cm.has_ctor_info = true;
    } else {
      if (k >= close || t[k].text != ",") continue;
      ++k;
      if (k >= close || !is_ident(t[k].text)) continue;
      const std::string name = t[k].text;
      (stat ? cm.statics : cm.instrumented).insert(name);
      if (!stat) model.instrumented_names.insert(name);
      auto& throws = cm.declared_throws[name];
      for (++k; k < close; ++k) {
        if (t[k].text != "FAT_THROWS" || t[k + 1].text != "(") continue;
        std::size_t e = k + 2;
        const std::string type = read_qualified(t, e);
        if (!type.empty()) throws.push_back(type);
        k = e;
      }
    }
    i = close;
  }
}

/// Collects names of inline const methods whose bodies are verifiably
/// effect-free: `name(...) const { body }` where body contains no `throw`,
/// no FAT_ macro, and no call to an instrumented method name.
void harvest_clean_const(const Tokens& t, const TokenView& v,
                         SourceModel& model) {
  for (std::size_t i = 2; i + 1 < t.size(); ++i) {
    if (t[i].text != "const" || t[i - 1].text != ")") continue;
    if (t[i + 1].text != "{") continue;
    const std::size_t open = v.open_of(i - 1);
    if (open == TokenView::npos || open == 0) continue;
    const std::string& name = t[open - 1].text;
    if (!is_ident(name) || keywords().count(name)) continue;
    const std::size_t end = v.close(i + 1);
    if (end >= t.size()) continue;
    bool clean = true;
    for (std::size_t k = i + 2; k < end; ++k) {
      const std::string& b = t[k].text;
      if (b == "throw" || b.rfind("FAT_", 0) == 0 ||
          (model.instrumented_names.count(b) && k + 1 < end &&
           t[k + 1].text == "(")) {
        clean = false;
        break;
      }
    }
    if (clean) model.clean_const_names.insert(name);
  }
}

/// Records the simple name of every class/struct declaration (including
/// forward declarations — a name is a name).
void harvest_class_names(const Tokens& t, const TokenView& v,
                         SourceModel& model) {
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].text == "enum") {
      // `enum X` / `enum class X` / `enum struct X`.
      std::size_t k = i + 1;
      if (k < t.size() &&
          (t[k].text == "class" || t[k].text == "struct"))
        ++k;
      if (k < t.size() && is_ident(t[k].text) && !keywords().count(t[k].text))
        model.enum_names.insert(t[k].text);
      continue;
    }
    if (t[i].text != "class" && t[i].text != "struct") continue;
    if (i > 0 && t[i - 1].text == "enum") continue;
    if (!is_ident(t[i + 1].text) || keywords().count(t[i + 1].text)) continue;
    const std::string& cls = t[i + 1].text;
    model.class_names.insert(cls);
    // Base-clause harvest: `class X [final] : [virtual|access] Base, ...`.
    // Bases may be qualified; only the simple (last) component is recorded.
    std::size_t k = i + 2;
    if (k < t.size() && t[k].text == "final") ++k;
    if (k >= t.size() || t[k].text != ":") continue;
    ++k;
    while (k < t.size()) {
      while (k < t.size() &&
             (t[k].text == "public" || t[k].text == "protected" ||
              t[k].text == "private" || t[k].text == "virtual"))
        ++k;
      std::string base, last;
      while (k < t.size() && (is_ident(t[k].text) || t[k].text == "::")) {
        if (is_ident(t[k].text)) last = t[k].text;
        base += t[k].text;
        ++k;
      }
      if (!last.empty() && !keywords().count(last))
        model.bases[cls].insert(last);
      // Skip template arguments of the base, if any.
      if (k < t.size() && t[k].text == "<")
        k = std::min(v.angle_end(k), t.size());
      if (k < t.size() && t[k].text == ",") { ++k; continue; }
      break;
    }
  }
}

/// Harvests declared types for reflected field names: a token that names a
/// known field, is followed by `;`/`=`/`{` (a declaration, not a use), and
/// is preceded by a type token (identifier, `>`, `*` or `&`).  The type is
/// every token back to the previous declaration boundary.
void harvest_declared_types(const Tokens& t, SourceModel& model) {
  for (std::size_t i = 1; i + 1 < t.size(); ++i) {
    if (!is_ident(t[i].text) || keywords().count(t[i].text)) continue;
    const std::string& next = t[i + 1].text;
    if (next != ";" && next != "=" && next != "{") continue;
    const std::string& prev = t[i - 1].text;
    const bool type_ish =
        prev == ">" || prev == ">>" || prev == "*" || prev == "&" ||
        (is_ident(prev) && (!keywords().count(prev) || prev == "auto" ||
                            (prev != "void" && builtin_types().count(prev))));
    if (!type_ish) continue;
    // Walk back over type tokens only; any non-type token (`=`, `+`,
    // `return`, ...) before a declaration boundary means this is an
    // expression, not a declaration — skip the site entirely rather than
    // record a junk type.  Commas and colons are boundaries only outside
    // template angle brackets.
    std::string type;
    int angle = 0;
    bool ok = true;
    for (std::size_t j = i; j-- > 0;) {
      const std::string& b = t[j].text;
      if (b == ">") ++angle;
      if (b == ">>") angle += 2;  // nested template closer is one token
      if (b == "<") {
        if (angle == 0) {
          ok = false;
          break;
        }
        --angle;
      }
      if (angle == 0 && (b == ";" || b == "{" || b == "}" || b == ":" ||
                         b == "(" || b == ")" || b == ","))
        break;
      const bool type_tok = b == ">" || b == ">>" || b == "<" || b == "*" ||
                            b == "&" || b == "::" || b == "," || is_ident(b);
      if (!type_tok) {
        ok = false;
        break;
      }
      type = b + (type.empty() ? "" : " ") + type;
    }
    if (!ok || type.empty()) continue;
    std::string& slot = model.declared_types[t[i].text];
    if (slot.empty())
      slot = type;
    else if (slot.find(type) == std::string::npos)
      slot += " | " + type;
  }
}

/// Splits a parameter-list token range into Params (tracks <> and ()
/// nesting so template arguments and nested parens don't break at commas).
std::vector<Param> parse_params(const Tokens& t, std::size_t open,
                                std::size_t close) {
  std::vector<Param> out;
  std::size_t start = open + 1;
  int angle = 0, paren = 0;
  auto flush = [&](std::size_t from, std::size_t to) {
    if (from >= to) return;
    Param p;
    std::string last_ident;
    for (std::size_t k = from; k < to; ++k) {
      const std::string& x = t[k].text;
      if (x == "const") p.is_const = true;
      else if (x == "&" || x == "&&") p.is_ref = true;
      else if (x == "*") p.is_ptr = true;
      else if (is_ident(x) && !keywords().count(x)) last_ident = x;
    }
    p.name = last_ident;
    out.push_back(p);
  };
  for (std::size_t k = start; k < close; ++k) {
    const std::string& x = t[k].text;
    if (x == "<") ++angle;
    else if (x == ">") angle = std::max(0, angle - 1);
    else if (x == ">>") angle = std::max(0, angle - 2);
    else if (x == "(") ++paren;
    else if (x == ")") --paren;
    else if (x == "," && angle == 0 && paren == 0) {
      flush(start, k);
      start = k + 1;
    }
  }
  flush(start, close);
  return out;
}

/// Walks one .cpp token stream collecting out-of-line function definitions.
void collect_definitions(const Tokens& t, const TokenView& v,
                         SourceModel& model) {
  std::vector<std::string> ns;  // namespace stack entries ("" = anonymous)
  std::size_t i = 0;
  while (i < t.size()) {
    const std::string& tok = t[i].text;
    if (tok == "namespace") {
      std::size_t k = i + 1;
      const std::string name = read_qualified(t, k);
      if (k < t.size() && t[k].text == "{") {
        ns.push_back(name);
        i = k + 1;
        continue;
      }
      i = k + 1;  // namespace alias or using-directive fragment
      continue;
    }
    if (tok == "}") {
      if (!ns.empty()) ns.pop_back();
      ++i;
      continue;
    }
    if (tok == "class" || tok == "struct" || tok == "enum" ||
        tok == "union") {
      // Skip the whole type definition (or elaborated declaration).
      std::size_t k = i + 1;
      while (k < t.size() && t[k].text != "{" && t[k].text != ";") ++k;
      if (k < t.size() && t[k].text == "{")
        k = v.close(k);
      i = k + 1;
      continue;
    }
    if (tok == "template") {  // skip template header's <...>
      i = i + 1 < t.size() && t[i + 1].text == "<"
              ? std::min(v.angle_end(i + 1), t.size())
              : i + 2;
      continue;
    }
    // Candidate function definition: find the next '(' before any ';'/'{'.
    std::size_t paren = t.size();
    bool has_operator = false;
    std::size_t k = i;
    for (; k < t.size(); ++k) {
      const std::string& x = t[k].text;
      if (x == "operator") has_operator = true;
      if (x == "(") {
        paren = k;
        break;
      }
      if (x == ";" || x == "{" || x == "}") break;
    }
    if (paren >= t.size()) {
      if (k < t.size() && t[k].text == "{") {
        // Unrecognised brace at scope (e.g. an initializer) — skip it.
        i = v.close(k) + 1;
      } else {
        i = k + 1;  // plain declaration/definition without parens
      }
      continue;
    }
    const std::size_t close = v.close(paren);
    if (close >= t.size()) {
      i = paren + 1;
      continue;
    }
    // Name and (optional) class chain directly before '('.
    std::string name, cls;
    if (!has_operator && paren > 0 && is_ident(t[paren - 1].text) &&
        !keywords().count(t[paren - 1].text)) {
      name = t[paren - 1].text;
      std::size_t b = paren - 1;
      while (b >= 2 && t[b - 1].text == "::" && is_ident(t[b - 2].text)) {
        cls = cls.empty() ? t[b - 2].text : t[b - 2].text + "::" + cls;
        b -= 2;
      }
    }
    // What follows the parameter list?
    std::size_t after = close + 1;
    while (after < t.size() &&
           (t[after].text == "const" || t[after].text == "noexcept" ||
            t[after].text == "override" || t[after].text == "final"))
      ++after;
    // Function-try-block: `f() try { ... } catch (...) { ... }`.  The body
    // recorded below starts at the `try` keyword and runs through the last
    // catch clause, so downstream passes see the same try/catch structure a
    // body-level try statement would give them.
    bool fn_try = false;
    std::size_t try_pos = 0;
    if (after < t.size() && t[after].text == "try") {
      fn_try = true;
      try_pos = after;
      ++after;
    }
    if (after < t.size() && t[after].text == ":") {
      // Constructor init list: step over `member(init)` / `member{init}`
      // pairs until the body brace.
      std::size_t p = after + 1;
      while (p < t.size()) {
        (void)read_qualified(t, p);
        if (p < t.size() && (t[p].text == "(" || t[p].text == "{")) {
          p = v.close(p) + 1;
        } else {
          break;
        }
        if (p < t.size() && t[p].text == ",") {
          ++p;
          continue;
        }
        break;
      }
      after = p;
      // Constructors are never effect-analysis subjects; skip the body.
      if (after < t.size() && t[after].text == "{") {
        i = v.close(after) + 1;
        continue;
      }
      i = after + 1;
      continue;
    }
    if (after >= t.size() || t[after].text != "{") {
      i = close + 1;  // declaration (or expression) — keep scanning after ')'
      continue;
    }
    const std::size_t body_end = v.close(after);
    if (body_end >= t.size()) {
      i = after + 1;
      continue;
    }
    std::size_t def_end = body_end;  // last token this definition consumed
    if (fn_try) {
      std::size_t p = body_end + 1;
      while (p < t.size() && t[p].text == "catch") {
        std::size_t cp = p + 1;
        if (cp >= t.size() || t[cp].text != "(") break;
        const std::size_t cc = v.close(cp);
        if (cc + 1 >= t.size() || t[cc + 1].text != "{") break;
        const std::size_t cb = v.close(cc + 1);
        if (cb >= t.size()) break;
        def_end = cb;
        p = cb + 1;
      }
    }
    if (!name.empty() && !has_operator) {
      FunctionDef def;
      std::string prefix;
      for (const std::string& part : ns) {
        if (part.empty()) continue;
        prefix += prefix.empty() ? part : "::" + part;
      }
      if (!cls.empty())
        def.class_name = prefix.empty() ? cls : prefix + "::" + cls;
      def.name = name;
      def.params = parse_params(t, paren, close);
      if (fn_try)
        def.body.assign(t.begin() + static_cast<std::ptrdiff_t>(try_pos),
                        t.begin() + static_cast<std::ptrdiff_t>(def_end) + 1);
      else
        def.body.assign(t.begin() + static_cast<std::ptrdiff_t>(after) + 1,
                        t.begin() + static_cast<std::ptrdiff_t>(body_end));
      model.functions.push_back(std::move(def));
    }
    i = def_end + 1;
  }
}

}  // namespace

SourceModel scan_sources(const std::string& root) {
  namespace fs = std::filesystem;
  if (!fs::exists(root))
    throw std::runtime_error("analyze: no such source root: " + root);

  std::vector<fs::path> headers, sources;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext == ".hpp" || ext == ".h") headers.push_back(entry.path());
    else if (ext == ".cpp" || ext == ".cc") sources.push_back(entry.path());
  }
  std::sort(headers.begin(), headers.end());
  std::sort(sources.begin(), sources.end());

  auto slurp = [](const fs::path& p) {
    std::ifstream in(p);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };

  SourceModel model;
  std::vector<std::pair<std::string, Tokens>> header_tokens, source_tokens;
  for (const auto& p : headers)
    header_tokens.emplace_back(fs::relative(p, root).string(),
                               tokenize(slurp(p)));
  for (const auto& p : sources)
    source_tokens.emplace_back(fs::relative(p, root).string(),
                               tokenize(slurp(p)));
  // Bracket structure per file (the token vectors no longer change).
  auto views = [](const std::vector<std::pair<std::string, Tokens>>& files) {
    std::vector<TokenView> out;
    for (const auto& file : files) out.emplace_back(file.second);
    return out;
  };
  const std::vector<TokenView> header_views = views(header_tokens);
  const std::vector<TokenView> source_views = views(source_tokens);

  // Macro metadata first (instrumented_names must be complete before the
  // clean-const harvest can veto accessors that call instrumented code).
  for (std::size_t f = 0; f < header_tokens.size(); ++f) {
    harvest_macros(header_tokens[f].second, header_views[f], model);
    model.files.push_back(header_tokens[f].first);
  }
  for (std::size_t f = 0; f < source_tokens.size(); ++f) {
    harvest_macros(source_tokens[f].second, source_views[f], model);
    model.files.push_back(source_tokens[f].first);
  }
  for (std::size_t f = 0; f < header_tokens.size(); ++f) {
    const Tokens& toks = header_tokens[f].second;
    harvest_clean_const(toks, header_views[f], model);
    harvest_class_names(toks, header_views[f], model);
    harvest_declared_types(toks, model);
  }
  for (std::size_t f = 0; f < source_tokens.size(); ++f) {
    const Tokens& toks = source_tokens[f].second;
    harvest_class_names(toks, source_views[f], model);
    harvest_declared_types(toks, model);
    collect_definitions(toks, source_views[f], model);
  }
  return model;
}

}  // namespace fatomic::analyze
