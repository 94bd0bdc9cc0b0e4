// Pass 0 of the static analyzer: a lexical model of the subject sources.
// The paper's Analyzer (Figure 1, step 1) reads Java bytecode; this one
// tokenizes the instrumented C++ tree directly, with no compiler front end,
// and recovers the facts the later passes need: per-class instrumentation
// metadata (FAT_METHOD_INFO / FAT_STATIC_INFO / FAT_CTOR_INFO and their
// FAT_THROWS lists), reflected fields (FAT_REFLECT / FAT_FIELD), every
// out-of-line function definition with its parameters and body tokens, and
// the inline const accessors verified free of throws and instrumented
// calls.  Anything it cannot parse is absent, and absent means "unknown"
// (never "safe") downstream.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace fatomic::analyze {

/// One lexical token.  Comments and preprocessor lines are stripped; string
/// and character literals are collapsed to "" / '' placeholder tokens so
/// their contents can never be mistaken for code.
struct Token {
  std::string text;
};

/// Tokenizes C++ source text.  Multi-character operators ("::", "->", "++",
/// "+=", "<<", ...) form single tokens.
std::vector<Token> tokenize(const std::string& source);

/// One declared parameter of a function definition.
struct Param {
  std::string name;  ///< empty for unnamed parameters
  bool is_const = false;
  bool is_ref = false;
  bool is_ptr = false;
};

/// An out-of-line function definition recovered from a source file.
struct FunctionDef {
  /// Qualified class name ("subjects::collections::LinkedList") for member
  /// definitions; empty for free functions (including anonymous-namespace
  /// ones).
  std::string class_name;
  std::string name;
  std::vector<Param> params;
  /// Tokens strictly between the outermost body braces.
  std::vector<Token> body;
};

/// Everything the scanner learned about one instrumented class.
struct ClassModel {
  std::string qualified_name;
  /// Reflected member fields (FAT_REFLECT / FAT_FIELD).
  std::set<std::string> fields;
  /// Methods declared with FAT_METHOD_INFO (injection-wrapped, receiver).
  std::set<std::string> instrumented;
  /// Methods declared with FAT_STATIC_INFO (injection points, no receiver).
  std::set<std::string> statics;
  bool has_ctor_info = false;
  /// The class carries a reflection block (FAT_REFLECT or the explicitly
  /// stateless FAT_REFLECT_EMPTY).  Distinguishes "reflected with zero
  /// fields" from "never reflected": writes into the former are provably
  /// impossible, the latter is unknown state.
  bool reflected = false;
  /// Declared exceptions per method, as written in FAT_THROWS (fully
  /// qualified type names).
  std::map<std::string, std::vector<std::string>> declared_throws;
};

struct SourceModel {
  /// Instrumented classes by qualified name.
  std::map<std::string, ClassModel> classes;
  /// Every function definition found, in scan order.
  std::vector<FunctionDef> functions;
  /// Union of instrumented method names across all classes — used to treat
  /// a dot/arrow call to any such name as a potential injection point no
  /// matter the (unknown) receiver type.
  std::set<std::string> instrumented_names;
  /// Names of inline const methods whose header bodies were verified free
  /// of throws and of calls into instrumented code; calls to them are
  /// effect-free.
  std::set<std::string> clean_const_names;
  /// Declared types of members and variables, merged across all scanned
  /// declarations by name (conflicting declarations concatenate, which can
  /// only make the effect pass more conservative).  Lets the scanner tell
  /// `head_.reset()` — a smart-pointer accessor — from `re_.reset()` — a
  /// call into an instrumented subject object — when both names collide
  /// with instrumented methods.
  std::map<std::string, std::string> declared_types;
  /// Simple (unqualified) names of every class/struct declared anywhere in
  /// the scanned tree — lets the effect pass recognize `Parser(src)` as a
  /// temporary-constructing expression rather than an unknown call result.
  std::set<std::string> class_names;
  /// Simple names of every enum/enum class declared in the scanned tree.
  /// Enums are value types: a field of enum type cannot hold subobjects, so
  /// the write-set pass treats them like builtins instead of opening the
  /// receiver graph.
  std::set<std::string> enum_names;
  /// Inheritance edges by simple name: derived -> declared base names.  Any
  /// class that appears as a base (or registers with FAT_POLY) may be the
  /// static type of a polymorphic pointee, which the partial-checkpoint
  /// walker refuses to traverse.
  std::map<std::string, std::set<std::string>> bases;
  /// Classes registered with FAT_POLY (either side) — known-polymorphic.
  std::set<std::string> poly_classes;
  /// Files scanned, relative to the scan root.
  std::vector<std::string> files;

  const ClassModel* find_class(const std::string& qualified) const {
    auto it = classes.find(qualified);
    return it == classes.end() ? nullptr : &it->second;
  }
  /// Simple names that may take part in dynamic dispatch: FAT_POLY
  /// participants and both ends of every inheritance edge.
  std::set<std::string> polymorphic() const {
    std::set<std::string> out = poly_classes;
    for (const auto& [derived, bs] : bases) {
      out.insert(derived);
      out.insert(bs.begin(), bs.end());
    }
    return out;
  }
};

/// Recursively scans `root` for .hpp/.cpp files and builds the model.
/// Throws std::runtime_error when root does not exist.
SourceModel scan_sources(const std::string& root);

}  // namespace fatomic::analyze
