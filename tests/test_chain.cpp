// The postfix-chain grammar every static pass reads (analyze/body): one
// table of the member-access forms the passes meet, with what the shared
// parser makes of each and what each pass reads from it — the effect pass
// (Pass 1) as an assignment target or statement, the alias pass (Pass 5) as
// a pointer initializer, the call graph (Pass 4) through the calls it holds.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fatomic/analyze/alias.hpp"
#include "fatomic/analyze/body.hpp"
#include "fatomic/analyze/callgraph_static.hpp"
#include "fatomic/analyze/effects.hpp"
#include "fatomic/analyze/source_model.hpp"

namespace analyze = fatomic::analyze;
namespace fs = std::filesystem;

namespace {

struct Form {
  const char* text;
  const char* parse;    ///< the shared parser's result, as render() writes it
  bool lvalue;          ///< the effect method assigns to it, else runs it
  const char* effects;  ///< verdict, write names and ⊤ reasons
  const char* alias;    ///< binding of `Node* q = <form>;`
  const char* calls;    ///< instrumented callees of the effect method
};

const Form kForms[] = {
    {"a", "a", true, "unproven writes={a} top={}",
     "field roots={a} positions={}", "{}"},
    {"a->b.next", "a ->b .next", true, "unproven writes={next} top={}",
     "field roots={next} positions={}", "{}"},
    // A write through the parameter, like `p->x`; the alias walk stops at
    // the dereferenced group and keeps p's binding.
    {"(*p).x", "p (*) .x", true,
     "unproven writes={} top={parameter-aliased write}",
     "param roots={} positions={0}", "{}"},
    {"*this", "* this", true,
     "unproven writes={} top={unresolved write target,receiver escapes via "
     "this}",
     "field roots={} positions={}", "{}"},
    {"this->x", "this ->x", true, "unproven writes={x} top={}",
     "field roots={x} positions={}", "{}"},
    // Pass 4 resolves the unqualified call to the same class's member; Pass
    // 5 maps Box::f's parameter return onto the argument.
    {"f(p)->next", "f () ->next", true, "unproven writes={next} top={}",
     "param roots={next} positions={0}", "{g::Box::f}"},
    {"arr[0]", "arr []", true, "unproven writes={arr} top={}",
     "field roots={arr} positions={}", "{}"},
    // A temporary's writes never reach the caller; a non-identity call
    // ends what Pass 5 can follow.
    {"Parser(0).parse()", "Parser () .parse ()", false,
     "read-only writes={} top={}", "top roots={} positions={}",
     "{g::Parser::parse}"},
    // A std call may write what it was handed and names no subject callee.
    {"std::move(a)", "std::move ()", false, "unproven writes={a} top={}",
     "field roots={a} positions={}", "{}"},
    {"static_cast<Node*>(p)->x", "p ->x", true,
     "unproven writes={} top={parameter-aliased write}",
     "param roots={x} positions={0}", "{}"},
    // The qualifier picks Other::make over Box::make; the unscanned callee
    // leaves its tracked argument's write unresolved.
    {"Other::make(a).b", "Other::make () .b", true,
     "unproven writes={b} top={unresolved write target}",
     "top roots={} positions={}", "{g::Other::make}"},
    // Indexing and the identity accessor stay inside buckets_.
    {"buckets_[0].get()", "buckets_ [] .get ()", false,
     "read-only writes={} top={}", "field roots={buckets_} positions={}",
     "{g::Node::get}"},
};

template <class C>
std::string join(const C& items) {
  std::string out = "{";
  for (const auto& x : items) out += (out.size() > 1 ? "," : "") + x;
  return out + "}";
}

std::string render(const analyze::PostfixChain& c) {
  using K = analyze::ChainLink::Kind;
  std::string out;
  for (const std::string& op : c.prefix) out += op + " ";
  for (const std::string& q : c.quals) out += q + "::";
  out += c.opaque ? "<opaque>" : c.head;
  for (const analyze::ChainLink& l : c.links) {
    switch (l.kind) {
      case K::Member: out += " ." + l.name; break;
      case K::Arrow: out += " ->" + l.name; break;
      case K::Call: out += " ()"; break;
      case K::Index: out += " []"; break;
      case K::Deref: out += " (*)"; break;
    }
  }
  return out;
}

std::string alias_text(const analyze::AliasTarget& t) {
  static const char* const kKinds[] = {"local", "field", "param", "top"};
  std::vector<std::string> positions;
  for (std::size_t p : t.positions) positions.push_back(std::to_string(p));
  return std::string(kKinds[static_cast<int>(t.kind)]) +
         " roots=" + join(t.roots) + " positions=" + join(positions);
}

/// Parses `text` on its own, forwards and from its end.
std::pair<std::string, std::string> parse_both_ways(const std::string& text) {
  const std::vector<analyze::Token> tokens = analyze::tokenize(text);
  const analyze::TokenView v(tokens);
  const analyze::PostfixChain fwd = v.chain_from(0);
  const analyze::PostfixChain back = v.chain_until(v.size());
  EXPECT_EQ(fwd.end, v.size()) << text;
  EXPECT_EQ(back.begin, 0u) << text;
  return {render(fwd), render(back)};
}

TEST(ChainGrammar, ParsesEveryFormTheOldWalkersHandled) {
  for (const Form& f : kForms) {
    const auto [fwd, back] = parse_both_ways(f.text);
    EXPECT_EQ(fwd, f.parse) << f.text;
    EXPECT_EQ(back, f.parse) << f.text;
  }
}

TEST(ChainGrammar, EdgeFormsOfTheParser) {
  // An expression in parentheses is no chain; its links still are.
  EXPECT_EQ(parse_both_ways("(a + b).x").first, "<opaque> .x");
  EXPECT_EQ(parse_both_ways("(*p)->next").first, "p (*) ->next");
  EXPECT_EQ(parse_both_ways("**p").first, "* * p");
  EXPECT_EQ(parse_both_ways("&(*slot)->next").first, "& slot (*) ->next");
  // From an operator back: a binary `*` is no prefix, a statement header's
  // `)` ends no operand, and a templated callee's arguments are opaque.
  const auto until = [](const std::string& text, std::size_t end) {
    const std::vector<analyze::Token> tokens = analyze::tokenize(text);
    return render(analyze::TokenView(tokens).chain_until(end));
  };
  EXPECT_EQ(until("n * p = v", 3), "p");
  EXPECT_EQ(until("if ( c ) * p = v", 6), "* p");
  EXPECT_EQ(until("make < T > ( x ) . m = v", 9), "<opaque> .m");
  EXPECT_EQ(until("x = a . B :: f", 7), "a .f");
}

class ChainReadings : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) / "fatomic_chain_readings";
    fs::remove_all(root_);
    fs::create_directories(root_);
    std::string decls, infos, defs;
    for (std::size_t k = 0; k < std::size(kForms); ++k) {
      const std::string n = std::to_string(k);
      decls += "  void e" + n + "(Node* p);\n  Node* a" + n + "(Node* p);\n";
      infos += "  FAT_METHOD_INFO(g::Box, e" + n + ");\n";
      const std::string form = kForms[k].text;
      defs += "void Box::e" + n + "(Node* p) {\n  " + form +
              (kForms[k].lvalue ? " = nullptr" : "") +
              ";\n  throw Bad();\n}\n";
      defs += "Node* Box::a" + n + "(Node* p) {\n  Node* q = " + form +
              ";\n  return q;\n}\n";
    }
    std::ofstream(root_ / "g.hpp") << R"(
#pragma once
namespace g {
class Bad {};
class Node {
 public:
  Node* get();
  Node* b = nullptr;
  Node* next = nullptr;
  Node* x = nullptr;
 private:
  FAT_METHOD_INFO(g::Node, get);
};
class Parser {
 public:
  Parser(int src);
  Node* parse();
 private:
  FAT_METHOD_INFO(g::Parser, parse);
};
class Other {
 public:
  static Node* make(Node* n);
 private:
  FAT_STATIC_INFO(g::Other, make);
};
class Box {
 public:
)" + decls + R"(  Node* f(Node* n);
  Node* make(Node* n);
 private:
)" + infos + R"(  FAT_METHOD_INFO(g::Box, f);
  FAT_METHOD_INFO(g::Box, make);
  Node* a = nullptr;
  Node* arr[4];
  Node* x = nullptr;
  std::vector<std::unique_ptr<Node>> buckets_;
};
}  // namespace g
)";
    std::ofstream(root_ / "g.cpp")
        << "#include \"g.hpp\"\nnamespace g {\n" + defs +
               "Node* Box::f(Node* n) { return n; }\n}  // namespace g\n";
    model_ = analyze::scan_sources(root_.string());
  }
  void TearDown() override { fs::remove_all(root_); }

  fs::path root_;
  analyze::SourceModel model_;
};

TEST_F(ChainReadings, EachPassReadsEachForm) {
  const analyze::EffectAnalysis effects = analyze::analyze_effects(model_);
  const analyze::AliasAnalysis aliases = analyze::analyze_aliases(model_);
  const analyze::StaticCallGraph graph =
      analyze::build_static_call_graph(model_, {});
  for (std::size_t k = 0; k < std::size(kForms); ++k) {
    const Form& f = kForms[k];
    const std::string n = std::to_string(k);
    const analyze::EffectSummary* es = effects.find("g::Box::e" + n);
    ASSERT_NE(es, nullptr) << f.text;
    EXPECT_EQ(std::string(es->verdict()) + " writes=" + join(es->write_names) +
                  " top=" + join(es->write_top_reasons),
              f.effects)
        << f.text;
    const analyze::FnAliasInfo* ai = aliases.find("g::Box::a" + n);
    ASSERT_NE(ai, nullptr) << f.text;
    ASSERT_TRUE(ai->locals.count("q")) << f.text;
    EXPECT_EQ(alias_text(ai->locals.at("q")), f.alias) << f.text;
    ASSERT_TRUE(graph.calls.count("g::Box::e" + n)) << f.text;
    EXPECT_EQ(join(graph.calls.at("g::Box::e" + n)), f.calls) << f.text;
  }
}

}  // namespace
