// Unit tests: lexer, parser, analyzer, compiled expressions.
#include <gtest/gtest.h>

#include "lang/lexer.hpp"
#include "lang/program.hpp"
#include "support/error.hpp"

namespace parulel {
namespace {

// ---------------------------------------------------------------- lexer

TEST(Lexer, BasicTokens) {
  const auto toks = tokenize("(defrule r1 ?x => (halt)) ; comment\n");
  ASSERT_GE(toks.size(), 9u);
  EXPECT_EQ(toks[0].kind, TokenKind::LParen);
  EXPECT_EQ(toks[1].kind, TokenKind::Name);
  EXPECT_EQ(toks[1].text, "defrule");
  EXPECT_EQ(toks[3].kind, TokenKind::Variable);
  EXPECT_EQ(toks[3].text, "x");
  EXPECT_EQ(toks[4].kind, TokenKind::Arrow);
  EXPECT_EQ(toks.back().kind, TokenKind::End);
}

TEST(Lexer, Numbers) {
  const auto toks = tokenize("42 -17 3.5 -0.25");
  EXPECT_EQ(toks[0].kind, TokenKind::Integer);
  EXPECT_EQ(toks[0].int_value, 42);
  EXPECT_EQ(toks[1].kind, TokenKind::Integer);
  EXPECT_EQ(toks[1].int_value, -17);
  EXPECT_EQ(toks[2].kind, TokenKind::Float);
  EXPECT_DOUBLE_EQ(toks[2].float_value, 3.5);
  EXPECT_EQ(toks[3].kind, TokenKind::Float);
  EXPECT_DOUBLE_EQ(toks[3].float_value, -0.25);
}

TEST(Lexer, OperatorsAreNames) {
  const auto toks = tokenize("<= >= <> != + - * /");
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    EXPECT_EQ(toks[i].kind, TokenKind::Name) << i;
  }
}

TEST(Lexer, AnonymousWildcard) {
  const auto toks = tokenize("?");
  EXPECT_EQ(toks[0].kind, TokenKind::Variable);
  EXPECT_TRUE(toks[0].text.empty());
}

TEST(Lexer, Strings) {
  const auto toks = tokenize("\"hello world\"");
  EXPECT_EQ(toks[0].kind, TokenKind::String);
  EXPECT_EQ(toks[0].text, "hello world");
}

TEST(Lexer, UnterminatedStringThrows) {
  EXPECT_THROW(tokenize("\"oops"), ParseError);
}

TEST(Lexer, CommentsRunToEndOfLine) {
  const auto toks = tokenize("; all comment\nfoo");
  EXPECT_EQ(toks[0].kind, TokenKind::Name);
  EXPECT_EQ(toks[0].text, "foo");
  EXPECT_EQ(toks[0].line, 2);
}

TEST(Lexer, TracksLineNumbers) {
  const auto toks = tokenize("a\nb\n\nc");
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[1].line, 2);
  EXPECT_EQ(toks[2].line, 4);
}

TEST(Lexer, UnterminatedStringReportsItsOpeningLine) {
  try {
    tokenize("a\n\"opens here\nand runs\nto the end");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find("unterminated string literal"),
              std::string::npos);
  }
}

TEST(Lexer, EscapesAreKeptRawAndFlagged) {
  const auto toks = tokenize(R"("say \"hi\" \\ \q" "plain")");
  ASSERT_EQ(toks[0].kind, TokenKind::String);
  EXPECT_TRUE(toks[0].has_escapes);
  EXPECT_EQ(unescape(toks[0].text), R"(say "hi" \ q)");
  EXPECT_FALSE(toks[1].has_escapes);
  EXPECT_EQ(toks[1].text, "plain");
}

TEST(Lexer, MultiLineStringSitsOnItsClosingLine) {
  // An escaped newline is still a newline for line numbering.
  for (const char* src : {"\"a\nb\" c", "\"a\\\nb\" c"}) {
    const auto toks = tokenize(src);
    EXPECT_EQ(toks[0].line, 2) << src;
    EXPECT_EQ(toks[1].line, 2) << src;
  }
}

TEST(Lexer, NumbersOutOfRangeThrow) {
  for (const char* text : {"99999999999999999999", "-99999999999999999999",
                           "1e400", "-1e400"}) {
    try {
      tokenize(std::string("a\n") + text);
      FAIL() << text << " lexed";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), 2) << text;
      EXPECT_NE(std::string(e.what()).find("number out of range"),
                std::string::npos)
          << text;
    }
  }
  // The int64 extremes still fit.
  const auto toks = tokenize("9223372036854775807 -9223372036854775808");
  EXPECT_EQ(toks[0].kind, TokenKind::Integer);
  EXPECT_EQ(toks[1].kind, TokenKind::Integer);
}

TEST(Lexer, NameLikeNumbersStayNames) {
  const auto toks = tokenize("e1 1-2 1e400x c12-j3");
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    EXPECT_EQ(toks[i].kind, TokenKind::Name) << toks[i].text;
  }
}

TEST(Lexer, PullLexerMatchesCollectedTokens) {
  const std::string_view src = "(r (a ?x) (b \"s\") (c 1.5)) => ; c\n?";
  const auto all = tokenize(src);
  Lexer lexer(src);
  for (const Token& want : all) {
    const Token got = lexer.next();
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.text, want.text);
    EXPECT_EQ(got.line, want.line);
  }
  EXPECT_EQ(lexer.next().kind, TokenKind::End);  // End repeats
}

TEST(Lexer, LexesAsName) {
  EXPECT_TRUE(lexes_as_name("plus"));
  EXPECT_TRUE(lexes_as_name("<="));
  EXPECT_TRUE(lexes_as_name("e1"));
  EXPECT_FALSE(lexes_as_name(""));
  EXPECT_FALSE(lexes_as_name("=>"));
  EXPECT_FALSE(lexes_as_name("42"));
  EXPECT_FALSE(lexes_as_name("1.5"));
  EXPECT_FALSE(lexes_as_name("1e400"));
  EXPECT_FALSE(lexes_as_name("two words"));
  EXPECT_FALSE(lexes_as_name("a,b"));
  EXPECT_FALSE(lexes_as_name("?x"));
}

// --------------------------------------------------------------- parser

constexpr const char* kTinyProgram = R"((deftemplate edge (slot from) (slot to))
(deftemplate path (slot from) (slot to))
(defrule extend
  (declare (salience 5))
  (path (from ?a) (to ?b))
  (edge (from ?b) (to ?c))
  (not (path (from ?a) (to ?c)))
  (test (!= ?a ?c))
  =>
  (assert (path (from ?a) (to ?c))))
(deffacts init
  (edge (from 1) (to 2)))
)";

TEST(Parser, ParsesFullProgram) {
  const Program p = parse_program(kTinyProgram);
  EXPECT_EQ(p.schema.size(), 2u);
  ASSERT_EQ(p.rules.size(), 1u);
  EXPECT_EQ(p.symbols->name(p.rules[0].name), "extend");
  EXPECT_EQ(p.rules[0].salience, 5);
  EXPECT_EQ(p.rules[0].positives.size(), 2u);
  EXPECT_EQ(p.rules[0].negatives.size(), 1u);
  EXPECT_EQ(p.initial_facts.size(), 1u);
}

TEST(Parser, FindRuleByName) {
  const Program p = parse_program(kTinyProgram);
  EXPECT_NE(p.find_rule("extend"), nullptr);
  EXPECT_EQ(p.find_rule("nope"), nullptr);
}

TEST(Parser, UnknownTopLevelFormThrows) {
  EXPECT_THROW(parse_program("(defwhatever x)"), ParseError);
}

TEST(Parser, FactVariableBinding) {
  const Program p = parse_program(R"(
    (deftemplate item (slot v))
    (defrule drop ?i <- (item (v ?x)) => (retract ?i)))");
  ASSERT_EQ(p.rules.size(), 1u);
  ASSERT_EQ(p.rules[0].actions.size(), 1u);
  EXPECT_EQ(p.rules[0].actions[0].kind, CompiledAction::Kind::Retract);
  EXPECT_EQ(p.rules[0].actions[0].ce_index, 0);
}

TEST(Parser, ErrorsCarryLineNumbers) {
  try {
    parse_program("(deftemplate t (slot a))\n(defrule r (nope (a 1)) => )");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

/// The message of the ParseError `source` raises ("" when it parses).
std::string parse_error(const std::string& source) {
  try {
    parse_program(source);
  } catch (const ParseError& e) {
    return e.what();
  }
  return "";
}

std::string nested(const std::string& open, int depth,
                   const std::string& core) {
  std::string out;
  for (int i = 0; i < depth; ++i) out += open;
  out += core;
  out.append(static_cast<std::size_t>(depth), ')');
  return out;
}

TEST(Parser, ExpressionsNestUpToTheCap) {
  // 256 nested calls parse; one more is refused by name, with its line.
  const std::string ok = "(deftemplate r (slot a))\n(defrule g (r (a ?x)) "
                         "(test " + nested("(+ 1 ", 256, "1") + ") => (halt))";
  EXPECT_EQ(parse_error(ok), "");
  const std::string deep = "(deftemplate r (slot a))\n(defrule g (r (a ?x)) "
                           "(test " + nested("(+ 1 ", 257, "1") + ") => (halt))";
  EXPECT_EQ(parse_error(deep), "line 2: expression nested deeper than 256");
}

TEST(Parser, HostileNestingFailsClosed) {
  // Deep enough to overflow the stack of a recursive parser without a
  // cap: a test CE, an assert slot value, and nested not/exists.
  constexpr int kDepth = 200000;
  const std::string head = "(deftemplate r (slot a))\n(defrule g ";
  EXPECT_EQ(parse_error(head + "(r (a ?x)) (test " +
                        nested("(+ ", kDepth, "1") + ") => (halt))"),
            "line 2: expression nested deeper than 256");
  EXPECT_EQ(parse_error(head + "(r (a ?x)) => (assert (r (a " +
                        nested("(+ ", kDepth, "1") + "))))"),
            "line 2: expression nested deeper than 256");
  EXPECT_NE(parse_error(head + nested("(not ", kDepth, "(r (a 1))") +
                        " => (halt))"),
            "");
  EXPECT_NE(parse_error(head + nested("(exists ", kDepth, "(r (a 1))") +
                        " => (halt))"),
            "");
}

TEST(Parser, StringEscapesResolveBeforeInterning) {
  const Program p = parse_program(
      "(deftemplate r (slot a))\n(deffacts f (r (a \"x\\\"y\")))");
  ASSERT_EQ(p.initial_facts.size(), 1u);
  EXPECT_EQ(p.symbols->name(p.initial_facts[0].slots[0].as_sym()), "x\"y");
}

TEST(Parser, OutOfRangeLiteralIsAParseError) {
  EXPECT_EQ(parse_error("(deftemplate r (slot a))\n"
                        "(deffacts f (r (a 99999999999999999999)))"),
            "line 2: number out of range");
  EXPECT_EQ(parse_error("(deftemplate r (slot a))\n"
                        "(deffacts f (r (a 1e400)))"),
            "line 2: number out of range");
}

// ------------------------------------------------------------- analyzer

TEST(Analyzer, VariableClassification) {
  const Program p = parse_program(R"(
    (deftemplate r (slot a) (slot b))
    (defrule join
      (r (a ?x) (b ?x))        ; intra-pattern equality
      (r (a ?x) (b ?y))        ; cross-pattern join + new var
      => (assert (r (a ?x) (b ?y)))))");
  const CompiledRule& rule = p.rules[0];
  EXPECT_EQ(rule.num_lhs_vars, 2);  // x, y
  EXPECT_EQ(rule.positives[0].intra_eqs.size(), 1u);
  EXPECT_EQ(rule.positives[0].defines.size(), 1u);
  EXPECT_EQ(rule.positives[1].join_eqs.size(), 1u);
  EXPECT_EQ(rule.positives[1].defines.size(), 1u);
}

TEST(Analyzer, ConstantsBecomeAlphaTests) {
  const Program p = parse_program(R"(
    (deftemplate r (slot a) (slot b))
    (defrule pick (r (a 5) (b ?x)) => (halt)))");
  EXPECT_EQ(p.rules[0].positives[0].const_tests.size(), 1u);
  EXPECT_EQ(p.rules[0].positives[0].const_tests[0].value, Value::integer(5));
}

TEST(Analyzer, AlphaMemorySharing) {
  const Program p = parse_program(R"(
    (deftemplate r (slot a))
    (defrule r1 (r (a 5)) => (halt))
    (defrule r2 (r (a 5)) => (halt))
    (defrule r3 (r (a 6)) => (halt)))");
  EXPECT_EQ(p.rules[0].positives[0].alpha, p.rules[1].positives[0].alpha);
  EXPECT_NE(p.rules[0].positives[0].alpha, p.rules[2].positives[0].alpha);
}

TEST(Analyzer, NegatedCEsCannotBindRuleVariables) {
  // ?z first occurs in the negation: it is existential/local there, so
  // using it in the RHS must fail as unbound.
  EXPECT_THROW(parse_program(R"(
    (deftemplate r (slot a))
    (defrule bad (r (a ?x)) (not (r (a ?z)))
      => (assert (r (a ?z)))))"),
               ParseError);
}

TEST(Analyzer, TestBeforeAnyPatternThrows) {
  EXPECT_THROW(parse_program(R"(
    (deftemplate r (slot a))
    (defrule bad (test (> 1 0)) (r (a ?x)) => (halt)))"),
               ParseError);
}

TEST(Analyzer, RuleWithoutPositivesThrows) {
  EXPECT_THROW(parse_program(R"(
    (deftemplate r (slot a))
    (defrule bad (not (r (a 1))) => (halt)))"),
               ParseError);
}

TEST(Analyzer, AssertMustCoverAllSlots) {
  EXPECT_THROW(parse_program(R"(
    (deftemplate r (slot a) (slot b))
    (defrule bad (r (a ?x) (b ?y)) => (assert (r (a 1)))))"),
               ParseError);
}

TEST(Analyzer, RedactOnlyInMetaRules) {
  EXPECT_THROW(parse_program(R"(
    (deftemplate r (slot a))
    (defrule bad (r (a ?x)) => (redact ?x)))"),
               ParseError);
}

TEST(Analyzer, HaltNotAllowedInMetaRules) {
  EXPECT_THROW(parse_program(R"(
    (deftemplate r (slot a))
    (defrule obj (r (a ?x)) => (halt))
    (defmetarule bad (inst-obj (id ?i)) => (halt)))"),
               ParseError);
}

TEST(Analyzer, MetaSchemaHasIdPlusVariables) {
  const Program p = parse_program(R"(
    (deftemplate r (slot a) (slot b))
    (defrule obj (r (a ?x) (b ?y)) => (halt))
    (defmetarule m
      (inst-obj (id ?i) (x ?vx))
      (inst-obj (id ?j) (x ?vx))
      (test (< ?i ?j))
      => (redact ?j)))");
  ASSERT_EQ(p.meta_rules.size(), 1u);
  ASSERT_EQ(p.inst_templates.size(), 1u);
  const TemplateDef& meta = p.meta_schema.at(p.inst_templates[0]);
  EXPECT_EQ(p.symbols->name(meta.name), "inst-obj");
  ASSERT_EQ(meta.arity(), 3);
  EXPECT_EQ(p.symbols->name(meta.slot_names[0]), "id");
  EXPECT_EQ(p.symbols->name(meta.slot_names[1]), "x");
  EXPECT_EQ(p.symbols->name(meta.slot_names[2]), "y");
}

TEST(Analyzer, VariableNamedIdIsReservedWhenMetaRulesExist) {
  EXPECT_THROW(parse_program(R"(
    (deftemplate r (slot a))
    (defrule obj (r (a ?id)) => (halt)))"),
               ParseError);
}

TEST(Analyzer, DeffactsMustBeGround) {
  EXPECT_THROW(parse_program(R"(
    (deftemplate r (slot a))
    (deffacts f (r (a ?x))))"),
               ParseError);
}

TEST(Analyzer, DeffactsMustBeComplete) {
  EXPECT_THROW(parse_program(R"(
    (deftemplate r (slot a) (slot b))
    (deffacts f (r (a 1))))"),
               ParseError);
}

TEST(Analyzer, BindCreatesRhsLocal) {
  const Program p = parse_program(R"(
    (deftemplate r (slot a))
    (defrule b (r (a ?x)) => (bind ?y (+ ?x 1)) (assert (r (a ?y)))))");
  EXPECT_EQ(p.rules[0].num_lhs_vars, 1);
  EXPECT_EQ(p.rules[0].num_vars, 2);
}

TEST(Analyzer, BindCannotShadow) {
  EXPECT_THROW(parse_program(R"(
    (deftemplate r (slot a))
    (defrule b (r (a ?x)) => (bind ?x 1)))"),
               ParseError);
}

TEST(Analyzer, UnknownOperatorThrows) {
  EXPECT_THROW(parse_program(R"(
    (deftemplate r (slot a))
    (defrule b (r (a ?x)) (test (frobnicate ?x)) => (halt)))"),
               ParseError);
}

// ---------------------------------------------------------- expressions

class ExprTest : public ::testing::Test {
 protected:
  /// Compile a one-rule program whose guard is `expr` over slot value ?x,
  /// and evaluate that guard with ?x = `x`.
  Value eval_guard(const std::string& expr, Value x) {
    const std::string src = "(deftemplate r (slot a))\n(defrule g (r (a ?x)) "
                            "(test " + expr + ") => (halt))";
    program_ = parse_program(src);
    const CompiledExpr& guard = program_.rules[0].guards[0][0];
    const Value env[] = {x};
    return guard.eval(env);
  }

  Program program_;
};

TEST_F(ExprTest, Arithmetic) {
  EXPECT_EQ(eval_guard("(== (+ ?x 2 3) 15)", Value::integer(10)),
            Value::integer(1));
  EXPECT_EQ(eval_guard("(== (- ?x 4) 6)", Value::integer(10)),
            Value::integer(1));
  EXPECT_EQ(eval_guard("(== (* ?x ?x) 100)", Value::integer(10)),
            Value::integer(1));
  EXPECT_EQ(eval_guard("(== (/ ?x 3) 3)", Value::integer(10)),
            Value::integer(1));
  EXPECT_EQ(eval_guard("(== (mod ?x 3) 1)", Value::integer(10)),
            Value::integer(1));
  EXPECT_EQ(eval_guard("(== (min ?x 3) 3)", Value::integer(10)),
            Value::integer(1));
  EXPECT_EQ(eval_guard("(== (max ?x 3) 10)", Value::integer(10)),
            Value::integer(1));
  EXPECT_EQ(eval_guard("(== (abs (- 0 ?x)) 10)", Value::integer(10)),
            Value::integer(1));
}

TEST_F(ExprTest, IntFloatPromotion) {
  EXPECT_EQ(eval_guard("(== (+ ?x 0.5) 10.5)", Value::integer(10)),
            Value::integer(1));
  EXPECT_EQ(eval_guard("(== (/ ?x 4.0) 2.5)", Value::integer(10)),
            Value::integer(1));
}

TEST_F(ExprTest, Comparisons) {
  EXPECT_EQ(eval_guard("(< ?x 11)", Value::integer(10)), Value::integer(1));
  EXPECT_EQ(eval_guard("(<= ?x 10)", Value::integer(10)), Value::integer(1));
  EXPECT_EQ(eval_guard("(> ?x 10)", Value::integer(10)), Value::integer(0));
  EXPECT_EQ(eval_guard("(>= ?x 10)", Value::integer(10)), Value::integer(1));
}

TEST_F(ExprTest, EqualityMixesNumericKinds) {
  EXPECT_EQ(eval_guard("(== ?x 10.0)", Value::integer(10)),
            Value::integer(1));
  EXPECT_EQ(eval_guard("(!= ?x 10.0)", Value::integer(10)),
            Value::integer(0));
}

TEST_F(ExprTest, SymbolEquality) {
  // Bare names in expressions are symbolic constants.
  Program p = parse_program(R"(
    (deftemplate r (slot a))
    (defrule g (r (a ?x)) (test (== ?x hello)) => (halt)))");
  const CompiledExpr& guard = p.rules[0].guards[0][0];
  const Symbol hello = p.symbols->intern("hello");
  const Symbol other = p.symbols->intern("other");
  {
    const Value env[] = {Value::symbol(hello)};
    EXPECT_EQ(guard.eval(env), Value::integer(1));
  }
  {
    const Value env[] = {Value::symbol(other)};
    EXPECT_EQ(guard.eval(env), Value::integer(0));
  }
}

TEST_F(ExprTest, BooleanConnectives) {
  EXPECT_EQ(eval_guard("(and (> ?x 5) (< ?x 15))", Value::integer(10)),
            Value::integer(1));
  EXPECT_EQ(eval_guard("(or (> ?x 50) (< ?x 15))", Value::integer(10)),
            Value::integer(1));
  EXPECT_EQ(eval_guard("(not (> ?x 5))", Value::integer(10)),
            Value::integer(0));
}

TEST_F(ExprTest, DivisionByZeroThrows) {
  EXPECT_THROW(eval_guard("(== (/ ?x 0) 1)", Value::integer(10)),
               RuntimeError);
  EXPECT_THROW(eval_guard("(== (mod ?x 0) 1)", Value::integer(10)),
               RuntimeError);
}

TEST_F(ExprTest, ArithmeticOnSymbolThrows) {
  EXPECT_THROW(eval_guard("(== (+ ?x 1) 2)", Value::symbol(3)),
               RuntimeError);
}

TEST_F(ExprTest, OrderingOnSymbolThrows) {
  EXPECT_THROW(eval_guard("(< ?x 5)", Value::symbol(3)), RuntimeError);
}

}  // namespace
}  // namespace parulel
