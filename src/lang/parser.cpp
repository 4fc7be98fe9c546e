#include "lang/parser.hpp"

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "lang/lexer.hpp"
#include "support/error.hpp"

namespace parulel {
namespace {

/// Deepest `(` nesting parse_expr accepts. Expressions are parsed (and
/// later compiled, printed and destroyed) recursively, so an unbounded
/// depth would let a hostile program overflow the stack.
constexpr int kMaxExprDepth = 256;

/// Recursive descent over a pull lexer, with up to two tokens of
/// lookahead, and helpers for the s-expression shape. Tokens are held by
/// value: the lookahead slots are overwritten as the parse advances.
class Parser {
 public:
  Parser(std::string_view source, SymbolTable& symbols)
      : lexer_(source), symbols_(symbols), cur_(lexer_.next()) {}

  ProgramAst parse_program() {
    ProgramAst out;
    while (!at(TokenKind::End)) {
      expect(TokenKind::LParen, "top-level form");
      const Token head = expect(TokenKind::Name, "form keyword");
      if (head.text == "deftemplate") {
        out.templates.push_back(parse_template());
      } else if (head.text == "defrule") {
        out.rules.push_back(parse_rule(/*is_meta=*/false));
      } else if (head.text == "defmetarule") {
        out.rules.push_back(parse_rule(/*is_meta=*/true));
      } else if (head.text == "deffacts") {
        out.facts.push_back(parse_deffacts());
      } else {
        throw ParseError(
            "unknown top-level form '" + std::string(head.text) + "'",
            head.line);
      }
    }
    return out;
  }

 private:
  const Token& peek() const { return cur_; }
  const Token& peek2() {
    if (!has_next_) {
      next_ = lexer_.next();
      has_next_ = true;
    }
    return next_;
  }
  Token advance() {
    Token t = cur_;
    cur_ = has_next_ ? next_ : lexer_.next();
    has_next_ = false;
    return t;
  }
  bool at(TokenKind k) const { return peek().kind == k; }

  Token expect(TokenKind k, const char* what) {
    if (!at(k)) {
      throw ParseError(std::string("expected ") + what + ", found '" +
                           std::string(text_of(peek())) + "'",
                       peek().line);
    }
    return advance();
  }

  /// A token's text, with a String's escapes resolved into a scratch
  /// buffer that the next call reuses.
  std::string_view text_of(const Token& t) {
    if (!t.has_escapes) return t.text;
    unescaped_ = unescape(t.text);
    return unescaped_;
  }

  /// Interns through a small direct-mapped cache. A program names few
  /// distinct symbols many times over (a 64-cube labeling input: 39
  /// names, 179k uses), and a hit skips the table's lock and hash map.
  /// The cache starts full of {"", 0}, which is right: Symbol 0 is "".
  Symbol intern(const Token& t) {
    const std::string_view text = text_of(t);
    std::uint32_t h = 2166136261u;  // FNV-1a
    for (char c : text) h = (h ^ static_cast<unsigned char>(c)) * 16777619u;
    CacheSlot& slot = cache_[h % kCacheSlots];
    if (slot.text != text) {
      slot.sym = symbols_.intern(text);
      slot.text = symbols_.name(slot.sym);
    }
    return slot.sym;
  }

  TemplateAst parse_template() {
    TemplateAst tmpl;
    tmpl.line = peek().line;
    tmpl.name = intern(expect(TokenKind::Name, "template name"));
    while (at(TokenKind::LParen)) {
      advance();
      const Token kw = expect(TokenKind::Name, "'slot'");
      if (kw.text != "slot") {
        throw ParseError("expected (slot name) in deftemplate", kw.line);
      }
      tmpl.slots.push_back(intern(expect(TokenKind::Name, "slot name")));
      expect(TokenKind::RParen, "')'");
    }
    expect(TokenKind::RParen, "')' closing deftemplate");
    return tmpl;
  }

  DeffactsAst parse_deffacts() {
    DeffactsAst df;
    df.line = peek().line;
    df.name = intern(expect(TokenKind::Name, "deffacts name"));
    while (at(TokenKind::LParen)) {
      df.facts.push_back(parse_pattern(/*negated=*/false));
    }
    expect(TokenKind::RParen, "')' closing deffacts");
    return df;
  }

  RuleAst parse_rule(bool is_meta) {
    RuleAst rule;
    rule.is_meta = is_meta;
    rule.line = peek().line;
    rule.name = intern(expect(TokenKind::Name, "rule name"));

    // Optional (declare (salience N)).
    if (at(TokenKind::LParen) && peek2().kind == TokenKind::Name &&
        peek2().text == "declare") {
      advance();  // (
      advance();  // declare
      expect(TokenKind::LParen, "'(salience N)'");
      const Token kw = expect(TokenKind::Name, "'salience'");
      if (kw.text != "salience") {
        throw ParseError("only (salience N) is supported in declare", kw.line);
      }
      const Token num = expect(TokenKind::Integer, "salience value");
      rule.salience = static_cast<int>(num.int_value);
      expect(TokenKind::RParen, "')'");
      expect(TokenKind::RParen, "')' closing declare");
    }

    // LHS condition elements until `=>`.
    while (!at(TokenKind::Arrow)) {
      rule.lhs.push_back(parse_ce());
    }
    advance();  // =>

    // RHS actions until the closing paren of the rule.
    while (at(TokenKind::LParen)) {
      rule.rhs.push_back(parse_action());
    }
    expect(TokenKind::RParen, "')' closing rule");
    return rule;
  }

  CEAst parse_ce() {
    // Either `?f <- (pattern)` or `(pattern)` / `(not (pattern))` /
    // `(test expr)`.
    if (at(TokenKind::Variable)) {
      const Token var = advance();
      const Token arrow = expect(TokenKind::Name, "'<-'");
      if (arrow.text != "<-") {
        throw ParseError("expected '<-' after fact variable", arrow.line);
      }
      PatternCEAst pat = parse_pattern(/*negated=*/false);
      if (var.text.empty()) {
        throw ParseError("fact variable must be named", var.line);
      }
      pat.fact_var = intern(var);
      return pat;
    }

    expect(TokenKind::LParen, "condition element");
    const Token head = expect(TokenKind::Name, "pattern head");
    if (head.text == "not") {
      PatternCEAst pat = parse_pattern(/*negated=*/true);
      expect(TokenKind::RParen, "')' closing not");
      return pat;
    }
    if (head.text == "exists") {
      PatternCEAst pat = parse_pattern(/*negated=*/true);
      pat.exists = true;
      expect(TokenKind::RParen, "')' closing exists");
      return pat;
    }
    if (head.text == "test") {
      TestCEAst test;
      test.line = head.line;
      test.expr = parse_expr();
      expect(TokenKind::RParen, "')' closing test");
      return test;
    }
    // Plain pattern: head was the template name; rewind conceptually by
    // parsing the body here.
    return parse_pattern_body(intern(head), head.line,
                              /*negated=*/false);
  }

  /// Parses `(tmpl (slot val)...)` including the opening paren.
  PatternCEAst parse_pattern(bool negated) {
    expect(TokenKind::LParen, "pattern");
    const Token head = expect(TokenKind::Name, "template name");
    return parse_pattern_body(intern(head), head.line, negated);
  }

  /// Parses slot constraints and the closing paren; head already consumed.
  PatternCEAst parse_pattern_body(Symbol tmpl, int line, bool negated) {
    PatternCEAst pat;
    pat.tmpl = tmpl;
    pat.negated = negated;
    pat.line = line;
    // Collect into a reused buffer so the pattern gets one exact-size
    // allocation, not one per doubling.
    slots_.clear();
    while (at(TokenKind::LParen)) {
      advance();
      SlotPatternAst& slot = slots_.emplace_back();
      slot.slot = intern(expect(TokenKind::Name, "slot name"));
      const Token v = advance();
      switch (v.kind) {
        case TokenKind::Variable:
          if (v.text.empty()) {
            slot.kind = SlotPatternAst::Kind::Wildcard;
          } else {
            slot.kind = SlotPatternAst::Kind::Var;
            slot.var = intern(v);
          }
          break;
        case TokenKind::Integer:
          slot.kind = SlotPatternAst::Kind::Const;
          slot.constant = Value::integer(v.int_value);
          break;
        case TokenKind::Float:
          slot.kind = SlotPatternAst::Kind::Const;
          slot.constant = Value::real(v.float_value);
          break;
        case TokenKind::Name:
        case TokenKind::String:
          slot.kind = SlotPatternAst::Kind::Const;
          slot.constant = Value::symbol(intern(v));
          break;
        default:
          throw ParseError("bad slot constraint", v.line);
      }
      expect(TokenKind::RParen, "')' closing slot");
    }
    pat.slots.assign(slots_.begin(), slots_.end());
    expect(TokenKind::RParen, "')' closing pattern");
    return pat;
  }

  ActionAst parse_action() {
    expect(TokenKind::LParen, "action");
    const Token head = expect(TokenKind::Name, "action keyword");
    ActionAst act;
    act.line = head.line;

    if (head.text == "assert") {
      act.kind = ActionAst::Kind::Assert;
      expect(TokenKind::LParen, "fact to assert");
      act.tmpl = intern(expect(TokenKind::Name, "template name"));
      while (at(TokenKind::LParen)) {
        advance();
        Symbol slot = intern(expect(TokenKind::Name, "slot name"));
        ExprAst value = parse_expr();
        expect(TokenKind::RParen, "')' closing slot value");
        act.slot_exprs.emplace_back(slot, std::move(value));
      }
      expect(TokenKind::RParen, "')' closing fact");
    } else if (head.text == "retract") {
      act.kind = ActionAst::Kind::Retract;
      const Token v = expect(TokenKind::Variable, "fact variable");
      if (v.text.empty()) throw ParseError("retract needs a named fact variable", v.line);
      act.fact_var = intern(v);
    } else if (head.text == "modify") {
      act.kind = ActionAst::Kind::Modify;
      const Token v = expect(TokenKind::Variable, "fact variable");
      if (v.text.empty()) throw ParseError("modify needs a named fact variable", v.line);
      act.fact_var = intern(v);
      while (at(TokenKind::LParen)) {
        advance();
        Symbol slot = intern(expect(TokenKind::Name, "slot name"));
        ExprAst value = parse_expr();
        expect(TokenKind::RParen, "')' closing slot value");
        act.slot_exprs.emplace_back(slot, std::move(value));
      }
    } else if (head.text == "bind") {
      act.kind = ActionAst::Kind::Bind;
      const Token v = expect(TokenKind::Variable, "variable");
      if (v.text.empty()) throw ParseError("bind needs a named variable", v.line);
      act.bind_var = intern(v);
      act.args.push_back(parse_expr());
    } else if (head.text == "halt") {
      act.kind = ActionAst::Kind::Halt;
    } else if (head.text == "printout") {
      act.kind = ActionAst::Kind::Printout;
      while (!at(TokenKind::RParen)) act.args.push_back(parse_expr());
    } else if (head.text == "redact") {
      act.kind = ActionAst::Kind::Redact;
      act.args.push_back(parse_expr());
    } else {
      throw ParseError("unknown action '" + std::string(head.text) + "'",
                       head.line);
    }

    expect(TokenKind::RParen, "')' closing action");
    return act;
  }

  ExprAst parse_expr() {
    const Token t = advance();
    ExprAst e;
    e.line = t.line;
    switch (t.kind) {
      case TokenKind::Integer:
        e.kind = ExprAst::Kind::Const;
        e.constant = Value::integer(t.int_value);
        return e;
      case TokenKind::Float:
        e.kind = ExprAst::Kind::Const;
        e.constant = Value::real(t.float_value);
        return e;
      case TokenKind::String:
        e.kind = ExprAst::Kind::Const;
        e.constant = Value::symbol(intern(t));
        return e;
      case TokenKind::Name:
        // A bare name in expression position is a symbolic constant.
        e.kind = ExprAst::Kind::Const;
        e.constant = Value::symbol(intern(t));
        return e;
      case TokenKind::Variable:
        if (t.text.empty()) {
          throw ParseError("wildcard '?' is not valid in expressions",
                           t.line);
        }
        e.kind = ExprAst::Kind::Var;
        e.var = intern(t);
        return e;
      case TokenKind::LParen: {
        if (depth_ == kMaxExprDepth) {
          throw ParseError("expression nested deeper than " +
                               std::to_string(kMaxExprDepth),
                           t.line);
        }
        const Token op = expect(TokenKind::Name, "operator");
        e.kind = ExprAst::Kind::Call;
        e.op = intern(op);
        ++depth_;
        while (!at(TokenKind::RParen)) e.args.push_back(parse_expr());
        --depth_;
        advance();  // )
        return e;
      }
      default:
        throw ParseError("bad expression", t.line);
    }
  }

  Lexer lexer_;
  SymbolTable& symbols_;
  Token cur_;
  Token next_;
  bool has_next_ = false;
  std::string unescaped_;
  std::vector<SlotPatternAst> slots_;  // parse_pattern_body's buffer
  struct CacheSlot {
    std::string_view text;  // the table's own copy, stable
    Symbol sym = 0;
  };
  static constexpr std::size_t kCacheSlots = 256;
  std::array<CacheSlot, kCacheSlots> cache_{};
  int depth_ = 0;  // open `(` of the expression being parsed
};

}  // namespace

ProgramAst parse_ast(std::string_view source, SymbolTable& symbols) {
  return Parser(source, symbols).parse_program();
}

}  // namespace parulel
