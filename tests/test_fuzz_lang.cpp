// Seeded mutational fuzzing of the .clp front end.
//
// Seeds are the shipped example programs and small instances of every
// workload generator. Each iteration applies a few random mutations
// (byte flips and insertions, truncation, paren insertion and deletion,
// quoting a word, splicing in a slice of another seed) and feeds the
// result to the front end. Two properties must hold for every input:
//   - the lexer and parse_program either return or throw ParseError:
//     no other exception, no crash (the sanitizer build turns memory
//     errors and undefined behaviour into crashes);
//   - an accepted program round-trips: parse_ast(print_ast(ast))
//     compiles to the identical compile_listing and initial facts, and
//     printing is a fixpoint of its own output.
// The iteration counts and seeds are fixed, so a failure reproduces.
#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <typeinfo>
#include <vector>

#include "compile/compiler.hpp"
#include "lang/analyzer.hpp"
#include "lang/lexer.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "lang/program.hpp"
#include "support/error.hpp"
#include "support/read_file.hpp"
#include "support/rng.hpp"
#include "workloads/workloads.hpp"

namespace parulel {
namespace {

std::vector<std::string> seed_corpus() {
  std::vector<std::string> corpus;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(PARULEL_SOURCE_DIR) + "/examples/programs")) {
    if (entry.path().extension() == ".clp") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    std::string text;
    if (read_file(path.string(), &text)) corpus.push_back(std::move(text));
  }
  using namespace workloads;
  for (const Workload& w :
       {make_tc(6, 10, 1), make_sieve(20, true), make_waltz(1, true),
        make_waltz(1, false), make_manners(4, 2, 3), make_synth(3, 4, 3, 5),
        make_life(3, 2, 7), make_routing(5, 8, 9, true)}) {
    corpus.push_back(w.source);
  }
  return corpus;
}

const std::vector<std::string>& corpus() {
  static const std::vector<std::string> c = seed_corpus();
  return c;
}

/// Characters that steer the lexer and parser into their edge cases.
constexpr std::string_view kInteresting = "()()\"?;\\ \n=>-+.0123456789eE~x";

char random_byte(Rng& rng) {
  if (rng.below(4) == 0) return static_cast<char>(rng.below(256));
  return kInteresting[rng.below(kInteresting.size())];
}

std::size_t random_pos(Rng& rng, const std::string& s) {
  return static_cast<std::size_t>(rng.below(s.size() + 1));
}

void mutate_once(Rng& rng, std::string& s) {
  switch (rng.below(7)) {
    case 0:  // byte flip
      if (!s.empty()) s[rng.below(s.size())] = random_byte(rng);
      break;
    case 1:  // truncation
      s.resize(random_pos(rng, s));
      break;
    case 2:  // paren insertion
      s.insert(random_pos(rng, s), 1, rng.below(2) ? '(' : ')');
      break;
    case 3: {  // paren deletion
      std::vector<std::size_t> parens;
      for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '(' || s[i] == ')') parens.push_back(i);
      }
      if (!parens.empty()) s.erase(parens[rng.below(parens.size())], 1);
      break;
    }
    case 4: {  // splice a slice of a seed in
      const std::string& donor = corpus()[rng.below(corpus().size())];
      const std::size_t from = random_pos(rng, donor);
      const std::size_t len =
          std::min<std::size_t>(donor.size() - from, rng.below(200));
      s.insert(random_pos(rng, s), donor, from, len);
      break;
    }
    case 5: {  // quote the word under a random position: 12 -> "12"
      auto in_word = [&](std::size_t i) {
        return s[i] != ' ' && s[i] != '\n' && s[i] != '(' && s[i] != ')' &&
               s[i] != '"';
      };
      if (s.empty()) break;
      std::size_t begin = rng.below(s.size());
      if (!in_word(begin)) break;
      std::size_t end = begin;
      while (begin > 0 && in_word(begin - 1)) --begin;
      while (end < s.size() && in_word(end)) ++end;
      s.insert(end, 1, '"');
      s.insert(begin, 1, '"');
      break;
    }
    default:  // byte insertion
      s.insert(random_pos(rng, s), 1, random_byte(rng));
      break;
  }
}

std::string mutant(Rng& rng) {
  std::string s = corpus()[rng.below(corpus().size())];
  const auto n = 1 + rng.below(4);
  for (std::uint64_t i = 0; i < n; ++i) mutate_once(rng, s);
  return s;
}

/// Runs `fn`; returns false when it threw ParseError, true when it
/// returned, and fails the test (naming the input) on anything else.
template <typename Fn>
bool accepts(const std::string& input, Fn fn) {
  try {
    fn();
    return true;
  } catch (const ParseError&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "threw " << typeid(e).name() << ": " << e.what()
                  << "\n--- input:\n" << input;
    return false;
  }
}

void expect_round_trip(const std::string& input) {
  auto symbols = std::make_shared<SymbolTable>();
  const ProgramAst ast = parse_ast(input, *symbols);
  const Program first = analyze(ast, symbols);
  const std::string printed = print_ast(ast, *symbols);
  ProgramAst reparsed;
  Program second;
  ASSERT_TRUE(accepts(printed, [&] {
    reparsed = parse_ast(printed, *symbols);
    second = analyze(reparsed, symbols);
  })) << "printed program was rejected\n--- input:\n" << input
      << "\n--- printed:\n" << printed;
  EXPECT_EQ(compile_listing(first), compile_listing(second))
      << "--- input:\n" << input << "\n--- printed:\n" << printed;
  ASSERT_EQ(first.initial_facts.size(), second.initial_facts.size());
  for (std::size_t i = 0; i < first.initial_facts.size(); ++i) {
    EXPECT_EQ(first.initial_facts[i].tmpl, second.initial_facts[i].tmpl);
    EXPECT_EQ(first.initial_facts[i].slots, second.initial_facts[i].slots)
        << "--- printed:\n" << printed;
  }
  EXPECT_EQ(printed, print_ast(reparsed, *symbols));
}

class FuzzLang : public ::testing::TestWithParam<int> {};

TEST_P(FuzzLang, MutantsParseOrFailClosedAndRoundTrip) {
  constexpr int kIterations = 1000;
  Rng rng(0x9a7e1u + static_cast<std::uint64_t>(GetParam()) * 7919u);
  int accepted = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::string input = mutant(rng);
    accepts(input, [&] { tokenize(input); });
    if (accepts(input, [&] { parse_program(input); })) {
      ++accepted;
      expect_round_trip(input);
    }
    if (HasFailure()) {
      FAIL() << "iteration " << i << " of seed " << GetParam();
    }
  }
  // About one mutant in ten stays valid; if none did, the round-trip
  // property would be tested on nothing.
  EXPECT_GT(accepted, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzLang, ::testing::Range(0, 10));

TEST(FuzzLang, SeedsRoundTrip) {
  for (const std::string& seed : corpus()) {
    ASSERT_TRUE(accepts(seed, [&] { parse_program(seed); }));
    expect_round_trip(seed);
  }
}

}  // namespace
}  // namespace parulel
