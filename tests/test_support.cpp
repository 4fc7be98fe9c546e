// Unit tests: symbol table, whole-file reads, values, RNG, stats.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "obs/stats.hpp"
#include "support/read_file.hpp"
#include "support/rng.hpp"
#include "support/symbol_table.hpp"
#include "support/value.hpp"

#include <unistd.h>

namespace parulel {
namespace {

TEST(SymbolTable, EmptyStringIsSymbolZero) {
  SymbolTable t;
  EXPECT_EQ(t.intern(""), 0u);
  EXPECT_EQ(t.name(0), "");
}

TEST(SymbolTable, InternIsIdempotent) {
  SymbolTable t;
  const Symbol a = t.intern("alpha");
  const Symbol b = t.intern("alpha");
  EXPECT_EQ(a, b);
  EXPECT_EQ(t.name(a), "alpha");
}

TEST(SymbolTable, DistinctStringsGetDistinctSymbols) {
  SymbolTable t;
  EXPECT_NE(t.intern("x"), t.intern("y"));
  EXPECT_EQ(t.size(), 3u);  // "", x, y
}

TEST(SymbolTable, StableViewsAcrossGrowth) {
  SymbolTable t;
  const Symbol a = t.intern("first");
  const std::string_view view = t.name(a);
  for (int i = 0; i < 1000; ++i) t.intern("sym" + std::to_string(i));
  EXPECT_EQ(view, "first");
  EXPECT_EQ(t.name(a), "first");
}

TEST(SymbolTable, ConcurrentInternIsSafe) {
  SymbolTable t;
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&t] {
      for (int i = 0; i < 500; ++i) t.intern("shared" + std::to_string(i));
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t.size(), 501u);  // "" + 500 shared
}

TEST(SymbolTable, IdsFollowFirstInternOrderAcrossChunks) {
  // Entries cross several storage chunks (64, 128, 256, ... entries);
  // ids stay dense and in first-intern order, and a long name (past
  // any small-string buffer) survives.
  SymbolTable t;
  const std::string big(40000, 'x');
  for (int i = 1; i <= 5000; ++i) {
    ASSERT_EQ(t.intern("sym" + std::to_string(i)), static_cast<Symbol>(i));
  }
  const Symbol b = t.intern(big);
  EXPECT_EQ(b, 5001u);
  for (int i = 1; i <= 5000; ++i) {
    ASSERT_EQ(t.name(static_cast<Symbol>(i)), "sym" + std::to_string(i));
  }
  EXPECT_EQ(t.name(b), big);
  EXPECT_EQ(t.intern("sym4096"), 4096u);
}

TEST(SymbolTable, NameReadsRaceFreeWithInterning) {
  // Readers look up every published symbol while a writer interns; run
  // under TSan, this pins that name() and size() need no lock.
  SymbolTable t;
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const std::size_t n = t.size();
        for (std::size_t i = 1; i < n; ++i) {
          const std::string_view name = t.name(static_cast<Symbol>(i));
          ASSERT_EQ(name, "word" + std::to_string(i));
        }
      }
    });
  }
  for (int i = 1; i <= 3000; ++i) t.intern("word" + std::to_string(i));
  done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  EXPECT_EQ(t.size(), 3001u);
}

TEST(ReadFile, ReadsFilesAndDevicesRefusesDirectories) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("parulel_read_file_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "f.clp").string();
  const std::string text =
      std::string("(a \0 b)\n", 8) + std::string(70000, 'x');
  std::ofstream(path, std::ios::binary) << text;
  std::string out;
  ASSERT_TRUE(read_file(path, &out));
  EXPECT_EQ(out, text);
  ASSERT_TRUE(read_file("/dev/null", &out));  // unsized: streamed
  EXPECT_EQ(out, "");
  EXPECT_FALSE(read_file(dir.string(), &out));
  EXPECT_FALSE(read_file((dir / "missing").string(), &out));
  std::filesystem::remove_all(dir);
}

TEST(Value, KindsAndAccessors) {
  const Value i = Value::integer(-7);
  const Value f = Value::real(2.5);
  const Value s = Value::symbol(42);
  EXPECT_TRUE(i.is_int());
  EXPECT_TRUE(f.is_float());
  EXPECT_TRUE(s.is_sym());
  EXPECT_EQ(i.as_int(), -7);
  EXPECT_EQ(f.as_float(), 2.5);
  EXPECT_EQ(s.as_sym(), 42u);
}

TEST(Value, EqualityIsStructural) {
  EXPECT_EQ(Value::integer(3), Value::integer(3));
  EXPECT_NE(Value::integer(3), Value::real(3.0));  // kinds differ
  EXPECT_NE(Value::integer(3), Value::symbol(3));
  EXPECT_EQ(Value::symbol(5), Value::symbol(5));
}

TEST(Value, NumericPromotion) {
  EXPECT_DOUBLE_EQ(Value::integer(4).numeric(), 4.0);
  EXPECT_DOUBLE_EQ(Value::real(0.25).numeric(), 0.25);
}

TEST(Value, OrderingIsTotalWithinKind) {
  EXPECT_LT(Value::integer(1), Value::integer(2));
  EXPECT_LT(Value::real(1.0), Value::real(1.5));
  EXPECT_LT(Value::symbol(1), Value::symbol(2));
}

TEST(Value, HashDistinguishesKinds) {
  // Same payload bits, different kinds: hashes should differ.
  EXPECT_NE(Value::integer(7).hash(), Value::symbol(7).hash());
}

TEST(Value, HashIsConsistentWithEquality) {
  const Value a = Value::integer(123456789);
  const Value b = Value::integer(123456789);
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(Value, ToStringRendersAllKinds) {
  SymbolTable t;
  const Symbol hello = t.intern("hello");
  EXPECT_EQ(Value::integer(-3).to_string(t), "-3");
  EXPECT_EQ(Value::symbol(hello).to_string(t), "hello");
  EXPECT_EQ(Value::real(1.5).to_string(t), "1.5");
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, BelowRespectsBound) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(10), 10u);
}

TEST(Rng, BetweenIsInclusive) {
  Rng r(7);
  std::unordered_set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.between(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, UnitInHalfOpenInterval) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RunStats, AbsorbAccumulates) {
  RunStats stats;
  CycleStats c1;
  c1.fired = 3;
  c1.asserts = 5;
  c1.conflict_set_size = 10;
  c1.match_ns = 100;
  CycleStats c2;
  c2.fired = 2;
  c2.retracts = 1;
  c2.conflict_set_size = 4;
  c2.match_ns = 50;
  stats.absorb(c1);
  stats.absorb(c2);
  EXPECT_EQ(stats.cycles, 2u);
  EXPECT_EQ(stats.total_firings, 5u);
  EXPECT_EQ(stats.total_asserts, 5u);
  EXPECT_EQ(stats.total_retracts, 1u);
  EXPECT_EQ(stats.peak_conflict_set, 10u);
  EXPECT_EQ(stats.match_ns, 150u);
}

TEST(RunStats, SummaryMentionsKeyCounters) {
  RunStats stats;
  stats.cycles = 7;
  stats.quiescent = true;
  const std::string s = stats.summary();
  EXPECT_NE(s.find("cycles=7"), std::string::npos);
  EXPECT_NE(s.find("quiescent"), std::string::npos);
}

}  // namespace
}  // namespace parulel
