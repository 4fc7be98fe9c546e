// Shared engine configuration and interface.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>

#include "engine/strategy.hpp"
#include "lang/program.hpp"
#include "match/matcher.hpp"
#include "obs/stats.hpp"
#include "wm/working_memory.hpp"

namespace parulel {

class ThreadPool;

namespace obs {
class TraceSink;
class MetricsRegistry;
}  // namespace obs

/// One fired instantiation, for audit/explanation tooling.
struct FiringRecord {
  std::uint64_t cycle = 0;
  RuleId rule = 0;
  std::vector<FactId> facts;
};

struct EngineConfig {
  /// Worker threads for the parallel engine (>=1). The sequential engine
  /// ignores this.
  unsigned threads = 1;

  /// When non-null, the parallel engine runs its match/fire phases on
  /// this shared pool instead of creating a private one (`threads` is
  /// then ignored). The service layer points many sessions at one
  /// machine-sized pool this way. The pool must outlive the engine, and
  /// fork-join batches do not nest: at most one engine may be inside
  /// run()/step() on a given pool at any moment (RuleService serializes
  /// commits to guarantee this).
  ThreadPool* pool = nullptr;

  /// Safety valve: abort the run after this many cycles.
  std::uint64_t max_cycles = 10'000'000;

  /// Record per-cycle stats into RunStats::per_cycle.
  bool trace_cycles = false;

  /// Sequential engine: conflict-resolution strategy.
  Strategy strategy = Strategy::Lex;

  /// Which match algorithm to use. The parallel engine accepts Treat or
  /// ParallelTreat (Rete is inherently sequential here).
  MatcherKind matcher = MatcherKind::Rete;

  /// Sink for (printout ...) actions; null discards.
  std::ostream* output = nullptr;

  /// Seed for Strategy::Random.
  std::uint64_t seed = 1;

  /// Parallel engine: before meta-rule redaction, restrict each cycle's
  /// eligible set to the highest-salience stratum present. Off by
  /// default — pure PARULEL semantics ignores salience and leaves
  /// ordering to meta-rules; this option is the hybrid for programs
  /// written against OPS5-style stratification.
  bool stratified_salience = false;

  /// When non-null, receives one firing record per fired instantiation, in
  /// firing order — the audit trail for explanation tooling.
  std::vector<FiringRecord>* firing_log = nullptr;

  /// Observability (see src/obs/). `trace`, when non-null, receives one
  /// structured "cycle" event per recognize-act cycle and a final "run"
  /// event (JSONL). `metrics`, when non-null, receives engine, matcher,
  /// meta, and thread-pool counters at the end of run(). Both disabled
  /// paths cost one branch per cycle; compiling with
  /// -DPARULEL_OBS_ENABLED=0 removes even that.
  obs::TraceSink* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

/// Common engine surface: own a working memory, run to quiescence.
class Engine {
 public:
  virtual ~Engine() = default;

  virtual WorkingMemory& wm() = 0;
  const WorkingMemory& wm() const {
    return const_cast<Engine*>(this)->wm();
  }

  /// Assert the program's deffacts into working memory.
  virtual void assert_initial_facts() = 0;

  /// Run recognize-act cycles until quiescence, halt, or max_cycles.
  virtual RunStats run() = 0;

  virtual const char* name() const = 0;
};

}  // namespace parulel
