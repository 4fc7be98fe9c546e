// Unit and equivalence tests: fault injection, reliable routing, and
// WAL crash recovery in the simulated distributed engine — which runs
// the same SiteCore and WAL replay a parulel_site process runs.
//
// The load-bearing property (the tentpole invariant): for any fault
// plan that eventually lets every message through, the run converges to
// the fault-free fixpoint — global_fingerprint() is unchanged by loss,
// duplication, delay, and site crashes. The sweep below checks it
// across seeds x site counts x loss rates, alongside the counter
// reconciliation invariants documented on FaultStats.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "distrib/checkpoint.hpp"
#include "distrib/dist_engine.hpp"
#include "distrib/faults.hpp"
#include "engine/par_engine.hpp"
#include "support/error.hpp"
#include "workloads/workloads.hpp"

namespace parulel {
namespace {

// Tests would hang on a routing bug that never quiesces; a finite cap
// turns that into a fast CycleLimit failure instead.
constexpr std::uint64_t kTestMaxCycles = 10'000;

struct DistOutcome {
  std::uint64_t fingerprint = 0;
  DistStats stats;
};

DistOutcome run_dist(const Program& program,
                     const std::unordered_map<std::string, std::string>& part,
                     unsigned sites, const FaultPlan& plan,
                     std::uint64_t checkpoint_every) {
  DistConfig cfg;
  cfg.sites = sites;
  cfg.max_cycles = kTestMaxCycles;
  cfg.faults = plan;
  cfg.checkpoint_every = checkpoint_every;
  PartitionScheme scheme(program, part);
  DistributedEngine dist(program, std::move(scheme), cfg);
  dist.assert_initial_facts();
  DistOutcome out;
  out.stats = dist.run();
  out.fingerprint = dist.global_fingerprint();
  return out;
}

void expect_counters_reconcile(const FaultStats& f) {
  EXPECT_EQ(f.sent, f.delivered + f.dropped)
      << "every transmission attempt must resolve";
  EXPECT_EQ(f.delivered, f.applied + f.dup_suppressed + f.wiped)
      << "every delivery must be applied, suppressed, or crash-wiped";
}

// ------------------------------------------------------- FaultPlan spec

TEST(FaultPlan, ParsesFullSpec) {
  const FaultPlan plan = FaultPlan::parse(
      "loss=0.2,dup=0.05,delay=0.1,maxdelay=4,seed=7,crash=1@5+4;0@9+2");
  EXPECT_DOUBLE_EQ(plan.loss_rate, 0.2);
  EXPECT_DOUBLE_EQ(plan.duplicate_rate, 0.05);
  EXPECT_DOUBLE_EQ(plan.delay_rate, 0.1);
  EXPECT_EQ(plan.max_delay_cycles, 4u);
  EXPECT_EQ(plan.seed, 7u);
  ASSERT_EQ(plan.crashes.size(), 2u);
  EXPECT_EQ(plan.crashes[0].site, 1u);
  EXPECT_EQ(plan.crashes[0].at_cycle, 5u);
  EXPECT_EQ(plan.crashes[0].down_cycles, 4u);
  EXPECT_EQ(plan.crashes[1].site, 0u);
  EXPECT_TRUE(plan.enabled());
  EXPECT_TRUE(plan.any_network_faults());
}

TEST(FaultPlan, EmptySpecIsDisabled) {
  const FaultPlan plan = FaultPlan::parse("");
  EXPECT_FALSE(plan.enabled());
  EXPECT_FALSE(plan.any_network_faults());
}

TEST(FaultPlan, CrashOnlyPlanIsEnabledButNotNetwork) {
  const FaultPlan plan = FaultPlan::parse("crash=0@3+2");
  EXPECT_TRUE(plan.enabled());
  EXPECT_FALSE(plan.any_network_faults());
}

TEST(FaultPlan, MalformedSpecsThrow) {
  EXPECT_THROW(FaultPlan::parse("loss"), ParseError);
  EXPECT_THROW(FaultPlan::parse("loss=1.0"), ParseError);   // rate must be < 1
  EXPECT_THROW(FaultPlan::parse("loss=-0.1"), ParseError);
  EXPECT_THROW(FaultPlan::parse("loss=abc"), ParseError);
  EXPECT_THROW(FaultPlan::parse("turbo=1"), ParseError);    // unknown key
  EXPECT_THROW(FaultPlan::parse("maxdelay=0"), ParseError);
  EXPECT_THROW(FaultPlan::parse("crash=1"), ParseError);    // missing @ +
  EXPECT_THROW(FaultPlan::parse("crash=1@5"), ParseError);
  EXPECT_THROW(FaultPlan::parse("crash=1@5+0"), ParseError);  // no downtime
}

TEST(FaultInjector, SameSeedSameVerdicts) {
  FaultPlan plan;
  plan.seed = 42;
  plan.loss_rate = 0.3;
  plan.duplicate_rate = 0.2;
  plan.delay_rate = 0.2;
  FaultInjector a(plan), b(plan);
  for (int i = 0; i < 1000; ++i) {
    const FaultVerdict va = a.roll(), vb = b.roll();
    ASSERT_EQ(va.drop, vb.drop) << "roll " << i;
    ASSERT_EQ(va.duplicate, vb.duplicate) << "roll " << i;
    ASSERT_EQ(va.delay, vb.delay) << "roll " << i;
  }
  EXPECT_EQ(a.rolls(), 1000u);
}

TEST(FaultInjector, RatesRoughlyRespected) {
  FaultPlan plan;
  plan.seed = 9;
  plan.loss_rate = 0.25;
  FaultInjector inj(plan);
  int drops = 0;
  for (int i = 0; i < 4000; ++i) {
    if (inj.roll().drop) ++drops;
  }
  EXPECT_GT(drops, 4000 * 0.15);
  EXPECT_LT(drops, 4000 * 0.35);
}

// ------------------------------------------------------ checkpoint state

TEST(AppliedSeqs, InOrderAdvancesFloorWithoutSparse) {
  AppliedSeqs s;
  for (std::uint64_t seq = 1; seq <= 100; ++seq) s.add(seq);
  EXPECT_EQ(s.floor, 100u);
  EXPECT_TRUE(s.sparse.empty());
  EXPECT_TRUE(s.contains(57));
  EXPECT_FALSE(s.contains(101));
}

TEST(AppliedSeqs, OutOfOrderCompressesOnGapFill) {
  AppliedSeqs s;
  s.add(2);
  s.add(4);
  s.add(3);
  EXPECT_EQ(s.floor, 0u);  // 1 still missing
  EXPECT_EQ(s.sparse.size(), 3u);
  s.add(1);  // gap fills; the whole prefix collapses into the floor
  EXPECT_EQ(s.floor, 4u);
  EXPECT_TRUE(s.sparse.empty());
  s.add(4);  // duplicate add is a no-op
  EXPECT_EQ(s.floor, 4u);
}

TEST(Checkpoint, RoundtripPreservesContent) {
  const Program p = parse_program(R"(
    (deftemplate item (slot id) (slot tag))
    (deffacts f (item (id 1) (tag a)) (item (id 2) (tag b))))");
  WorkingMemory wm(p.schema);
  for (const auto& fact : p.initial_facts) {
    wm.assert_fact(fact.tmpl, fact.slots);
  }
  wm.drain_delta();  // settle, as a mid-run snapshot would be
  const FactId doomed = *wm.find(p.initial_facts[0].tmpl,
                                 p.initial_facts[0].slots);
  wm.retract(doomed);

  std::vector<ChannelRecvState> recv(2);
  recv[1].by_epoch[1].add(1);
  recv[1].by_epoch[1].add(2);
  const SiteCheckpoint cp = capture_checkpoint(5, wm, recv);
  EXPECT_EQ(cp.cycle, 5u);
  EXPECT_EQ(cp.facts.size(), 1u);  // the retracted fact is not captured

  const auto restored = restore_working_memory(p.schema, cp);
  EXPECT_EQ(restored->alive_count(), 1u);
  EXPECT_EQ(restored->content_fingerprint(), wm.content_fingerprint());
  EXPECT_TRUE(cp.recv[1].by_epoch.at(1).contains(2));
}

// --------------------------------------------------- termination reason

TEST(TerminationReason, NamesAreStable) {
  EXPECT_STREQ(termination_name(TerminationReason::Quiescent), "quiescent");
  EXPECT_STREQ(termination_name(TerminationReason::Halted), "halted");
  EXPECT_STREQ(termination_name(TerminationReason::CycleLimit),
               "cycle_limit");
}

TEST(TerminationReason, ParallelEngineReportsCycleLimit) {
  const auto w = workloads::make_tc(12, 30, 5);
  const Program p = parse_program(w.source);
  EngineConfig cfg;
  cfg.matcher = MatcherKind::ParallelTreat;
  cfg.max_cycles = 1;  // transitive closure needs more than one cycle
  ParallelEngine engine(p, cfg);
  engine.assert_initial_facts();
  const RunStats stats = engine.run();
  EXPECT_EQ(stats.termination, TerminationReason::CycleLimit);
  EXPECT_FALSE(stats.quiescent);
}

TEST(TerminationReason, ParallelEngineReportsQuiescent) {
  const auto w = workloads::make_tc(12, 30, 5);
  const Program p = parse_program(w.source);
  EngineConfig cfg;
  cfg.matcher = MatcherKind::ParallelTreat;
  ParallelEngine engine(p, cfg);
  engine.assert_initial_facts();
  const RunStats stats = engine.run();
  EXPECT_EQ(stats.termination, TerminationReason::Quiescent);
}

TEST(TerminationReason, DistributedEngineReportsCycleLimit) {
  const auto w = workloads::make_tc(12, 30, 5);
  const Program p = parse_program(w.source);
  PartitionScheme scheme(p, w.partition);
  DistConfig cfg;
  cfg.sites = 2;
  cfg.max_cycles = 1;
  DistributedEngine dist(p, std::move(scheme), cfg);
  dist.assert_initial_facts();
  const DistStats stats = dist.run();
  EXPECT_EQ(stats.run.termination, TerminationReason::CycleLimit);
}

// ----------------------------------------------- fault-free reliability

TEST(ReliableRouting, NoFaultsMatchesFastPath) {
  // checkpoint_every alone turns on site journaling and fault
  // accounting; with no injected faults it must reproduce the plain run
  // bit for bit.
  const auto w = workloads::make_tc(20, 48, 3);
  const Program p = parse_program(w.source);
  const DistOutcome plain = run_dist(p, w.partition, 3, FaultPlan{}, 0);
  ASSERT_TRUE(plain.stats.run.quiescent);
  EXPECT_EQ(plain.stats.faults.sent, 0u);  // plain run: no fault accounting

  const DistOutcome reliable = run_dist(p, w.partition, 3, FaultPlan{}, 2);
  EXPECT_TRUE(reliable.stats.run.quiescent);
  EXPECT_EQ(reliable.fingerprint, plain.fingerprint);
  EXPECT_GT(reliable.stats.faults.checkpoints, 0u);
  EXPECT_EQ(reliable.stats.faults.dropped, 0u);
  EXPECT_EQ(reliable.stats.faults.retries, 0u);
  EXPECT_EQ(reliable.stats.messages, plain.stats.messages);
  expect_counters_reconcile(reliable.stats.faults);
}

// --------------------------------------------------- equivalence sweeps

TEST(FaultEquivalence, LossSweepConvergesToFaultFreeFingerprint) {
  for (const unsigned sites : {2u, 4u}) {
    const auto w = workloads::make_tc(20, 48, 13);
    const Program p = parse_program(w.source);
    const DistOutcome baseline =
        run_dist(p, w.partition, sites, FaultPlan{}, 0);
    ASSERT_TRUE(baseline.stats.run.quiescent);

    for (const std::uint64_t seed : {3u, 11u, 29u}) {
      for (const double loss : {0.1, 0.3}) {
        FaultPlan plan;
        plan.seed = seed;
        plan.loss_rate = loss;
        const DistOutcome faulty = run_dist(p, w.partition, sites, plan, 0);
        SCOPED_TRACE("sites=" + std::to_string(sites) +
                     " seed=" + std::to_string(seed) +
                     " loss=" + std::to_string(loss));
        EXPECT_TRUE(faulty.stats.run.quiescent);
        EXPECT_EQ(faulty.fingerprint, baseline.fingerprint);
        expect_counters_reconcile(faulty.stats.faults);
        if (faulty.stats.faults.dropped > 0) {
          EXPECT_GT(faulty.stats.faults.retries, 0u)
              << "drops must trigger retransmission";
        }
      }
    }
  }
}

TEST(FaultEquivalence, DuplicationAndDelayAreAbsorbed) {
  const auto w = workloads::make_tc(20, 48, 17);
  const Program p = parse_program(w.source);
  const DistOutcome baseline = run_dist(p, w.partition, 3, FaultPlan{}, 0);
  ASSERT_TRUE(baseline.stats.run.quiescent);

  for (const std::uint64_t seed : {3u, 11u, 29u}) {
    FaultPlan plan;
    plan.seed = seed;
    plan.loss_rate = 0.1;
    plan.duplicate_rate = 0.2;
    plan.delay_rate = 0.2;
    plan.max_delay_cycles = 3;
    const DistOutcome faulty = run_dist(p, w.partition, 3, plan, 0);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    EXPECT_TRUE(faulty.stats.run.quiescent);
    EXPECT_EQ(faulty.fingerprint, baseline.fingerprint);
    expect_counters_reconcile(faulty.stats.faults);
    if (faulty.stats.faults.delayed > 0 ||
        faulty.stats.faults.dup_suppressed > 0) {
      // Duplicates were really injected and really suppressed — the
      // working memory applied each op exactly once.
      EXPECT_EQ(faulty.stats.faults.applied,
                faulty.stats.faults.delivered -
                    faulty.stats.faults.dup_suppressed -
                    faulty.stats.faults.wiped);
    }
  }
}

// ------------------------------------------------------ crash recovery

TEST(CrashRecovery, SiteCrashAndRestoreConvergesWithLoss) {
  const auto w = workloads::make_tc(20, 48, 13);
  const Program p = parse_program(w.source);
  const DistOutcome baseline = run_dist(p, w.partition, 3, FaultPlan{}, 0);
  ASSERT_TRUE(baseline.stats.run.quiescent);

  FaultPlan plan;
  plan.seed = 7;
  plan.loss_rate = 0.1;
  plan.crashes.push_back({.site = 1, .at_cycle = 2, .down_cycles = 3});
  const DistOutcome faulty = run_dist(p, w.partition, 3, plan, 2);
  EXPECT_TRUE(faulty.stats.run.quiescent);
  EXPECT_EQ(faulty.fingerprint, baseline.fingerprint);
  EXPECT_EQ(faulty.stats.faults.crashes, 1u);
  EXPECT_EQ(faulty.stats.faults.restores, 1u);
  EXPECT_GT(faulty.stats.faults.checkpoints, 0u);
  expect_counters_reconcile(faulty.stats.faults);
}

TEST(CrashRecovery, CrashBeforeFirstPeriodicCheckpoint) {
  // A site that dies at cycle 0 restarts from the initial snapshot and
  // must re-derive everything it lost.
  const auto w = workloads::make_tc(16, 40, 23);
  const Program p = parse_program(w.source);
  const DistOutcome baseline = run_dist(p, w.partition, 2, FaultPlan{}, 0);
  ASSERT_TRUE(baseline.stats.run.quiescent);

  FaultPlan plan;
  plan.crashes.push_back({.site = 0, .at_cycle = 1, .down_cycles = 2});
  const DistOutcome faulty = run_dist(p, w.partition, 2, plan, 0);
  EXPECT_TRUE(faulty.stats.run.quiescent);
  EXPECT_EQ(faulty.fingerprint, baseline.fingerprint);
  EXPECT_EQ(faulty.stats.faults.restores, 1u);
  expect_counters_reconcile(faulty.stats.faults);
}

TEST(CrashRecovery, RepeatedCrashesOfDifferentSites) {
  const auto w = workloads::make_tc(20, 48, 29);
  const Program p = parse_program(w.source);
  const DistOutcome baseline = run_dist(p, w.partition, 4, FaultPlan{}, 0);
  ASSERT_TRUE(baseline.stats.run.quiescent);

  FaultPlan plan;
  plan.seed = 11;
  plan.loss_rate = 0.05;
  plan.crashes.push_back({.site = 0, .at_cycle = 1, .down_cycles = 2});
  plan.crashes.push_back({.site = 2, .at_cycle = 3, .down_cycles = 2});
  const DistOutcome faulty = run_dist(p, w.partition, 4, plan, 2);
  EXPECT_TRUE(faulty.stats.run.quiescent);
  EXPECT_EQ(faulty.fingerprint, baseline.fingerprint);
  EXPECT_EQ(faulty.stats.faults.crashes, 2u);
  EXPECT_EQ(faulty.stats.faults.restores, 2u);
  expect_counters_reconcile(faulty.stats.faults);
}

// A relay: each hop is derivable only from the previous one, and hops
// are partitioned by position, so nearly every hop crosses sites. Unlike
// tc — where every site re-derives the paths it ships — a message lost
// here is lost for good, so recovery must restore what was applied.
constexpr const char* kRelayProgram = R"(
  (deftemplate hop (slot chain) (slot n))
  (defrule relay (hop (chain ?c) (n ?n)) (test (< ?n 12))
    => (assert (hop (chain ?c) (n (+ ?n 1)))))
  (deffacts f (hop (chain 1) (n 0)) (hop (chain 2) (n 0))
              (hop (chain 3) (n 0)) (hop (chain 4) (n 0))))";

TEST(CrashRecovery, KillAtEveryBarrierSweep) {
  // Crash one site at every barrier boundary of the fault-free run,
  // under loss, duplication and delay, across seeds. Every run recovers
  // through the WAL replay a parulel_site runs and must land on the
  // fault-free fixpoint.
  constexpr unsigned kSites = 3;
  const auto tc = workloads::make_tc(20, 48, 13);
  const std::pair<std::string, std::unordered_map<std::string, std::string>>
      cases[] = {{tc.source, tc.partition},
                 {kRelayProgram, {{"hop", "n"}}}};
  for (const auto& [source, partition] : cases) {
    const Program p = parse_program(source);
    const DistOutcome baseline =
        run_dist(p, partition, kSites, FaultPlan{}, 0);
    ASSERT_TRUE(baseline.stats.run.quiescent);
    ASSERT_GT(baseline.stats.run.cycles, 2u);
    ASSERT_GT(baseline.stats.messages, 0u);

    std::uint64_t crashes = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      for (std::uint64_t c = 0; c < baseline.stats.run.cycles; ++c) {
        FaultPlan plan;
        plan.seed = seed;
        plan.loss_rate = 0.1;
        plan.duplicate_rate = 0.1;
        plan.delay_rate = 0.1;
        plan.crashes.push_back({.site = static_cast<unsigned>(c % kSites),
                                .at_cycle = c,
                                .down_cycles = 1 + (seed + c) % 2});
        const DistOutcome faulty = run_dist(p, partition, kSites, plan, 2);
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " crash=" + std::to_string(c % kSites) + "@" +
                     std::to_string(c));
        EXPECT_TRUE(faulty.stats.run.quiescent);
        EXPECT_EQ(faulty.fingerprint, baseline.fingerprint);
        EXPECT_EQ(faulty.stats.faults.crashes, faulty.stats.faults.restores);
        expect_counters_reconcile(faulty.stats.faults);
        crashes += faulty.stats.faults.crashes;
      }
    }
    // Faulty runs last at least as long as the fault-free one, so every
    // scheduled crash lands.
    EXPECT_EQ(crashes, 8 * baseline.stats.run.cycles);
  }
}

TEST(CrashRecovery, RunsAreIdenticalForAnyThreadCount) {
  // Cores run concurrently on the pool, but delivery is serial in site
  // order: the whole run, fault counters included, is thread-invariant.
  const auto w = workloads::make_tc(20, 48, 29);
  const Program p = parse_program(w.source);
  const FaultPlan plan = FaultPlan::parse(
      "seed=5,loss=0.1,dup=0.1,delay=0.1,crash=2@3+2");
  std::vector<DistStats> runs;
  std::vector<std::uint64_t> fingerprints;
  for (const unsigned threads : {1u, 4u}) {
    DistConfig cfg;
    cfg.sites = 4;
    cfg.threads = threads;
    cfg.max_cycles = kTestMaxCycles;
    cfg.faults = plan;
    cfg.checkpoint_every = 2;
    DistributedEngine dist(p, PartitionScheme(p, w.partition), cfg);
    dist.assert_initial_facts();
    runs.push_back(dist.run());
    fingerprints.push_back(dist.global_fingerprint());
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
  EXPECT_EQ(runs[0].run.cycles, runs[1].run.cycles);
  EXPECT_EQ(runs[0].messages, runs[1].messages);
  EXPECT_EQ(runs[0].per_site_firings, runs[1].per_site_firings);
  for (const auto& f : obs::fault_fields()) {
    EXPECT_EQ(runs[0].faults.*f.member, runs[1].faults.*f.member) << f.name;
  }
}

TEST(CrashRecovery, OutOfRangeCrashSiteRefused) {
  const auto w = workloads::make_tc(12, 30, 5);
  const Program p = parse_program(w.source);
  PartitionScheme scheme(p, w.partition);
  DistConfig cfg;
  cfg.sites = 2;
  cfg.faults.crashes.push_back({.site = 5, .at_cycle = 1, .down_cycles = 1});
  EXPECT_THROW(DistributedEngine(p, std::move(scheme), cfg), RuntimeError);
}

// ------------------------------------------- meta-rules under faults

TEST(FaultEquivalence, MetaRuleWorkloadSurvivesFaults) {
  // The meta-stress waltz: per-site redaction fixpoints must still land
  // on the shared-memory result when the network misbehaves.
  const auto w = workloads::make_waltz(3, /*prebuilt_witnesses=*/false);
  const Program p = parse_program(w.source);

  EngineConfig shared_cfg;
  shared_cfg.threads = 2;
  shared_cfg.matcher = MatcherKind::ParallelTreat;
  ParallelEngine shared(p, shared_cfg);
  shared.assert_initial_facts();
  shared.run();

  FaultPlan plan;
  plan.seed = 19;
  plan.loss_rate = 0.15;
  plan.duplicate_rate = 0.1;
  const DistOutcome faulty = run_dist(p, w.partition, 3, plan, 3);
  EXPECT_TRUE(faulty.stats.run.quiescent);
  EXPECT_EQ(faulty.fingerprint, shared.wm().content_fingerprint());
  EXPECT_GT(faulty.stats.run.total_redactions, 0u);
  expect_counters_reconcile(faulty.stats.faults);
}

}  // namespace
}  // namespace parulel
