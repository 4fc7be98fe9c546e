// Rule-service tests: long-lived sessions with incremental ingestion.
//
// The tentpole correctness gate is the interleaving sweep: for a
// confluent program, feeding the external fact stream in ANY batching —
// one batch, many batches, shuffled order — through a retained session
// must reach the same final working-memory fingerprint as a single
// batch run, across matchers and thread counts, with the session's
// rebuild counter pinned at 0 (the matcher network is reused, never
// reconstructed) while the matcher's external_deltas counter grows by
// one per ingested batch.
//
// Around it: session quotas, snapshot/restore, query filtering, and the
// RuleService behaviors — batching, backpressure rejection, flush
// determinism, concurrent multi-session ingestion, idle eviction.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "service/serve.hpp"
#include "service/service.hpp"
#include "service/session.hpp"
#include "workloads/workloads.hpp"

namespace parulel::service {
namespace {

// --------------------------------------------------------------- helpers

struct Fixture {
  Program program;
  explicit Fixture(const std::string& source)
      : program(parse_program(source)) {}
};

SessionConfig session_config(MatcherKind matcher, unsigned threads,
                             bool initial_facts) {
  SessionConfig cfg;
  cfg.matcher = matcher;
  cfg.threads = threads;
  cfg.assert_initial_facts = initial_facts;
  return cfg;
}

/// Feed `facts` into a fresh session as `batches` shuffled slices, with
/// one run_to_quiescence per slice. Returns the final fingerprint and
/// checks the delta-reuse invariant on the way out.
std::uint64_t run_interleaved(const Program& program, MatcherKind matcher,
                              unsigned threads,
                              const std::vector<GroundFact>& facts,
                              std::size_t batches, std::uint64_t seed) {
  std::vector<GroundFact> order = facts;
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);

  Session session(program, session_config(matcher, threads, false));
  const std::size_t per =
      std::max<std::size_t>(1, (order.size() + batches - 1) / batches);
  std::size_t fed_batches = 0;
  for (std::size_t start = 0; start < order.size(); start += per) {
    const std::size_t end = std::min(order.size(), start + per);
    for (std::size_t i = start; i < end; ++i) {
      session.assert_fact(order[i].tmpl, order[i].slots);
    }
    session.run_to_quiescence();
    ++fed_batches;
  }
  EXPECT_EQ(session.counters().rebuilds, 0u)
      << "incremental ingestion must never rebuild the matcher";
  EXPECT_EQ(session.match_stats().external_deltas, fed_batches)
      << "each external batch must be folded into the retained network";
  return session.fingerprint();
}

std::uint64_t run_single_batch(const Program& program,
                               const std::vector<GroundFact>& facts) {
  Session session(program,
                  session_config(MatcherKind::Treat, 1, false));
  for (const GroundFact& f : facts) session.assert_fact(f.tmpl, f.slots);
  session.run_to_quiescence();
  EXPECT_EQ(session.counters().rebuilds, 0u);
  return session.fingerprint();
}

// A one-fact counter that never quiesces: bump forever.
constexpr const char* kRunawaySource = R"((deftemplate n (slot v))
(defrule bump ?f <- (n (v ?x)) => (retract ?f) (assert (n (v (+ ?x 1)))))
(deffacts init (n (v 0))))";

// item -> seen copy rule; items can be retracted without disturbing the
// derived seen facts.
constexpr const char* kCopySource = R"((deftemplate item (slot v))
(deftemplate seen (slot v))
(defrule copy (item (v ?x)) (not (seen (v ?x))) => (assert (seen (v ?x)))))";

// ------------------------------------- tentpole: interleaving equivalence

struct SweepCase {
  MatcherKind matcher;
  unsigned threads;
};

const SweepCase kSweep[] = {
    {MatcherKind::Treat, 1},
    {MatcherKind::ParallelTreat, 1},
    {MatcherKind::ParallelTreat, 4},
};

void sweep_program(const Program& program) {
  ASSERT_FALSE(program.initial_facts.empty());
  const std::uint64_t reference =
      run_single_batch(program, program.initial_facts);
  for (const SweepCase& sc : kSweep) {
    for (std::size_t batches : {1u, 2u, 5u, 9u}) {
      for (std::uint64_t seed : {7u, 1234u}) {
        EXPECT_EQ(run_interleaved(program, sc.matcher, sc.threads,
                                  program.initial_facts, batches, seed),
                  reference)
            << "matcher=" << static_cast<int>(sc.matcher)
            << " threads=" << sc.threads << " batches=" << batches
            << " seed=" << seed;
      }
    }
  }
}

TEST(InterleavingSweep, TransitiveClosure) {
  Fixture fx(workloads::make_tc(16, 36, 42).source);
  sweep_program(fx.program);
}

TEST(InterleavingSweep, Sieve) {
  Fixture fx(workloads::make_sieve(48, true).source);
  sweep_program(fx.program);
}

TEST(InterleavingSweep, Routing) {
  Fixture fx(workloads::make_routing(14, 30, 7).source);
  sweep_program(fx.program);
}

// ------------------------------------------------------ session behavior

TEST(Session, RetainedStateAcrossRuns) {
  Fixture fx(kCopySource);
  Session session(fx.program, session_config(MatcherKind::Treat, 1, false));
  const TemplateId item = *session.find_template("item");
  const TemplateId seen = *session.find_template("seen");

  session.assert_fact(item, {Value::integer(1)});
  session.run_to_quiescence();
  EXPECT_EQ(session.query(seen, {}).size(), 1u);

  session.assert_fact(item, {Value::integer(2)});
  session.assert_fact(item, {Value::integer(3)});
  const RunStats second = session.run_to_quiescence();
  EXPECT_GT(second.total_firings, 0u);
  EXPECT_EQ(session.query(seen, {}).size(), 3u);

  EXPECT_EQ(session.counters().rebuilds, 0u);
  EXPECT_EQ(session.match_stats().external_deltas, 2u);
}

TEST(Session, RetractAndModifyBetweenRuns) {
  Fixture fx(kCopySource);
  Session session(fx.program, session_config(MatcherKind::Treat, 1, false));
  const TemplateId item = *session.find_template("item");
  const TemplateId seen = *session.find_template("seen");

  FactId first = kInvalidFact;
  ASSERT_EQ(session.assert_fact(item, {Value::integer(1)}, &first),
            Session::AssertOutcome::New);
  session.assert_fact(item, {Value::integer(2)});
  session.run_to_quiescence();
  ASSERT_EQ(session.query(seen, {}).size(), 2u);

  // Retract one source fact: the derived facts stay (no truth
  // maintenance), the source extent shrinks.
  EXPECT_TRUE(session.retract(first));
  session.run_to_quiescence();
  EXPECT_EQ(session.query(item, {}).size(), 1u);
  EXPECT_EQ(session.query(seen, {}).size(), 2u);

  // Modify the survivor to a fresh value: its copy is derived next run.
  const std::vector<FactId> items = session.query(item, {});
  ASSERT_EQ(items.size(), 1u);
  const int slot = *session.find_slot(item, "v");
  EXPECT_NE(session.modify(items[0], {{slot, Value::integer(9)}}),
            kInvalidFact);
  session.run_to_quiescence();
  EXPECT_EQ(session.query(seen, {}).size(), 3u);
  EXPECT_EQ(session.counters().rebuilds, 0u);
}

TEST(Session, DuplicateAssertAbsorbed) {
  Fixture fx(kCopySource);
  Session session(fx.program, session_config(MatcherKind::Treat, 1, false));
  const TemplateId item = *session.find_template("item");
  EXPECT_EQ(session.assert_fact(item, {Value::integer(5)}),
            Session::AssertOutcome::New);
  EXPECT_EQ(session.assert_fact(item, {Value::integer(5)}),
            Session::AssertOutcome::Absorbed);
  session.run_to_quiescence();
  EXPECT_EQ(session.query(item, {}).size(), 1u);
}

TEST(Session, FactQuotaRejectsAsserts) {
  Fixture fx(kCopySource);
  SessionConfig cfg = session_config(MatcherKind::Treat, 1, false);
  cfg.fact_quota = 2;
  Session session(fx.program, cfg);
  const TemplateId item = *session.find_template("item");
  EXPECT_EQ(session.assert_fact(item, {Value::integer(1)}),
            Session::AssertOutcome::New);
  EXPECT_EQ(session.assert_fact(item, {Value::integer(2)}),
            Session::AssertOutcome::New);
  EXPECT_EQ(session.assert_fact(item, {Value::integer(3)}),
            Session::AssertOutcome::QuotaRejected);
  EXPECT_EQ(session.counters().quota_rejected, 1u);
}

TEST(Session, CycleQuotaTruncatesRunaway) {
  Fixture fx(kRunawaySource);
  SessionConfig cfg = session_config(MatcherKind::Treat, 1, true);
  cfg.cycle_quota = 16;
  Session session(fx.program, cfg);
  const RunStats stats = session.run_to_quiescence();
  EXPECT_EQ(stats.cycles, 16u);
  EXPECT_EQ(stats.termination, TerminationReason::CycleLimit);
  // The next batch resumes exactly where the quota cut the last one off.
  const RunStats next = session.run_to_quiescence();
  EXPECT_EQ(next.cycles, 16u);
  EXPECT_EQ(session.counters().cycles, 32u);
}

TEST(Session, SnapshotRestoreRoundTrip) {
  Fixture fx(workloads::make_tc(12, 26, 3).source);
  Session session(fx.program,
                  session_config(MatcherKind::ParallelTreat, 2, true));
  session.run_to_quiescence();
  const std::uint64_t at_fixpoint = session.fingerprint();
  const SiteCheckpoint checkpoint = session.snapshot();
  EXPECT_EQ(session.counters().rebuilds, 0u);

  // Mutate past the snapshot, then restore: the fingerprint returns.
  const TemplateId edge = *session.find_template("edge");
  session.assert_fact(edge, {Value::integer(0), Value::integer(11)});
  session.run_to_quiescence();
  EXPECT_NE(session.fingerprint(), at_fixpoint);

  session.restore(checkpoint);
  EXPECT_EQ(session.counters().rebuilds, 1u)
      << "restore is the one sanctioned rebuild";
  EXPECT_EQ(session.fingerprint(), at_fixpoint);
  // Re-running from the restored state stays at the fixpoint.
  session.run_to_quiescence();
  EXPECT_EQ(session.fingerprint(), at_fixpoint);
}

TEST(Session, QuerySlotFilters) {
  Fixture fx(kCopySource);
  Session session(fx.program, session_config(MatcherKind::Treat, 1, false));
  const TemplateId item = *session.find_template("item");
  const int slot = *session.find_slot(item, "v");
  for (int v : {1, 2, 3, 2}) {
    session.assert_fact(item, {Value::integer(v)});
  }
  session.run_to_quiescence();
  EXPECT_EQ(session.query(item, {}).size(), 3u);
  EXPECT_EQ(session.query(item, {{slot, Value::integer(2)}}).size(), 1u);
  EXPECT_EQ(session.query(item, {{slot, Value::integer(7)}}).size(), 0u);
  // Results are in ascending FactId order.
  const std::vector<FactId> all = session.query(item, {});
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
}

// ------------------------------------------------------ service behavior

ServiceConfig sync_config() {
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.pool_threads = 2;
  return cfg;
}

TEST(Service, SyncFlushCommitsInBatches) {
  Fixture fx(kCopySource);
  ServiceConfig cfg = sync_config();
  cfg.batch_max = 4;
  RuleService service(cfg);
  const SessionId id = service.open_session(fx.program);
  ASSERT_NE(id, 0u);

  TemplateId item = kInvalidTemplate;
  service.with_session(id, [&](Session& s) {
    item = *s.find_template("item");
  });
  for (int v = 0; v < 10; ++v) {
    EXPECT_EQ(service.submit(
                  id, Request::make_assert(item, {Value::integer(v)})),
              SubmitResult::Accepted);
  }
  EXPECT_EQ(service.submit(id, Request::make_run()), SubmitResult::Accepted);
  EXPECT_EQ(service.queue_depth(id), 11u);
  EXPECT_TRUE(service.flush(id));
  EXPECT_EQ(service.queue_depth(id), 0u);

  service.with_session(id, [&](Session& s) {
    const TemplateId seen = *s.find_template("seen");
    EXPECT_EQ(s.query(seen, {}).size(), 10u);
    EXPECT_EQ(s.counters().rebuilds, 0u);
  });
  const ServiceStats stats = service.stats_snapshot();
  EXPECT_EQ(stats.requests, 11u);
  EXPECT_EQ(stats.asserts, 10u);
  EXPECT_EQ(stats.runs, 1u);
  EXPECT_EQ(stats.batches, 3u);  // ceil(11 / 4)
  EXPECT_EQ(stats.batched_ops, 11u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_GE(stats.latency_p99_ns, stats.latency_p50_ns);
  EXPECT_GE(stats.latency_max_ns, stats.latency_p99_ns);
}

TEST(Service, BackpressureRejectsWhenQueueFull) {
  Fixture fx(kCopySource);
  ServiceConfig cfg = sync_config();
  cfg.queue_capacity = 4;
  RuleService service(cfg);
  const SessionId id = service.open_session(fx.program);
  TemplateId item = kInvalidTemplate;
  service.with_session(id, [&](Session& s) {
    item = *s.find_template("item");
  });

  unsigned accepted = 0, rejected = 0;
  for (int v = 0; v < 10; ++v) {
    const SubmitResult r =
        service.submit(id, Request::make_assert(item, {Value::integer(v)}));
    (r == SubmitResult::Accepted ? accepted : rejected)++;
    if (r != SubmitResult::Accepted) {
      EXPECT_EQ(r, SubmitResult::QueueFull);
    }
  }
  EXPECT_EQ(accepted, 4u);
  EXPECT_EQ(rejected, 6u);
  EXPECT_TRUE(service.flush(id));
  service.with_session(id, [&](Session& s) {
    EXPECT_EQ(s.query(item, {}).size(), 4u);
  });
  EXPECT_EQ(service.stats_snapshot().rejected, 6u);
}

TEST(Service, SubmitToUnknownOrClosedSession) {
  Fixture fx(kCopySource);
  RuleService service(sync_config());
  EXPECT_EQ(service.submit(99, Request::make_run()),
            SubmitResult::NoSuchSession);
  const SessionId id = service.open_session(fx.program);
  EXPECT_TRUE(service.close_session(id));
  EXPECT_FALSE(service.close_session(id));
  EXPECT_EQ(service.submit(id, Request::make_run()),
            SubmitResult::NoSuchSession);
  EXPECT_EQ(service.session_count(), 0u);
}

TEST(Service, CapacityPressureEvictsOldestIdle) {
  Fixture fx(kCopySource);
  ServiceConfig cfg = sync_config();
  cfg.max_sessions = 2;
  RuleService service(cfg);
  const SessionId s1 = service.open_session(fx.program);
  const SessionId s2 = service.open_session(fx.program);
  ASSERT_NE(s1, 0u);
  ASSERT_NE(s2, 0u);

  // Touch s2 so s1 is the least-recently-active session.
  service.submit(s2, Request::make_run());
  service.flush(s2);

  const SessionId s3 = service.open_session(fx.program);
  EXPECT_NE(s3, 0u);
  EXPECT_EQ(service.session_count(), 2u);
  EXPECT_EQ(service.submit(s1, Request::make_run()),
            SubmitResult::NoSuchSession);
  EXPECT_EQ(service.submit(s2, Request::make_run()), SubmitResult::Accepted);
  const ServiceStats stats = service.stats_snapshot();
  EXPECT_EQ(stats.evicted, 1u);
  EXPECT_EQ(stats.sessions_opened, 3u);
  EXPECT_EQ(stats.sessions_closed, 1u);
}

TEST(Service, AgeBasedIdleEviction) {
  Fixture fx(kCopySource);
  ServiceConfig cfg = sync_config();
  cfg.idle_eviction_age = 1;
  RuleService service(cfg);
  const SessionId s1 = service.open_session(fx.program);
  const SessionId s2 = service.open_session(fx.program);

  service.submit(s1, Request::make_run());
  service.flush(s1);  // tick 1, s1 active at 1
  service.submit(s2, Request::make_run());
  service.flush(s2);  // tick 2, s2 active at 2
  service.submit(s2, Request::make_run());
  service.flush(s2);  // tick 3, s2 active at 3

  // s1 idle for 2 ticks >= age 1; s2 active this tick.
  EXPECT_EQ(service.evict_idle(), 1u);
  EXPECT_EQ(service.submit(s1, Request::make_run()),
            SubmitResult::NoSuchSession);
  EXPECT_EQ(service.submit(s2, Request::make_run()), SubmitResult::Accepted);
}

TEST(Service, InterleavedSessionsReachSameFixpoint) {
  Fixture fx(workloads::make_tc(14, 30, 11).source);
  const std::uint64_t reference =
      run_single_batch(fx.program, fx.program.initial_facts);

  for (unsigned workers : {0u, 2u}) {
    ServiceConfig cfg;
    cfg.workers = workers;
    cfg.pool_threads = 2;
    cfg.batch_max = 8;
    RuleService service(cfg);

    // Three sessions fed the same stream in different interleavings:
    // round-robin across sessions, per-session shuffled order.
    constexpr std::size_t kSessions = 3;
    std::vector<SessionId> ids;
    std::vector<std::vector<GroundFact>> streams;
    for (std::size_t s = 0; s < kSessions; ++s) {
      SessionId id = service.open_session(fx.program);
      ASSERT_NE(id, 0u);
      ids.push_back(id);
      std::vector<GroundFact> order = fx.program.initial_facts;
      std::mt19937_64 rng(100 + s);
      std::shuffle(order.begin(), order.end(), rng);
      streams.push_back(std::move(order));
    }
    for (std::size_t i = 0; i < streams[0].size(); ++i) {
      for (std::size_t s = 0; s < kSessions; ++s) {
        const GroundFact& f = streams[s][i];
        ASSERT_EQ(service.submit(ids[s],
                                 Request::make_assert(f.tmpl, f.slots)),
                  SubmitResult::Accepted);
      }
      if (i % 5 == 0) {
        for (SessionId id : ids) service.submit(id, Request::make_run());
        if (workers == 0) service.flush_all();
      }
    }
    service.flush_all();
    for (SessionId id : ids) {
      service.with_session(id, [&](Session& s) {
        EXPECT_EQ(s.fingerprint(), reference)
            << "workers=" << workers << " session=" << id;
        EXPECT_EQ(s.counters().rebuilds, 0u);
      });
    }
  }
}

TEST(Service, ConcurrentSubmittersConverge) {
  Fixture fx(workloads::make_tc(12, 26, 5).source);
  const std::uint64_t reference =
      run_single_batch(fx.program, fx.program.initial_facts);

  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.pool_threads = 2;
  cfg.queue_capacity = 4096;
  RuleService service(cfg);

  constexpr std::size_t kClients = 4;
  std::vector<SessionId> ids;
  for (std::size_t c = 0; c < kClients; ++c) {
    ids.push_back(service.open_session(fx.program));
    ASSERT_NE(ids.back(), 0u);
  }

  // One client thread per session, all hammering the service at once
  // while the worker threads drain and commit behind them.
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<GroundFact> order = fx.program.initial_facts;
      std::mt19937_64 rng(999 + c);
      std::shuffle(order.begin(), order.end(), rng);
      for (std::size_t i = 0; i < order.size(); ++i) {
        while (service.submit(ids[c], Request::make_assert(
                                          order[i].tmpl, order[i].slots)) ==
               SubmitResult::QueueFull) {
          std::this_thread::yield();
        }
        if (i % 7 == 0) service.submit(ids[c], Request::make_run());
      }
    });
  }
  for (std::thread& t : clients) t.join();
  service.flush_all();

  for (SessionId id : ids) {
    service.with_session(id, [&](Session& s) {
      EXPECT_EQ(s.fingerprint(), reference);
      EXPECT_EQ(s.counters().rebuilds, 0u);
      EXPECT_GT(s.match_stats().external_deltas, 0u);
    });
  }
  const ServiceStats stats = service.stats_snapshot();
  EXPECT_GT(stats.batches, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

// -------------------------------------------------- serve line protocol

TEST(Serve, ScriptedSessionIsDeterministic) {
  // A per-process file: test binaries running side by side must not
  // truncate each other's program.
  char path[] = "/tmp/parulel_serve_test_XXXXXX";
  const int fd = ::mkstemp(path);
  ASSERT_GE(fd, 0);
  ::close(fd);
  const std::string script =
      "# a scripted session over the copy program\n"
      "open s " + std::string(path) + "\n"
      "assert s item 1\n"
      "assert s item 2\n"
      "run s\n"
      "query s seen\n"
      "stats s\n"
      "close s\n"
      "quit\n";
  {
    std::ofstream out(path);
    out << kCopySource;
  }
  std::string first, second;
  for (std::string* target : {&first, &second}) {
    std::istringstream in(script);
    std::ostringstream out;
    EXPECT_EQ(serve(in, out), 0);
    *target = out.str();
  }
  std::remove(path);
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("ok run cycles=1 firings=2"), std::string::npos)
      << first;
  EXPECT_NE(first.find("ok query n=2"), std::string::npos) << first;
  EXPECT_NE(first.find("rebuilds=0"), std::string::npos) << first;
  EXPECT_NE(first.find("external_deltas=1"), std::string::npos) << first;
}

TEST(Serve, ErrorsAreReportedNotFatal) {
  const std::string script =
      "assert nosuch item 1\n"
      "open s /nonexistent/path.clp\n"
      "frobnicate s\n"
      "quit\n";
  std::istringstream in(script);
  std::ostringstream out;
  EXPECT_EQ(serve(in, out), 3);
  EXPECT_NE(out.str().find("err no session"), std::string::npos);
  EXPECT_NE(out.str().find("err cannot read"), std::string::npos);
  EXPECT_NE(out.str().find("err unknown command"), std::string::npos);
  EXPECT_NE(out.str().find("ok quit"), std::string::npos);
}

}  // namespace
}  // namespace parulel::service
