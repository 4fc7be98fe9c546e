// R-F5 — Fault tolerance: message amplification and recovery overhead.
//
// The PARULEL/PARADISER target environment — networks of workstations —
// makes loss and site failure routine; this bench measures what the
// site protocol (site_core.hpp) pays for surviving them, and verifies
// along the way that every faulted run still reaches the fault-free
// fixpoint.
//
// Part A: message amplification vs injected loss rate. Amplification is
// transmission attempts over unique routed ops (sent / messages) — the
// retransmission tax. Expected shape: ~1.0 at zero loss, growing
// roughly like 1/(1-loss) plus ack-timeout overshoot as loss climbs.
//
// Part B: recovery overhead vs checkpoint interval (site WAL batches
// per snapshot rewrite), under a fixed mid-run crash. Recovery replays
// the crashed site's WAL, which holds everything the site applied
// whatever the interval: the interval sets how often snapshots fold
// the log, not how much work the crash loses.
#include <vector>

#include "bench_util.hpp"

using namespace parulel;
using namespace parulel::bench;

namespace {

struct DistOutcome {
  DistStats stats;
  std::uint64_t fingerprint = 0;
};

DistOutcome run_faulty(const Program& p, const workloads::Workload& w,
                       unsigned sites, const FaultPlan& plan,
                       std::uint64_t checkpoint_every) {
  PartitionScheme scheme(p, w.partition);
  DistConfig cfg;
  cfg.sites = sites;
  cfg.max_cycles = 100'000;
  cfg.faults = plan;
  cfg.checkpoint_every = checkpoint_every;
  DistributedEngine engine(p, std::move(scheme), cfg);
  engine.assert_initial_facts();
  DistOutcome out;
  out.stats = engine.run();
  out.fingerprint = engine.global_fingerprint();
  return out;
}

}  // namespace

int main() {
  header("R-F5", "fault injection: message amplification, recovery cost");

  const auto w = workloads::make_tc(96, 260, 7);
  const Program p = parse_program(w.source);
  constexpr unsigned kSites = 4;

  JsonReport json("R-F5");

  // Fault-free reference for both parts.
  const DistOutcome base = run_faulty(p, w, kSites, FaultPlan{}, 0);
  if (!base.stats.run.quiescent) {
    std::fprintf(stderr, "error: fault-free baseline did not quiesce\n");
    return 1;
  }

  std::printf("\n%s — %s\n", w.name.c_str(), w.description.c_str());
  std::printf("\nPart A: message amplification vs loss rate (sites=%u,\n"
              "checkpoint_every=4, seed=7)\n",
              kSites);
  std::printf("%8s %8s %10s %10s %10s %8s %6s\n", "loss", "cycles", "msgs",
              "sent", "amplif", "retries", "fp=");
  for (const double loss : {0.0, 0.05, 0.1, 0.2, 0.3}) {
    FaultPlan plan;
    plan.seed = 7;
    plan.loss_rate = loss;
    const DistOutcome out = run_faulty(p, w, kSites, plan, 4);
    const auto& f = out.stats.faults;
    const double amplification =
        out.stats.messages
            ? static_cast<double>(f.sent) /
                  static_cast<double>(out.stats.messages)
            : 1.0;
    const bool fp_ok = out.fingerprint == base.fingerprint;
    std::printf("%8.2f %8llu %10llu %10llu %10.2f %8llu %6s\n", loss,
                static_cast<unsigned long long>(out.stats.run.cycles),
                static_cast<unsigned long long>(out.stats.messages),
                static_cast<unsigned long long>(f.sent), amplification,
                static_cast<unsigned long long>(f.retries),
                fp_ok ? "yes" : "NO");
    if (!fp_ok) {
      std::fprintf(stderr, "error: loss=%.2f diverged from baseline\n",
                   loss);
      return 1;
    }
    json.add_dist("amplification/loss" + std::to_string(loss), out.stats,
                  {{"loss_rate", loss}, {"amplification", amplification}});
  }

  std::printf("\nPart B: recovery overhead vs checkpoint interval (WAL\n"
              "batches per snapshot; crash: site 1 at cycle 3 for 3 cycles;\n"
              "loss=0.05)\n");
  std::printf("%10s %8s %8s %10s %10s %10s\n", "ckpt-int", "cycles",
              "extra", "ckpts", "restores", "retries");
  for (const std::uint64_t interval : {1u, 2u, 4u, 8u}) {
    FaultPlan plan;
    plan.seed = 7;
    plan.loss_rate = 0.05;
    plan.crashes.push_back({.site = 1, .at_cycle = 3, .down_cycles = 3});
    const DistOutcome out = run_faulty(p, w, kSites, plan, interval);
    const auto& f = out.stats.faults;
    const std::uint64_t extra =
        out.stats.run.cycles > base.stats.run.cycles
            ? out.stats.run.cycles - base.stats.run.cycles
            : 0;
    const bool fp_ok = out.fingerprint == base.fingerprint;
    std::printf("%10llu %8llu %8llu %10llu %10llu %10llu\n",
                static_cast<unsigned long long>(interval),
                static_cast<unsigned long long>(out.stats.run.cycles),
                static_cast<unsigned long long>(extra),
                static_cast<unsigned long long>(f.checkpoints),
                static_cast<unsigned long long>(f.restores),
                static_cast<unsigned long long>(f.retries));
    if (!fp_ok) {
      std::fprintf(stderr, "error: interval=%llu diverged from baseline\n",
                   static_cast<unsigned long long>(interval));
      return 1;
    }
    json.add_dist("recovery/ckpt" + std::to_string(interval), out.stats,
                  {{"checkpoint_every", static_cast<double>(interval)},
                   {"extra_cycles", static_cast<double>(extra)}});
  }

  std::printf("\nEvery row above converged to the fault-free fingerprint —\n"
              "the reliability invariant the test suite sweeps in detail\n"
              "(tests/test_faults.cpp). Amplification near 1/(1-loss) means\n"
              "retransmission, not duplication, dominates the overhead.\n");
  return 0;
}
