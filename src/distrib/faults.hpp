// Deterministic fault injection for the distributed site protocol.
//
// The original PARULEL/PARADISER target — networks of workstations —
// treats site failure and message loss as the normal case. This module
// supplies the failure side of that story: a FaultPlan describes which
// faults to inject (message loss/duplication/delay rates, scheduled
// site crashes), and a FaultInjector turns the plan into per-attempt
// verdicts drawn from one seed-driven splitmix64 stream.
//
// Determinism contract: each site owns one injector, seeded with
// site_seed(plan.seed, site) and consumed ONLY by that site's send step
// (site_core.hpp), in the site's own transmit order. So a (program,
// partition, plan) triple always produces the same fault schedule
// regardless of thread count, and the simulator and a real cluster
// draw the same verdict stream per site. That is what lets the
// equivalence suite assert that any plan with eventual delivery
// converges to the fault-free fingerprint.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/rng.hpp"

namespace parulel {

/// Declarative description of the faults to inject into one run.
struct FaultPlan {
  std::uint64_t seed = 1;     ///< injector stream seed
  double loss_rate = 0.0;     ///< P(attempt dropped in transit)
  double duplicate_rate = 0.0;  ///< P(attempt delivered twice)
  double delay_rate = 0.0;    ///< P(attempt delayed extra cycles)
  unsigned max_delay_cycles = 3;  ///< delay uniform in [1, max]

  /// Kill `site` at the start of global cycle `at_cycle`; it restarts
  /// (restoring its last checkpoint) `down_cycles` cycles later.
  struct Crash {
    unsigned site = 0;
    std::uint64_t at_cycle = 0;
    std::uint64_t down_cycles = 1;
  };
  std::vector<Crash> crashes;

  bool any_network_faults() const {
    return loss_rate > 0.0 || duplicate_rate > 0.0 || delay_rate > 0.0;
  }
  bool enabled() const { return any_network_faults() || !crashes.empty(); }

  /// Parse the CLI spec: comma-separated key=value pairs.
  ///   loss=0.2,dup=0.05,delay=0.1,maxdelay=3,seed=7,crash=1@5+4;0@9+2
  /// crash entries are SITE@CYCLE+DOWN, ';'-separated. Rates must be in
  /// [0, 1). Throws ParseError on malformed input.
  static FaultPlan parse(const std::string& spec);
};

/// The injector seed for one site: every site draws an independent
/// stream, but (plan seed, site id) always yields the same one, in the
/// simulator and in a parulel_site process alike.
std::uint64_t site_seed(std::uint64_t plan_seed, unsigned site_id);

/// The network's decision about one transmission attempt.
struct FaultVerdict {
  bool drop = false;
  bool duplicate = false;
  unsigned delay = 0;  ///< extra cycles in flight; 0 = deliver now
};

/// Draws verdicts from one deterministic stream. One roll per attempt,
/// so retries of a lost message get fresh (independent) verdicts —
/// which is what makes eventual delivery certain for loss_rate < 1.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan)
      : plan_(plan), rng_(plan.seed) {}

  FaultVerdict roll();

  std::uint64_t rolls() const { return rolls_; }

 private:
  FaultPlan plan_;
  Rng rng_;
  std::uint64_t rolls_ = 0;
};

}  // namespace parulel
