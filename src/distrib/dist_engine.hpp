// Simulated distributed PARULEL (the PARADISER substitution): the
// deterministic in-memory driver of the site protocol.
//
// The original system ran on networks of workstations; here N sites
// live in one process. Each site is a SiteCore (site_core.hpp) — the
// same sans-I/O core a parulel_site process runs over TCP — with its
// own working memory, matcher and channel state, communicating only
// through content-addressed messages on an in-memory network. Message
// counts are recorded per cycle, standing in for the network-cost
// measurements of the original evaluation (see DESIGN.md, substitution
// notes).
//
// Execution model per global cycle (barrier-synchronized, like the
// PARADISER incremental-update protocol's synchronous mode, and like
// the cluster driver's barrier rounds):
//   1. the crash timeline: scheduled crashes, then restarts falling due;
//   2. every up core runs one cycle on the thread pool, one task per
//      site: drain its inbox, match + meta-redact + fire, route, journal,
//      ack, transmit;
//   3. serially, in site order: each core's journal writes land in its
//      in-memory WAL, its acks reach their senders, its transmissions
//      reach their receivers' inboxes, and its printout is written — so
//      a run is identical for any thread count.
// The run ends when every site is up and reports no firings, applies,
// pending sends or inbox (sites_quiescent, shared with the cluster
// driver).
//
// Fault tolerance (see distrib/faults.hpp): every core injects the
// plan's loss, duplication and delay in its own send step, and recovers
// from drops by ack timeout and backoff retransmission. A crashed site
// loses its core, inbox and held sends; on restart it replays its
// in-memory WAL through replay_site_records — the replay a parulel_site
// runs on its WAL file — and rejoins under a bumped epoch, while the
// surviving sites keep cycling. Sites journal only when a crash is
// planned or `checkpoint_every` > 0, like a parulel_site started
// without --journal. For any plan that eventually lets all messages
// through, global_fingerprint() equals the fault-free run's.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "distrib/site_core.hpp"
#include "runtime/thread_pool.hpp"

namespace parulel {

struct DistConfig {
  unsigned sites = 4;
  unsigned threads = 0;  ///< 0 = one thread per site
  std::uint64_t max_cycles = 1'000'000;
  bool trace_cycles = false;
  std::ostream* output = nullptr;
  /// Refuse partition schemes that fail structural validation.
  bool strict_partitioning = true;

  /// Faults to inject (distrib/faults.hpp).
  FaultPlan faults;
  /// Site WAL batches between snapshot rewrites; 0 = never truncate.
  /// Sites journal when this is > 0 or the plan schedules crashes.
  std::uint64_t checkpoint_every = 0;

  /// Observability (see src/obs/): per-cycle "cycle" events plus a
  /// final "run" event carrying the fault counters; metrics receive
  /// run/fault/pool totals at the end of run().
  obs::TraceSink* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

struct DistStats {
  RunStats run;                       ///< aggregated over sites
  std::uint64_t messages = 0;         ///< cross-site ops routed
  std::uint64_t broadcasts = 0;       ///< replicated-template ops
  /// Channel and crash accounting; left zero when neither faults nor
  /// checkpointing are configured.
  FaultStats faults;
  std::vector<std::uint64_t> per_site_firings;
  std::vector<std::uint64_t> per_cycle_messages;  ///< when tracing

  /// Simulated distributed wall time: per cycle, the slowest core's
  /// cycle (sites run concurrently on real hardware) plus the serial
  /// delivery time.
  std::uint64_t sim_wall_ns = 0;
};

class DistributedEngine {
 public:
  DistributedEngine(const Program& program, PartitionScheme scheme,
                    DistConfig config);
  ~DistributedEngine();

  /// Route the program's deffacts to their owning sites. Call once,
  /// before run(): it is also what starts each site's WAL.
  void assert_initial_facts();

  DistStats run();

  unsigned site_count() const { return config_.sites; }
  const WorkingMemory& site_wm(unsigned site) const;

  /// Order-independent fingerprint of ALL sites' alive facts combined
  /// (replicated facts counted once per content).
  std::uint64_t global_fingerprint() const;

 private:
  struct Site;

  std::unique_ptr<SiteCore> make_core(unsigned site) const;
  bool cycle(DistStats& stats);
  void process_fault_timeline(DistStats& stats);
  void deliver_output(unsigned site, DistStats& stats, CycleStats& cycle);
  void write_wal(Site& site, std::vector<SiteJournalWrite> writes);

  const Program& program_;
  PartitionScheme scheme_;
  DistConfig config_;
  std::unique_ptr<ThreadPool> pool_;
  MetaEngine meta_;
  std::vector<std::unique_ptr<Site>> sites_;
  bool halted_ = false;

  bool journaling_ = false;  ///< crash plan set or checkpoint_every > 0
  std::vector<bool> crash_done_;      ///< per FaultPlan::crashes entry
  std::uint64_t now_ = 0;             ///< current global cycle index
  PoolStatsSnapshot trace_prev_pool_;  ///< per-cycle trace differencing
};

}  // namespace parulel
