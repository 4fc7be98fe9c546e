// The site protocol, sans I/O: one PARULEL site's recognize-act cycle
// plus its reliable channel layer, as a state machine over plain values.
//
// Two drivers run this one core:
//   - SiteRunner (site_runner.hpp) — the TCP driver: one parulel_site
//     process, peer batches and acks decoded from sockets, journal
//     writes made durable in a file WAL;
//   - DistributedEngine (dist_engine.hpp) — the deterministic in-memory
//     driver: N cores in one process, an in-memory network, a crash
//     timeline, and per-site in-memory WALs.
// So the fault sweeps the simulator runs check the code a deployed
// site runs.
//
// Inputs: deliver() a peer batch, on_ack() a peer's cumulative ack, and
// run_cycle(cycle) once per barrier. Outputs accumulate in a SiteOutput
// the driver takes after each call, and must be acted on in order:
//   1. journal writes — made durable first (ack-after-durable: anything
//      a peer sees acked is in this site's WAL, so the peer may prune);
//   2. acks — one cumulative ack per (peer, epoch) stream that
//      delivered anything this cycle (duplicates re-ack: an earlier ack
//      may have predated a retransmit);
//   3. sends — transmissions that survived the fault injector, in
//      order (delayed ones are held here until due).
//
// One cycle: drain the inbox (dedup by (from, epoch, seq)), match +
// meta-redact + fire against the local snapshot, route the buffered ops
// through the partition scheme (local ops apply in place, remote ops
// join their channel's pending map, replicated ops broadcast), journal
// one SiteBatch record if anything changed (plus a snapshot rewrite
// every `checkpoint_every` batches), ack, and transmit every pending
// entry due (new sends and 2..16-cycle doubling-backoff retries).
//
// Recovery: a crashed site's driver replays its WAL
// (replay_site_records, site_journal.hpp) and hands the result to a
// fresh core's recover(), which takes epoch = highest journaled epoch
// + 1 and journals an epoch marker before sending anything. The fresh
// matcher re-derives the conflict set from the replayed facts and
// refires; content idempotence at every site absorbs what the refires
// resend, and peers retransmit whatever the crash destroyed unacked.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "distrib/faults.hpp"
#include "distrib/partition.hpp"
#include "distrib/site_journal.hpp"
#include "engine/actions.hpp"
#include "engine/engine.hpp"
#include "meta/meta_engine.hpp"

namespace parulel {

/// Cumulative counters one site reports in every `barrier-done` line.
struct SiteCounters {
  std::uint64_t sent = 0;       ///< cc-batch transmissions (incl. dups)
  std::uint64_t applied = 0;    ///< peer ops applied (post-dedup)
  std::uint64_t dup = 0;        ///< duplicates suppressed
  std::uint64_t retries = 0;    ///< retransmissions
  std::uint64_t dropped = 0;    ///< injector-dropped attempts
  std::uint64_t delayed = 0;    ///< injector-delayed attempts
  std::uint64_t redials = 0;    ///< peer reconnect attempts
  std::uint64_t batches = 0;    ///< WAL batch records written
  std::uint64_t snapshots = 0;  ///< WAL snapshot rewrites
  std::uint64_t firings = 0;    ///< rule firings

  SiteCounters& operator+=(const SiteCounters& o);
};

/// One transmission: what a `cc-batch` line carries.
struct SiteSend {
  unsigned to = 0;
  std::uint32_t epoch = 1;  ///< sender incarnation
  std::uint64_t seq = 0;    ///< per (sender, receiver, epoch) stream
  ClusterOp op;
};

/// A cumulative ack of everything applied on one (peer, epoch) stream.
struct SiteAck {
  unsigned to = 0;  ///< the peer whose sends this acks
  std::uint32_t epoch = 1;
  AppliedSeqs seqs;
};

/// A WAL write the driver must make durable before sending the acks.
struct SiteJournalWrite {
  /// true = replace the whole WAL with this one snapshot record.
  bool snapshot = false;
  std::string payload;
};

/// Everything the core produced since the driver last took its output.
struct SiteOutput {
  std::vector<SiteJournalWrite> journal;
  std::vector<SiteAck> acks;
  std::vector<SiteSend> sends;
  std::string printout;         ///< rule printout, in firing order
  std::uint64_t fired = 0;      ///< instantiations fired
  std::uint64_t applied = 0;    ///< peer ops applied (post-dedup)
  std::uint64_t redacted = 0;   ///< instantiations meta-redacted
  std::uint64_t messages = 0;   ///< ops routed to another site
  std::uint64_t broadcasts = 0; ///< replicated-template ops routed
};

/// One site's end-of-barrier report: what termination detection needs.
struct SiteReport {
  bool up = false;
  std::uint64_t fired = 0;
  std::uint64_t applied = 0;
  std::uint64_t pending = 0;  ///< unacked plus delayed sends
  std::uint64_t inbox = 0;    ///< delivered, not yet drained
};

/// The quiescence predicate both drivers share: every site is up and
/// reported no firings, no applies, nothing unacked or delayed, and an
/// empty inbox. pending == 0 means everything ever sent is applied AND
/// durable at its receiver, so nothing in flight can reignite the run.
bool sites_quiescent(std::span<const SiteReport> reports);

struct SiteCoreOptions {
  unsigned site_id = 0;
  unsigned sites = 1;
  /// Network faults to inject on this site's sends; crash entries are
  /// the driver's job and ignored here. The injector is seeded with
  /// site_seed(plan.seed, site_id).
  FaultPlan faults;
  /// WAL batches between snapshot rewrites; 0 = never truncate.
  std::uint64_t checkpoint_every = 0;
  /// Emit journal writes at all (false = volatile site).
  bool journal = false;
};

class SiteCore {
 public:
  /// `program`, `scheme` and `meta` must outlive the core; several
  /// cores may share them.
  SiteCore(const Program& program, const PartitionScheme& scheme,
           const MetaEngine& meta, SiteCoreOptions options);
  ~SiteCore();

  /// A core starts by exactly one of these two calls, before its first
  /// cycle.
  /// Fresh incarnation: assert this site's slice of the deffacts and
  /// journal it — even when empty: the record's existence is what makes
  /// a site that crashes before its first real batch recover with
  /// epoch >= 2, keeping old and new sequence streams disjoint.
  void assert_initial_facts();
  /// Recovered incarnation: adopt the replayed facts, dedup state and
  /// epoch, and journal an epoch marker.
  void recover(SiteRecovery recovery);

  /// Queue one peer batch for the next cycle.
  void deliver(unsigned from, std::uint32_t epoch, std::uint64_t seq,
               ClusterOp op);
  /// A peer's cumulative ack for the sends this incarnation made to it;
  /// ignored unless `epoch` is ours (it acks a dead incarnation).
  void on_ack(unsigned peer, std::uint32_t epoch, const AppliedSeqs& acked);
  /// One recognize-act cycle; outputs land in take_output().
  void run_cycle(std::uint64_t cycle);

  SiteOutput take_output();

  std::uint64_t pending() const;  ///< unacked plus delayed sends
  std::size_t inbox_size() const { return inbox_.size(); }
  std::size_t held_sends() const { return delayed_.size(); }
  std::uint32_t epoch() const { return epoch_; }
  bool halted() const { return halted_; }  ///< a rule ran (halt)
  const WorkingMemory& wm() const { return *wm_; }
  std::size_t conflict_set_size() const;
  const SiteCounters& counters() const { return counters_; }
  /// Drivers add what only they can see: redials, dead-conn drops.
  SiteCounters& counters() { return counters_; }

 private:
  struct OutEntry {
    ClusterOp op;
    std::uint64_t next_retry = 0;
    std::uint64_t backoff = 0;
    bool attempted = false;  ///< any prior transmit = later ones are retries
  };

  /// Send side of one directed channel, plus the ack this site owes the
  /// peer for its stream in the other direction.
  struct Channel {
    std::uint64_t next_seq = 1;
    std::map<std::uint64_t, OutEntry> pending;  ///< unacked sends
    bool ack_needed = false;
    std::uint32_t ack_epoch = 0;  ///< stream the owed ack covers
  };

  struct Delayed {
    std::uint64_t due = 0;
    SiteSend send;
  };

  void route_op(const PendingOp& op, std::vector<ClusterOp>& local_ops);
  void transmit(unsigned to, std::uint64_t seq, OutEntry& entry);
  void journal(SiteBatchRecord rec);
  void snapshot(std::uint64_t cycle);

  const Program& program_;
  const PartitionScheme& scheme_;
  const MetaEngine& meta_;
  SiteCoreOptions opt_;

  std::unique_ptr<WorkingMemory> wm_;
  std::unique_ptr<Matcher> matcher_;
  std::vector<ChannelRecvState> recv_;  ///< per sender: applied seqs
  std::vector<Channel> channels_;       ///< per peer
  std::vector<SiteAppliedMsg> inbox_;
  std::vector<Delayed> delayed_;
  std::unique_ptr<FaultInjector> injector_;

  std::uint32_t epoch_ = 1;
  std::uint64_t cycle_ = 0;
  std::uint64_t wal_seq_ = 0;
  std::uint64_t batches_since_snapshot_ = 0;
  bool halted_ = false;

  SiteCounters counters_;
  SiteOutput out_;
};

}  // namespace parulel
