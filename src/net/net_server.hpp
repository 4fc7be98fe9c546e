// NetServer: the rule service on a TCP socket, served by N event-loop
// shards.
//
// Threading model (one acceptor + `shards` shard threads):
//
//   - run() is the ACCEPTOR: it polls the listen socket and the
//     self-pipe, enforces `max_connections` globally, and hands each
//     accepted connection to a shard round-robin through that shard's
//     mailbox (a mutex-guarded FIFO plus a wake pipe). The acceptor
//     never touches connection or session state.
//   - each SHARD runs the classic poll(2) loop over exactly its own
//     connections, fronting its OWN RuleService (workers forced to 0 so
//     responses stay a pure function of each connection's stream). A
//     shard exclusively owns its connections' buffers, its sessions'
//     engine state, dedup windows, and journal files — there are no
//     cross-shard locks on the data path; shards share nothing but the
//     acceptor's connection count and the stats snapshots.
//
// Durable sessions are PINNED to shards by name hash
// (service::shard_for_name): startup recovery partitions *.wal files
// across the shard services by the same hash, so a name's journal is
// owned by exactly one shard forever. When a connection on shard A
// addresses a session whose home is shard B (journaled servers only —
// on plain servers session names are per-connection and never leave
// their shard), the line is FORWARDED: the connection parks (preserving
// the 1:1 in-order pipelining contract), shard B executes the line in a
// per-connection remote conversation against its own service, and the
// response rides a mailbox reply back to shard A's write buffer. The
// forwarding handshake is what makes cross-shard `resume` work: any
// connection can resume any name, wherever it lands.
//
// Everything else is the single-loop server's contract, per shard:
// newline-framed pipelined requests, reject-not-block backpressure
// (`err backpressure` past write_buffer_reject, disconnect past
// write_buffer_close), `err line-too-long` past max_line_bytes with
// discard-to-newline resync, idle collection, `err server-full` at the
// accept layer, and per-connection `err internal` isolation.
//
// Shutdown is a graceful drain: stop() (async-signal-safe: one write to
// a self-pipe) stops the accept loop and broadcasts a drain to every
// shard; queued responses (including in-flight forwarded replies) are
// flushed for up to `drain_timeout_ms`, then everything closes and
// run() returns once every shard is empty.
//
// Aggregate counters export through the obs layer (NetStats /
// net_fields() → metrics, bench JSON): stats_snapshot() sums the
// per-shard counter rows plus the acceptor's own (accepted,
// rejected_full); shard_stats() exposes the unsummed rows, which is
// what the R-S4 bench's slowest-shard makespan model reads.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/stats.hpp"
#include "service/service.hpp"

namespace parulel {
class FaultInjector;
}

namespace parulel::net {

class ReplicationHub;
class ReplicaApplier;

/// Seed-driven connection-level fault injection, for hardening the
/// retry/recovery stack under test: a rolled fault can DROP a
/// connection before a request executes, lose the acknowledgement
/// AFTER it executes (the nastiest case for exactly-once — the state
/// changed, the client never heard), or delay a response. Verdicts come
/// from the same splitmix64 injector the distributed engine uses
/// (distrib/faults.hpp), so a (load, seed) pair replays the same fault
/// schedule every run. Each shard rolls its own injector seeded
/// seed + shard index; verdicts are decided on the connection's owning
/// shard and apply to forwarded lines too (drop before the forward,
/// ack loss / delay to the reply).
struct NetFaultPlan {
  std::uint64_t seed = 1;
  double drop_rate = 0.0;      ///< P(connection cut before the request runs)
  double ack_loss_rate = 0.0;  ///< P(request runs, response lost, conn cut)
  double delay_rate = 0.0;     ///< P(response held back before sending)
  unsigned max_delay_ms = 50;  ///< delay uniform in [1, max] milliseconds

  bool enabled() const {
    return drop_rate > 0.0 || ack_loss_rate > 0.0 || delay_rate > 0.0;
  }

  /// Parse the CLI spec: comma-separated key=value pairs, e.g.
  ///   seed=7,drop=0.01,ackloss=0.01,delay=0.05,maxdelay=50
  /// Rates must be in [0, 1). Throws ParseError on malformed input.
  static NetFaultPlan parse(const std::string& spec);
};

struct NetServerConfig {
  /// Bind address. The protocol's `open` reads server-side files, so
  /// binding beyond loopback is an explicit, considered act.
  std::string host = "127.0.0.1";

  /// 0 = ephemeral: the kernel picks; NetServer::port() reports it.
  std::uint16_t port = 0;

  int backlog = 64;
  std::size_t max_connections = 64;

  /// Event-loop shards. 1 (the default) reproduces the single-loop
  /// server exactly: one thread, no forwarding. Clamped to >= 1.
  unsigned shards = 1;

  /// Longest accepted request line; longer ones are discarded up to the
  /// next newline and answered with `err line-too-long`. 0 = no cap.
  std::size_t max_line_bytes = 64 * 1024;

  /// Pending-write threshold past which new request lines are rejected
  /// with `err backpressure` instead of executed (reject-not-block).
  std::size_t write_buffer_reject = 256 * 1024;

  /// Pending-write hard cap: a client this far behind on reading is
  /// disconnected.
  std::size_t write_buffer_close = 4 * 1024 * 1024;

  /// Close connections with no complete request for this long.
  /// 0 disables idle collection.
  std::uint64_t idle_timeout_ms = 0;

  /// How long a graceful stop() keeps flushing queued responses before
  /// force-closing what remains.
  std::uint64_t drain_timeout_ms = 2'000;

  /// Tuning for the per-shard RuleServices. `workers` is forced to 0 —
  /// commands execute synchronously on their shard's event loop, which
  /// is what makes per-connection responses deterministic.
  service::ServiceConfig service;

  /// Echo each command line (prefixed "> ") before its response.
  bool echo = false;

  /// Connection-level fault injection (off unless a rate is set). When
  /// a plan is set on a journaled server, the replication channel rolls
  /// its own verdict stream (seed + 1009) per shipped frame: drop cuts
  /// the channel, ackloss eats a frame's ack (degrade drill), delay
  /// holds the frame. Client-visible responses must be unaffected.
  NetFaultPlan faults;

  /// Run as a hot standby of this primary ("HOST:PORT"; empty = not a
  /// replica). Requires journaling. The server skips startup recovery,
  /// applies the primary's shipped frames to its own journal dir, and
  /// promotes names lazily when a failed-over client resumes them.
  std::string replica_of;

  /// Semi-sync replication: how long a durable commit waits for the
  /// replica's ack before degrading to async (repl_degraded counts the
  /// flips). 0 = pure async shipping.
  std::uint64_t repl_timeout_ms = 1'000;

  /// Promotion fence (replicas only): a failed-over client's resume
  /// promotes a shadow journal ONLY once the replication link has been
  /// down for at least this long. While the primary is reachable — or
  /// was, this recently — the standby answers `err not-primary` and the
  /// client goes back to the list. Guards against split-brain when a
  /// flaky client-side network fails over from a primary that is alive.
  std::uint64_t promote_grace_ms = 2'000;
};

class NetServer {
 public:
  explicit NetServer(NetServerConfig config);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Bind + listen + arm the stop pipe and the shard wake pipes; when
  /// the service is journaled, recover durable sessions BEFORE
  /// accepting traffic — each shard's service recovers exactly the
  /// names it owns under the pinning hash (reports, merged and sorted
  /// by name, kept in recovery_reports()). False on failure (error()).
  bool start();

  /// What start() recovered (empty unless journaling is enabled).
  const std::vector<service::RecoveryReport>& recovery_reports() const {
    return recovery_reports_;
  }

  /// The bound port (resolves config.port == 0), valid after start().
  std::uint16_t port() const { return port_; }

  /// Serve until stop(): spawns the shard threads, runs the accept
  /// loop, and returns once every connection is drained, closed, and
  /// every shard thread joined. Call from exactly one thread, after
  /// start().
  void run();

  /// Request a graceful drain. Callable from any thread and from signal
  /// handlers (it performs one write() on a self-pipe, nothing else).
  void stop();

  /// Aggregate counters (per-shard rows summed, plus the acceptor's);
  /// callable from any thread while run() is live.
  NetStats stats_snapshot() const;

  /// The unsummed per-shard counter rows, in shard order. `busy_ns` per
  /// row is that shard thread's request-execution CPU time — the
  /// slowest row is the R-S4 ideal-multicore makespan.
  std::vector<NetStats> shard_stats() const;

  /// Replication counters: the hub's shipping/ack rows on a primary,
  /// the applier's apply rows on a replica (merged — a server is one
  /// or the other).
  ReplStats repl_stats_snapshot() const;

  /// Primary only: a replica is connected and every shipped frame is
  /// acked. The chaos tests poll this before killing the primary.
  bool repl_caught_up() const;

  /// Number of event-loop shards actually serving.
  unsigned shards() const { return static_cast<unsigned>(shards_.size()); }

  /// Shard 0's fronted service. Touch only when run() is not executing
  /// — the shard's event loop owns it while serving. (With shards == 1
  /// this is THE service, as before; sharded callers want
  /// shard_service(i).)
  service::RuleService& service() { return shard_service(0); }

  /// Shard `i`'s fronted service; same ownership caveat as service().
  service::RuleService& shard_service(unsigned i);

  const std::string& error() const { return error_; }
  const NetServerConfig& config() const { return config_; }

 private:
  struct Conn;
  struct Shard;
  struct Msg;

  void accept_ready();
  void post(unsigned shard, Msg msg);
  static std::uint64_t now_ms();
  static std::uint64_t now_ns();
  /// Calling thread's CPU time — busy_ns accounting (see the .cpp).
  static std::uint64_t busy_clock_ns();

  NetServerConfig config_;
  /// Shared SessionId source for the per-shard services: ids stay
  /// server-unique, so `open NAME id=N` matches single-shard numbering.
  std::atomic<std::uint64_t> session_ids_{1};
  /// Primary half of the replication channel (journaled servers only);
  /// created before the shard services so their ship hooks can bind it.
  std::unique_ptr<ReplicationHub> hub_;
  /// Replica half (--replica-of only): dial/apply/ack client thread.
  std::unique_ptr<ReplicaApplier> applier_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<service::RecoveryReport> recovery_reports_;
  std::string error_;
  std::mutex error_mutex_;  ///< shards may report poll failures

  int listen_fd_ = -1;
  int stop_read_fd_ = -1;
  int stop_write_fd_ = -1;
  std::uint16_t port_ = 0;
  bool draining_ = false;

  unsigned next_shard_ = 0;          ///< round-robin assignment cursor
  std::uint64_t next_conn_id_ = 1;   ///< server-unique connection ids

  /// Live connections across all shards: the accept-layer capacity
  /// check, and the drain-completion condition the acceptor waits on.
  std::atomic<std::size_t> live_conns_{0};
  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;

  mutable std::mutex stats_mutex_;
  NetStats stats_;  ///< acceptor-owned counters (accepted, rejected_full)
};

}  // namespace parulel::net
