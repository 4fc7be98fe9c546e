// One cluster site as an OS process: the TCP driver of a SiteCore.
//
// The site protocol itself — dedup, per-channel seqs and epochs,
// retransmit backoff, routing, WAL records, snapshot cadence — lives in
// the sans-I/O SiteCore (site_core.hpp), the same code the in-process
// simulator drives. A SiteRunner only moves the core's inputs and
// outputs over sockets and files. It dials the cluster driver
// (cluster_driver.hpp) with `cluster-hello`, then serves barriers: each
// `barrier N` line runs exactly one core cycle, after which the runner
// appends (and fsyncs) the cycle's journal writes, sends the acks the
// core emitted as `cc-ack` lines, ships its transmissions as `cc-batch`
// lines over per-peer TCP connections, and replies `barrier-done` with
// the counters the driver's termination detector sums. Peer batches
// and acks read between barriers are decoded and handed to the core.
//
// Durability: with a WAL configured, a kill -9'd site replays its WAL
// on restart (recover_site_wal, site_journal.hpp) and hands the result
// to a fresh core, which bumps the epoch and journals a marker before
// it rejoins. Unacked messages the crash destroyed are retransmitted by
// their senders to the new incarnation.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "distrib/site_core.hpp"
#include "net/line_io.hpp"
#include "obs/stats.hpp"
#include "service/journal.hpp"

namespace parulel {

struct SiteOptions {
  unsigned site_id = 0;
  unsigned sites = 1;
  std::string driver_host = "127.0.0.1";
  std::uint16_t driver_port = 0;
  std::uint16_t listen_port = 0;  ///< 0 = ephemeral
  std::string journal_path;       ///< empty = no WAL (volatile site)
  /// TEMPLATE=SLOT partition map (same form the CLI parses); empty =
  /// everything replicated.
  std::unordered_map<std::string, std::string> partition;
  /// Network fault plan. Crash entries are the DRIVER's job (real
  /// SIGKILL); sites ignore them. The per-site injector stream is
  /// derived from the plan seed and the site id, so every site draws
  /// independent but reproducible verdicts.
  FaultPlan faults;
  /// Site WAL batches between snapshot rewrites; 0 = never truncate.
  std::uint64_t checkpoint_every = 32;
  bool fsync = true;
};

class SiteRunner {
 public:
  /// `program_text` must be the exact text `program` was parsed from —
  /// it keys WAL compatibility and makes symbol ids line up across the
  /// cluster.
  SiteRunner(const Program& program, std::string program_text,
             SiteOptions options);
  ~SiteRunner();

  /// Recover/create the WAL, start listening, join the driver, and
  /// serve barriers until `cc-stop` or driver EOF. Returns the process
  /// exit code (0 = clean stop, 4 = runtime failure).
  int run();

  const SiteCounters& counters() const { return core_->counters(); }

 private:
  /// Everything this site knows about one peer's connections. The
  /// dialer of a conn is the data sender: `out` carries our cc-batch
  /// lines (acks come back on it); `in` is the conn the peer dialed us
  /// on (their batches in, our acks out).
  struct Peer {
    net::LineConn out;
    net::LineConn in;
    std::string host;
    std::uint16_t port = 0;
    std::uint32_t epoch_seen = 0;  ///< zombie fence for cc-hello
  };

  bool setup();                 // WAL + listener + driver handshake
  bool pump(int timeout_ms);    // poll + dispatch all readable conns
  /// The listener and every pre-hello conn, for a poll that must keep
  /// answering inbound hellos.
  void handshake_pollfds(std::vector<pollfd>& pfds) const;
  void handle_driver_line(const std::string& line);
  void handle_peer_line(unsigned from, const std::string& line);
  void handle_ack_line(unsigned to, const std::string& line);
  void accept_pending();        // new inbound conns -> handshaking_
  void process_handshakes();    // accept + answer inbound cc-hellos
  void flush(SiteOutput out);   // journal, then acks, then sends
  void ensure_peer_conn(unsigned to);
  void dump(net::LineConn& to);

  const Program& program_;
  std::string program_text_;
  SiteOptions opt_;
  PartitionScheme scheme_;
  MetaEngine meta_;
  std::unique_ptr<SiteCore> core_;

  std::vector<Peer> peers_;
  std::vector<net::LineConn> handshaking_;  ///< accepted, pre-cc-hello

  net::LineConn driver_;
  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;
  bool stopping_ = false;

  std::unique_ptr<service::SessionJournal> journal_;
  JournalStats journal_stats_;  ///< SessionJournal's counter sink
};

}  // namespace parulel
