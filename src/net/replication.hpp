// The replication channel: primary -> backup journal shipping, the
// parulel/2 extension documented in PROTOCOL.md ("Replication").
//
// A backup NetServer started with --replica-of HOST:PORT dials its
// primary, sends `repl-hello parulel/2`, and from then on only ever
// RECEIVES: the primary ships every durable batch record
// (`repl-batch`) and every whole-file rewrite (`repl-snapshot`) down
// the channel, and the replica answers each frame with a cumulative
// `repl-ack`. The replica applies frames to DISK ONLY — its journal
// files stay byte-identical to the primary's, and they become live
// sessions lazily, through the normal recovery path, the moment a
// failed-over client issues `resume NAME`.
//
// Two halves, one per role:
//
//   - ReplicationHub (primary): owns the replica connection a shard
//     accepted via `repl-hello`, serializes every frame send under one
//     lock, and implements the SEMI-SYNC commit wait — the service's
//     on_batch_durable hook calls ship_batch() while still holding the
//     session lock, so the `ok` cannot leave the process until the
//     replica acked (or the wait timed out). A timeout flips the
//     connection to DEGRADED (async) mode and bumps repl_degraded
//     instead of blocking the data path; catching up on acks restores
//     semi-sync. Per-connection `synced` set: the first frame for a
//     name always ships the whole file, so a fresh (or reconnected)
//     replica needs no shared state to catch up.
//
//   - ReplicaApplier (backup): the dial/apply/ack client thread, with
//     reconnect + backoff. A name the replica has PROMOTED (a
//     failed-over client resumed it, so a local session now owns the
//     file) is never touched again — frames for it are acked and
//     dropped.
//
// The hub reuses the NetFaultPlan injector for chaos runs: a rolled
// drop cuts the channel (the replica reconnects and full-resyncs),
// ack loss eats one frame's ack (exercising the degrade machinery),
// delay holds the frame. None of that may change client-visible
// responses — replication rides strictly behind the data path.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>

#include "obs/stats.hpp"

namespace parulel {
class FaultInjector;
}

namespace parulel::net {

class ReplicationHub {
 public:
  /// `timeout_ms` is the semi-sync ack wait (0 = pure async);
  /// `injector` (optional) rolls chaos verdicts per shipped frame.
  ReplicationHub(std::uint64_t timeout_ms,
                 std::unique_ptr<FaultInjector> injector);
  ~ReplicationHub();

  ReplicationHub(const ReplicationHub&) = delete;
  ReplicationHub& operator=(const ReplicationHub&) = delete;

  /// Take ownership of a handshaken replication socket (blocking mode,
  /// `ok repl-hello` already sent). Replaces any previous replica.
  void adopt(int fd);

  /// Initial catch-up: full-sync `name` unless the live connection
  /// already shipped it. `bytes` is the whole journal file.
  void sync_name(const std::string& name, const std::string& bytes);

  /// ServiceConfig::on_batch_durable — called under the session lock.
  /// Ships the record (or, for a name this connection has not synced
  /// yet, the whole file at `path`) and performs the semi-sync wait.
  void ship_batch(const std::string& name, std::uint64_t seq,
                  const std::string& payload, const std::string& path);

  /// ServiceConfig::on_journal_rewritten — snapshot truncation or a
  /// fresh create replaced the file wholesale; ship it whole.
  void ship_file(const std::string& name, const std::string& path);

  /// ServiceConfig::on_journal_removed — `close NAME` unlinked the
  /// journal; tell the replica to unlink its copy.
  void ship_remove(const std::string& name);

  /// True when a replica is connected and every shipped frame is acked
  /// (the kill-primary chaos gate polls this before pulling the plug).
  bool caught_up() const;

  ReplStats stats_snapshot() const;

  /// Close the channel and join the ack reader.
  void shutdown();

 private:
  struct Conn {
    int fd = -1;
    std::uint64_t gen = 0;
    bool open = false;
    std::set<std::string> synced;
    std::uint64_t next_ship = 1;
    std::uint64_t last_sent = 0;
    std::uint64_t last_acked = 0;
    bool degraded = false;
    std::thread reader;
  };

  void reader_loop(Conn* conn);
  /// Sends under mutex_ (all frames serialized); kills the connection
  /// on a write failure. False when the frame did not go out.
  bool send_locked(const std::string& frame);
  void kill_locked();
  void wait_ack_locked(std::unique_lock<std::mutex>& lock,
                       std::uint64_t ship);
  /// Build + send one repl-snapshot frame for `name` carrying `bytes`;
  /// returns the ship seq (0 when nothing was sent).
  std::uint64_t send_snapshot_locked(const std::string& name,
                                     const std::string& bytes);

  const std::uint64_t timeout_ms_;
  std::unique_ptr<FaultInjector> injector_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::unique_ptr<Conn> conn_;
  std::uint64_t gen_counter_ = 0;
  std::set<std::uint64_t> ackloss_;  ///< ship seqs whose ack chaos eats
  ReplStats stats_;
};

class ReplicaApplier {
 public:
  struct Config {
    std::string host;
    std::uint16_t port = 0;
    std::string journal_dir;
    bool fsync = true;  ///< fsync each applied record (mirror primary)
    std::uint64_t reconnect_backoff_ms = 200;
  };

  /// `is_promoted(name)` answers whether a local session owns `name`'s
  /// file now (failover happened) — such frames are acked and dropped.
  ReplicaApplier(Config config,
                 std::function<bool(const std::string&)> is_promoted);
  ~ReplicaApplier();

  ReplicaApplier(const ReplicaApplier&) = delete;
  ReplicaApplier& operator=(const ReplicaApplier&) = delete;

  void start();
  void stop();

  /// Promotion-fence input: true while the replication link is up, or
  /// has been down for less than `grace_ms` (a chaos cut heals within
  /// the reconnect backoff — only a primary that STAYS unreachable
  /// clears the fence). Also true for the first `grace_ms` after
  /// start(), before the first handshake: a restarted standby must not
  /// promote its shadow files just because it has not dialed home yet.
  bool replicating(std::uint64_t grace_ms) const;

  ReplStats stats_snapshot() const;

 private:
  void loop();
  /// Serve one established connection until it fails; true = orderly
  /// stop requested, false = reconnect.
  bool serve(int fd);
  bool apply_frame(std::string_view line, std::uint64_t* ship);

  Config config_;
  std::function<bool(const std::string&)> is_promoted_;

  std::thread thread_;
  mutable std::mutex mutex_;
  bool stopping_ = false;
  int fd_ = -1;  ///< live socket, for stop() to shutdown(2)
  bool link_up_ = false;  ///< handshake done, frames flowing
  /// When the link last went down (or start() time before the first
  /// handshake) — the fence's grace clock.
  std::chrono::steady_clock::time_point last_up_{};
  ReplStats stats_;
};

}  // namespace parulel::net
