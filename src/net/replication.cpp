#include "net/replication.hpp"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <vector>

#include "distrib/faults.hpp"
#include "net/line_io.hpp"
#include "service/journal.hpp"
#include "support/hex.hpp"
#include "support/read_file.hpp"

namespace parulel::net {

namespace {

constexpr std::string_view kReplHello = "repl-hello parulel/2\n";
constexpr std::string_view kReplHelloOk = "ok repl-hello parulel/2";

/// How long the applier waits for one dial to the primary before it
/// backs off and redials.
constexpr std::uint64_t kDialTimeoutMs = 2000;

void fsync_parent_dir(const std::string& path) {
  const std::string dir =
      std::filesystem::path(path).parent_path().string();
  const int fd = ::open(dir.empty() ? "." : dir.c_str(),
                        O_RDONLY | O_CLOEXEC);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

/// Same constraints as the service's durable names: a shipped NAME
/// becomes a filename, so it must never traverse out of the journal
/// directory — even if the peer is confused or hostile.
bool safe_name(const std::string& name) {
  if (name.empty() || name.size() > 128 || name.front() == '.') return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '-' && c != '.') {
      return false;
    }
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------- hub

ReplicationHub::ReplicationHub(std::uint64_t timeout_ms,
                               std::unique_ptr<FaultInjector> injector)
    : timeout_ms_(timeout_ms), injector_(std::move(injector)) {}

ReplicationHub::~ReplicationHub() { shutdown(); }

void ReplicationHub::adopt(int fd) {
  std::unique_ptr<Conn> old;
  {
    std::scoped_lock lock(mutex_);
    old = std::move(conn_);
    if (old && old->open) {
      old->open = false;
      ::shutdown(old->fd, SHUT_RDWR);
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->gen = ++gen_counter_;
    conn->open = true;
    ++stats_.replica_connects;
    Conn* cp = conn.get();
    conn->reader = std::thread([this, cp] { reader_loop(cp); });
    conn_ = std::move(conn);
    cv_.notify_all();
  }
  if (old) {
    if (old->reader.joinable()) old->reader.join();
    if (old->fd >= 0) ::close(old->fd);
  }
}

void ReplicationHub::shutdown() {
  std::unique_ptr<Conn> old;
  {
    std::scoped_lock lock(mutex_);
    old = std::move(conn_);
    if (old && old->open) {
      old->open = false;
      ::shutdown(old->fd, SHUT_RDWR);
    }
    cv_.notify_all();
  }
  if (old) {
    if (old->reader.joinable()) old->reader.join();
    if (old->fd >= 0) ::close(old->fd);
  }
}

void ReplicationHub::reader_loop(Conn* conn) {
  LineBuffer buf;
  std::string_view line;
  while (read_some(conn->fd, buf) > 0) {
    while (buf.next(line) == LineBuffer::Frame::Line) {
      std::uint64_t ack = 0;
      std::istringstream in{std::string(line)};
      std::string cmd;
      in >> cmd >> ack;
      if (cmd != "repl-ack") continue;
      std::scoped_lock lock(mutex_);
      if (auto it = ackloss_.find(ack); it != ackloss_.end()) {
        // Chaos: this frame's ack is "lost on the wire" — the commit
        // that waits for it times out and degrades. Acks are
        // cumulative, so a later one heals the watermark.
        ackloss_.erase(it);
        continue;
      }
      ++stats_.acks_received;
      if (ack > conn->last_acked) conn->last_acked = ack;
      if (conn->degraded && conn->last_acked >= conn->last_sent) {
        conn->degraded = false;  // caught up: semi-sync resumes
      }
      cv_.notify_all();
    }
  }
  std::scoped_lock lock(mutex_);
  conn->open = false;
  cv_.notify_all();
}

void ReplicationHub::kill_locked() {
  if (conn_ && conn_->open) {
    conn_->open = false;
    ::shutdown(conn_->fd, SHUT_RDWR);  // reader exits; join at replace
  }
  cv_.notify_all();
}

bool ReplicationHub::send_locked(const std::string& frame) {
  if (!write_all(conn_->fd, frame)) {
    kill_locked();
    return false;
  }
  return true;
}

std::uint64_t ReplicationHub::send_snapshot_locked(const std::string& name,
                                                   const std::string& bytes) {
  const std::uint64_t ship = conn_->next_ship++;
  std::string frame = "repl-snapshot " + name + " " + std::to_string(ship) +
                      " " + (bytes.empty() ? std::string("-")
                                           : to_hex(bytes)) +
                      "\n";
  if (!send_locked(frame)) return 0;
  conn_->synced.insert(name);
  conn_->last_sent = ship;
  ++stats_.snapshots_shipped;
  stats_.bytes_shipped += bytes.size();
  return ship;
}

void ReplicationHub::wait_ack_locked(std::unique_lock<std::mutex>& lock,
                                     std::uint64_t ship) {
  if (timeout_ms_ == 0 || conn_->degraded) {
    ++stats_.async_commits;
    return;
  }
  const std::uint64_t gen = conn_->gen;
  cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms_), [&] {
    return !conn_ || conn_->gen != gen || !conn_->open ||
           conn_->last_acked >= ship;
  });
  if (conn_ && conn_->gen == gen && conn_->open &&
      conn_->last_acked >= ship) {
    ++stats_.sync_commits;
    return;
  }
  if (conn_ && conn_->gen == gen && conn_->open) {
    // The replica is alive but slow: degrade to async rather than
    // stall the data path; the ack reader re-arms semi-sync once the
    // watermark catches up.
    ++stats_.repl_degraded;
    conn_->degraded = true;
  }
  ++stats_.async_commits;
}

void ReplicationHub::sync_name(const std::string& name,
                               const std::string& bytes) {
  std::scoped_lock lock(mutex_);
  if (!conn_ || !conn_->open || conn_->synced.count(name)) return;
  send_snapshot_locked(name, bytes);
}

void ReplicationHub::ship_batch(const std::string& name, std::uint64_t seq,
                                const std::string& payload,
                                const std::string& path) {
  (void)seq;  // the record's own seq rides inside the payload
  std::unique_lock lock(mutex_);
  if (!conn_ || !conn_->open) return;  // no replica: local-only commit
  FaultVerdict verdict;
  if (injector_) verdict = injector_->roll();
  if (verdict.drop) {
    // Cut the channel mid-stream: the replica reconnects and the
    // per-connection synced set forces a full file resync.
    kill_locked();
    return;
  }
  if (verdict.delay > 0) {
    lock.unlock();
    std::this_thread::sleep_for(std::chrono::milliseconds(verdict.delay));
    lock.lock();
    if (!conn_ || !conn_->open) return;
  }
  std::uint64_t ship = 0;
  if (!conn_->synced.count(name)) {
    // First frame for this name on this connection: ship the whole
    // file. The caller holds the session lock, so the read is
    // consistent and already contains this batch.
    std::string bytes;
    if (!read_file(path, &bytes)) return;
    if (verdict.duplicate) ackloss_.insert(conn_->next_ship);
    ship = send_snapshot_locked(name, bytes);
  } else {
    if (verdict.duplicate) ackloss_.insert(conn_->next_ship);
    ship = conn_->next_ship++;
    std::string frame = "repl-batch " + name + " " + std::to_string(ship) +
                        " " + to_hex(payload) + "\n";
    if (!send_locked(frame)) return;
    conn_->last_sent = ship;
    ++stats_.batches_shipped;
    stats_.bytes_shipped += payload.size();
  }
  if (ship == 0) return;
  wait_ack_locked(lock, ship);
}

void ReplicationHub::ship_file(const std::string& name,
                               const std::string& path) {
  std::unique_lock lock(mutex_);
  if (!conn_ || !conn_->open) return;
  std::string bytes;
  if (!read_file(path, &bytes)) return;
  const std::uint64_t ship = send_snapshot_locked(name, bytes);
  if (ship == 0) return;
  wait_ack_locked(lock, ship);
}

void ReplicationHub::ship_remove(const std::string& name) {
  std::scoped_lock lock(mutex_);
  if (!conn_ || !conn_->open) return;
  const std::uint64_t ship = conn_->next_ship++;
  std::string frame =
      "repl-snapshot " + name + " " + std::to_string(ship) + " -\n";
  if (!send_locked(frame)) return;
  conn_->last_sent = ship;
  conn_->synced.erase(name);
}

bool ReplicationHub::caught_up() const {
  std::scoped_lock lock(mutex_);
  return conn_ && conn_->open && conn_->last_acked == conn_->last_sent;
}

ReplStats ReplicationHub::stats_snapshot() const {
  std::scoped_lock lock(mutex_);
  return stats_;
}

// ------------------------------------------------------------ applier

ReplicaApplier::ReplicaApplier(
    Config config, std::function<bool(const std::string&)> is_promoted)
    : config_(std::move(config)), is_promoted_(std::move(is_promoted)) {}

ReplicaApplier::~ReplicaApplier() { stop(); }

void ReplicaApplier::start() {
  std::scoped_lock lock(mutex_);
  if (thread_.joinable()) return;
  stopping_ = false;
  // Arm the fence's grace clock: until the first handshake (or for
  // grace_ms, whichever comes first) the standby refuses promotion —
  // "I have not heard from the primary yet" is not evidence it died.
  last_up_ = std::chrono::steady_clock::now();
  thread_ = std::thread([this] { loop(); });
}

void ReplicaApplier::stop() {
  {
    std::scoped_lock lock(mutex_);
    stopping_ = true;
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  }
  if (thread_.joinable()) thread_.join();
}

ReplStats ReplicaApplier::stats_snapshot() const {
  std::scoped_lock lock(mutex_);
  return stats_;
}

bool ReplicaApplier::replicating(std::uint64_t grace_ms) const {
  std::scoped_lock lock(mutex_);
  if (link_up_) return true;
  return std::chrono::steady_clock::now() - last_up_ <
         std::chrono::milliseconds(grace_ms);
}

void ReplicaApplier::loop() {
  for (;;) {
    {
      std::scoped_lock lock(mutex_);
      if (stopping_) return;
    }
    const int fd =
        dial_tcp(config_.host, config_.port, kDialTimeoutMs, nullptr);
    bool served_stop = false;
    if (fd >= 0) {
      {
        std::scoped_lock lock(mutex_);
        if (stopping_) {
          ::close(fd);
          return;
        }
        fd_ = fd;
      }
      served_stop = serve(fd);
      {
        std::scoped_lock lock(mutex_);
        fd_ = -1;
        if (link_up_) {
          link_up_ = false;
          last_up_ = std::chrono::steady_clock::now();
        }
      }
      ::close(fd);
    }
    if (served_stop) return;
    // Primary unreachable (or the channel died): back off and redial.
    // The per-connection handshake makes reconnects self-healing — the
    // primary full-resyncs every name the new channel touches.
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config_.reconnect_backoff_ms));
  }
}

bool ReplicaApplier::serve(int fd) {
  if (!write_all(fd, kReplHello)) return false;
  LineBuffer buf;
  std::string_view line;
  bool handshaken = false;
  for (;;) {
    if (read_some(fd, buf) <= 0) {
      std::scoped_lock lock(mutex_);
      return stopping_;
    }
    while (buf.next(line) == LineBuffer::Frame::Line) {
      if (!handshaken) {
        if (line.rfind(kReplHelloOk, 0) != 0) return false;
        handshaken = true;
        std::scoped_lock lock(mutex_);
        ++stats_.replica_connects;
        link_up_ = true;
        continue;
      }
      std::uint64_t ship = 0;
      if (!apply_frame(line, &ship)) return false;
      if (ship != 0 &&
          !write_all(fd, "repl-ack " + std::to_string(ship) + "\n")) {
        return false;
      }
    }
  }
}

bool ReplicaApplier::apply_frame(std::string_view line,
                                 std::uint64_t* ship) {
  std::istringstream in{std::string(line)};
  std::string cmd;
  std::string name;
  std::uint64_t seq = 0;
  std::string hex;
  in >> cmd >> name >> seq >> hex;
  auto bad = [this] {
    std::scoped_lock lock(mutex_);
    ++stats_.apply_errors;
    return false;  // drop the connection: reconnect forces a resync
  };
  auto hex_decode = [](const std::string& token, std::string* out) {
    try {
      *out = from_hex(token);
      return true;
    } catch (const RuntimeError&) {
      return false;  // fail closed: the caller counts and drops
    }
  };
  if ((cmd != "repl-batch" && cmd != "repl-snapshot") || seq == 0 ||
      hex.empty() || !safe_name(name)) {
    return bad();
  }
  *ship = seq;
  const std::string path =
      (std::filesystem::path(config_.journal_dir) / (name + ".wal"))
          .string();
  if (is_promoted_ && is_promoted_(name)) {
    // Failover happened: a local session owns this file now. Ack and
    // drop — the primary's stream is stale for this name.
    return true;
  }
  if (cmd == "repl-batch") {
    std::string payload;
    if (!hex_decode(hex, &payload)) return bad();
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC, 0644);
    if (fd < 0) return bad();  // no snapshot first? resync fixes it
    const std::string frame = service::frame_record(payload);
    const char* p = frame.data();
    std::size_t left = frame.size();
    bool wrote = true;
    while (left > 0) {
      const ssize_t n = ::write(fd, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        wrote = false;
        break;
      }
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    if (wrote && config_.fsync && ::fsync(fd) != 0) wrote = false;
    ::close(fd);
    if (!wrote) return bad();
    std::scoped_lock lock(mutex_);
    ++stats_.applied_batches;
    return true;
  }
  // repl-snapshot: "-" means the primary closed (unlinked) the name;
  // anything else is the whole file, applied via tmp+fsync+rename so
  // the replica's copy is never torn by its own crash either.
  if (hex == "-") {
    ::unlink(path.c_str());
    std::scoped_lock lock(mutex_);
    ++stats_.applied_snapshots;
    return true;
  }
  std::string bytes;
  if (!hex_decode(hex, &bytes)) return bad();
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(),
                        O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) return bad();
  bool wrote = true;
  const char* p = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      wrote = false;
      break;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  if (wrote && ::fsync(fd) != 0) wrote = false;
  ::close(fd);
  if (!wrote || ::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return bad();
  }
  fsync_parent_dir(path);
  std::scoped_lock lock(mutex_);
  ++stats_.applied_snapshots;
  return true;
}

}  // namespace parulel::net
