// Line I/O: the one TCP layer under src/net and src/distrib.
//
// Every peer in the system — client and server, primary and replica,
// cluster driver and sites — speaks newline-terminated text lines over
// TCP. This module is the only place that turns socket bytes into those
// lines and back:
//
//   - LineBuffer, a sans-I/O framer: bytes in, lines out. It resumes
//     the newline scan where the last one stopped, compacts once per
//     fill, strips one trailing '\r', and optionally caps line length
//     (the NetServer's `err line-too-long` with skip-to-newline).
//   - read_some / write_all: one read into a LineBuffer, and a full
//     write that waits out a full socket buffer until a deadline.
//   - poll_until: the one poll(2) call, against a steady-clock
//     deadline, retrying EINTR with the time that is left.
//   - dial_tcp / listen_tcp / accept_conn: the one connect, the one
//     bind+listen, the one accept.
//   - LineConn: a nonblocking connection built from the above, for the
//     cluster runtime and the blocking NetClient.
#pragma once

#include <poll.h>
#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace parulel::net {

using Deadline = std::chrono::steady_clock::time_point;

/// A deadline that never passes: wait as long as it takes.
inline constexpr Deadline kNoDeadline = Deadline::max();

/// `ms` milliseconds from now.
Deadline deadline_in(std::uint64_t ms);

/// Sans-I/O newline framer. Feed it bytes with append(); pull complete
/// lines with next(). A line is the bytes before a '\n', minus one
/// trailing '\r'. An unterminated tail stays buffered (pending()) until
/// its newline arrives; at EOF it is simply never delivered.
class LineBuffer {
 public:
  /// `max_line` caps a line's length after '\r' stripping; 0 = no cap.
  explicit LineBuffer(std::size_t max_line = 0) : max_line_(max_line) {}

  enum class Frame : std::uint8_t {
    None,     ///< no complete line buffered
    Line,     ///< `line` holds the next line
    TooLong,  ///< one over-cap line was dropped (reported once)
  };

  /// Frame the next line. The view in `line` stays valid until the next
  /// call to any non-const member. Over-cap lines are reported as
  /// TooLong as soon as the buffered part of one proves it too long
  /// (the rest is discarded up to its newline), so the answer is the
  /// same however the bytes were chunked.
  Frame next(std::string_view& line);

  /// Append bytes read off the wire. Compacts the consumed prefix first.
  void append(std::string_view bytes);

  /// Buffered bytes not yet framed (an unterminated tail).
  std::size_t pending() const { return data_.size() - head_; }

  void clear();

 private:
  std::string data_;
  std::size_t head_ = 0;  ///< first byte not yet framed
  std::size_t scan_ = 0;  ///< the newline search resumes here
  std::size_t max_line_ = 0;
  bool skipping_ = false;  ///< discarding an over-cap line to its newline
};

/// One read(2) of up to 64 KiB from `fd` into `buf`, retrying EINTR.
/// Returns the byte count, 0 at EOF, or -1 with errno set (EAGAIN on an
/// empty nonblocking socket).
ssize_t read_some(int fd, LineBuffer& buf);

/// Send all of `data` (MSG_NOSIGNAL: a dead peer is an error, not a
/// signal). A full socket buffer is waited out until `deadline`. False
/// with errno set on failure; ETIMEDOUT when the deadline passed.
bool write_all(int fd, std::string_view data, Deadline deadline = kNoDeadline);

/// poll(2) until `deadline`: retries EINTR with the time left. Returns
/// the ready count, 0 once the deadline passed, or -1 with errno set.
int poll_until(std::span<pollfd> fds, Deadline deadline);

/// Connect to `host` (dotted IPv4) : `port` within `timeout_ms` (0 = no
/// limit beyond the kernel's). Returns a blocking fd with TCP_NODELAY
/// set, or -1 with `*error` set and errno kept (ETIMEDOUT when the
/// timeout expired).
int dial_tcp(const std::string& host, std::uint16_t port,
             std::uint64_t timeout_ms, std::string* error);

/// Nonblocking listener on `host`:`port` (0 = ephemeral; the bound port
/// lands in `*bound_port`). Returns the listen fd, or -1 with `*error`
/// set.
int listen_tcp(const std::string& host, std::uint16_t port, int backlog,
               std::uint16_t* bound_port, std::string* error);

/// Accept one pending connection off a nonblocking listener: a
/// nonblocking fd with TCP_NODELAY set, or -1 when none is waiting.
int accept_conn(int listen_fd);

/// Switch `fd` between blocking and nonblocking mode.
void set_nonblocking(int fd, bool on);

/// One nonblocking line-oriented TCP connection. Move-only; owns the
/// fd. EOF, a read error or a write failure closes it; callers treat
/// any dead conn the same way (redial, retransmit, fail the request),
/// so there is no per-error state.
class LineConn {
 public:
  /// How long write_line waits out a full socket buffer by default.
  /// Lines here are small and the peer is always draining, so a stall
  /// this long means a dead peer.
  static constexpr std::uint64_t kWriteStallMs = 5000;

  LineConn() = default;
  /// Takes ownership of `fd` and makes it nonblocking.
  explicit LineConn(int fd);
  ~LineConn();

  LineConn(LineConn&& other) noexcept;
  LineConn& operator=(LineConn&& other) noexcept;
  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();

  /// Drain what the kernel has and append every complete line to `out`.
  /// Never blocks. False once the connection is closed (EOF or error);
  /// lines that were complete before that are still appended.
  bool read_lines(std::vector<std::string>& out);

  /// Take the next line, reading and waiting for it until `deadline`.
  /// Lines that arrive with it stay buffered for the next call (or
  /// read_lines). False on timeout (valid() stays true) or when the
  /// connection closes first (valid() false).
  bool wait_line(std::string& line, Deadline deadline);

  /// Write one line ('\n' appended). False — and closed — on error, or
  /// when a full socket buffer does not drain by `deadline` (errno
  /// ETIMEDOUT).
  bool write_line(std::string_view line, Deadline deadline);
  bool write_line(std::string_view line) {
    return write_line(line, deadline_in(kWriteStallMs));
  }

 private:
  bool take(std::string& line);

  int fd_ = -1;
  LineBuffer buf_;
};

}  // namespace parulel::net
