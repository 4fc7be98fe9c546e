// NetClient: a small blocking client for the parulel wire protocol.
//
// Speaks the line protocol documented in PROTOCOL.md to a NetServer (or
// anything else that serves it): connect() dials TCP and performs the
// versioned `hello` handshake; request() sends one command line and
// reads its response. send_line()/read_response() are also exposed
// separately so callers can pipeline — write a burst of commands, then
// collect the responses in order (the server guarantees one status line
// per command, in request order).
//
// Framing recap (the part a client must know): every command line gets
// exactly one `ok ...` or `err ...` status line, except `query`, whose
// `ok query n=N` status is followed by N `fact ...` detail lines —
// read_response() folds those into Response::details. Blank and
// comment-only lines produce no response at all; don't send them if
// you plan to count replies.
//
// Used by `parulel_cli --connect` (interactive / scripted sessions) and
// by bench/bench_s2_net.cpp (the load generator).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/line_io.hpp"

namespace parulel::net {

/// One command's reply: the status line (newline stripped) plus any
/// `fact` detail lines a query carried.
struct Response {
  std::string status;
  std::vector<std::string> details;

  bool ok() const { return status.rfind("ok", 0) == 0; }
};

class NetClient {
 public:
  struct Options {
    /// Give up on connect() after this long; 0 = the OS default
    /// (minutes of kernel SYN retries — set this for anything
    /// interactive or retried).
    std::uint64_t connect_timeout_ms = 0;

    /// How long one line may take to send, or to arrive, once
    /// connected; 0 = wait forever. A timed-out call fails the request
    /// and sets timed_out() so retry loops can tell a slow server from a
    /// dead one.
    std::uint64_t io_timeout_ms = 0;
  };

  NetClient() = default;
  explicit NetClient(Options options) : options_(options) {}
  ~NetClient();

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// Dial host:port and perform the `hello` handshake. False on
  /// connect, write, or version failure (see error()); the connection
  /// is closed on any failure.
  bool connect(const std::string& host, std::uint16_t port);

  bool connected() const { return conn_.valid(); }
  void close();

  /// The version the server announced in `ok hello VERSION`.
  const std::string& server_version() const { return server_version_; }

  const std::string& error() const { return error_; }

  /// True when the LAST failure was an I/O or connect timeout.
  bool timed_out() const { return timed_out_; }

  /// Write one command line (a '\n' is appended). False on I/O failure.
  bool send_line(std::string_view line);

  /// Read one response: a status line plus, for `ok query n=N`, the N
  /// detail lines. False on I/O failure or EOF mid-response.
  bool read_response(Response& out);

  /// send_line + read_response.
  bool request(std::string_view line, Response& out);

 private:
  bool read_line(std::string& out);
  bool fail(std::string msg);
  Deadline io_deadline() const;

  Options options_;
  LineConn conn_;
  std::string server_version_;
  std::string error_;
  bool timed_out_ = false;
};

}  // namespace parulel::net
