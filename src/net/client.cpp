#include "net/client.hpp"

#include <cerrno>
#include <charconv>
#include <cstring>

#include "service/protocol.hpp"

namespace parulel::net {

NetClient::~NetClient() { close(); }

void NetClient::close() { conn_.close(); }

bool NetClient::fail(std::string msg) {
  error_ = std::move(msg);
  close();
  return false;
}

Deadline NetClient::io_deadline() const {
  return options_.io_timeout_ms == 0 ? kNoDeadline
                                     : deadline_in(options_.io_timeout_ms);
}

bool NetClient::connect(const std::string& host, std::uint16_t port) {
  close();
  error_.clear();
  server_version_.clear();
  timed_out_ = false;

  const int fd = dial_tcp(host, port, options_.connect_timeout_ms, &error_);
  if (fd < 0) {
    timed_out_ = errno == ETIMEDOUT;
    return false;
  }
  conn_ = LineConn(fd);

  // Versioned handshake: refuse to talk to a server speaking something
  // we don't. The current revision and the legacy one are both fine —
  // parulel/2 is a superset of parulel/1.
  Response hello;
  std::string greeting = "hello ";
  greeting += service::ServeProtocol::kProtocolVersion;
  if (!request(greeting, hello)) return false;
  if (!hello.ok()) {
    // Downgrade path: an old server refuses parulel/2 with a structured
    // error naming what it does speak; try the legacy revision once.
    std::string legacy = "hello ";
    legacy += service::ServeProtocol::kProtocolVersionLegacy;
    if (!request(legacy, hello)) return false;
    if (!hello.ok()) return fail("handshake refused: " + hello.status);
  }
  const std::size_t space = hello.status.rfind(' ');
  server_version_ = space == std::string::npos
                        ? std::string()
                        : hello.status.substr(space + 1);
  if (server_version_ != service::ServeProtocol::kProtocolVersion &&
      server_version_ != service::ServeProtocol::kProtocolVersionLegacy) {
    return fail("server speaks " + server_version_ + ", client speaks " +
                std::string(service::ServeProtocol::kProtocolVersion));
  }
  return true;
}

bool NetClient::send_line(std::string_view line) {
  if (!conn_.valid()) {
    error_ = "not connected";
    return false;
  }
  timed_out_ = false;
  if (conn_.write_line(line, io_deadline())) return true;
  timed_out_ = errno == ETIMEDOUT;
  return fail(timed_out_ ? std::string("send: timed out")
                         : std::string("send: ") + std::strerror(errno));
}

bool NetClient::read_line(std::string& out) {
  if (conn_.wait_line(out, io_deadline())) return true;
  timed_out_ = conn_.valid();
  return fail(timed_out_ ? "recv: timed out" : "connection closed by server");
}

bool NetClient::read_response(Response& out) {
  out.status.clear();
  out.details.clear();
  if (!conn_.valid()) {
    error_ = "not connected";
    return false;
  }
  if (!read_line(out.status)) return false;

  // `ok query n=N` is the one multi-line response: N `fact` lines follow.
  constexpr std::string_view kQuery = "ok query n=";
  if (out.status.rfind(kQuery, 0) == 0) {
    std::size_t n = 0;
    const char* first = out.status.data() + kQuery.size();
    const char* last = out.status.data() + out.status.size();
    auto [p, ec] = std::from_chars(first, last, n);
    if (ec != std::errc() || p != last) {
      return fail("bad query response: " + out.status);
    }
    out.details.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      std::string detail;
      if (!read_line(detail)) return false;
      out.details.push_back(std::move(detail));
    }
  }
  return true;
}

bool NetClient::request(std::string_view line, Response& out) {
  return send_line(line) && read_response(out);
}

}  // namespace parulel::net
