#include "net/line_io.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>

namespace parulel::net {

namespace {

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool parse_ipv4(const std::string& host, std::uint16_t port,
                sockaddr_in* addr) {
  *addr = sockaddr_in{};
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  return ::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) == 1;
}

/// Close `fd`, set `*error` to "`what`: `detail`" (strerror(err) when
/// `detail` is empty), leave errno = `err`, and return -1.
int fail_fd(int fd, std::string* error, const std::string& what, int err,
            std::string_view detail = {}) {
  if (fd >= 0) ::close(fd);
  if (error) {
    *error = what + ": ";
    *error += detail.empty() ? std::string_view(std::strerror(err)) : detail;
  }
  errno = err;
  return -1;
}

}  // namespace

Deadline deadline_in(std::uint64_t ms) {
  return std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
}

// ------------------------------------------------------------ LineBuffer

LineBuffer::Frame LineBuffer::next(std::string_view& line) {
  for (;;) {
    const void* hit =
        std::memchr(data_.data() + scan_, '\n', data_.size() - scan_);
    if (hit == nullptr) {
      scan_ = data_.size();
      if (skipping_) {
        data_.resize(head_);  // still inside the over-cap line: drop it
        scan_ = head_;
        return Frame::None;
      }
      // The tail already proves its line too long if, even were a
      // "\r\n" to arrive next, the line would still exceed the cap.
      const std::size_t tail = pending();
      const bool cr = tail > 0 && data_.back() == '\r';
      if (max_line_ != 0 && tail - (cr ? 1 : 0) > max_line_) {
        data_.resize(head_);
        scan_ = head_;
        skipping_ = true;
        return Frame::TooLong;
      }
      return Frame::None;
    }
    const std::size_t nl =
        static_cast<std::size_t>(static_cast<const char*>(hit) - data_.data());
    const std::size_t begin = head_;
    head_ = scan_ = nl + 1;
    if (skipping_) {
      skipping_ = false;
      continue;
    }
    std::size_t end = nl;
    if (end > begin && data_[end - 1] == '\r') --end;
    if (max_line_ != 0 && end - begin > max_line_) return Frame::TooLong;
    line = std::string_view(data_.data() + begin, end - begin);
    return Frame::Line;
  }
}

void LineBuffer::append(std::string_view bytes) {
  if (head_ > 0) {
    data_.erase(0, head_);
    scan_ -= head_;
    head_ = 0;
  }
  data_.append(bytes);
}

void LineBuffer::clear() {
  data_.clear();
  head_ = scan_ = 0;
  skipping_ = false;
}

// ------------------------------------------------------------- raw I/O

ssize_t read_some(int fd, LineBuffer& buf) {
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n > 0) buf.append(std::string_view(chunk, static_cast<std::size_t>(n)));
    return n;
  }
}

bool write_all(int fd, std::string_view data, Deadline deadline) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n > 0) {
      data.remove_prefix(static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd, POLLOUT, 0};
      const int rc = poll_until({&pfd, 1}, deadline);
      if (rc > 0) continue;
      if (rc == 0) errno = ETIMEDOUT;
    }
    return false;
  }
  return true;
}

int poll_until(std::span<pollfd> fds, Deadline deadline) {
  for (;;) {
    int timeout = -1;
    if (deadline != kNoDeadline) {
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
      timeout = static_cast<int>(
          std::clamp<decltype(left)>(left, 0, INT_MAX));
    }
    const int rc = ::poll(fds.data(), fds.size(), timeout);
    if (rc >= 0 || errno != EINTR) return rc;
  }
}

// ------------------------------------------------- dial, listen, accept

void set_nonblocking(int fd, bool on) {
  const int fl = ::fcntl(fd, F_GETFL, 0);
  if (fl < 0) return;
  ::fcntl(fd, F_SETFL, on ? (fl | O_NONBLOCK) : (fl & ~O_NONBLOCK));
}

int dial_tcp(const std::string& host, std::uint16_t port,
             std::uint64_t timeout_ms, std::string* error) {
  sockaddr_in addr;
  if (!parse_ipv4(host, port, &addr)) {
    return fail_fd(-1, error, "bad address", EINVAL, host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return fail_fd(-1, error, "socket", errno);
  const std::string where = "connect " + host + ":" + std::to_string(port);
  // Bounded connect: start it nonblocking, wait for writability, read
  // the verdict from SO_ERROR, then hand back a blocking fd.
  set_nonblocking(fd, true);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) return fail_fd(fd, error, where, errno);
    pollfd pfd{fd, POLLOUT, 0};
    const int rc = poll_until(
        {&pfd, 1}, timeout_ms == 0 ? kNoDeadline : deadline_in(timeout_ms));
    if (rc == 0) {
      return fail_fd(fd, error, where, ETIMEDOUT,
                     "timed out after " + std::to_string(timeout_ms) + "ms");
    }
    if (rc < 0) return fail_fd(fd, error, where, errno);
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
    if (so_error != 0) return fail_fd(fd, error, where, so_error);
  }
  set_nonblocking(fd, false);
  set_nodelay(fd);
  return fd;
}

int listen_tcp(const std::string& host, std::uint16_t port, int backlog,
               std::uint16_t* bound_port, std::string* error) {
  sockaddr_in addr;
  if (!parse_ipv4(host, port, &addr)) {
    return fail_fd(-1, error, "bad bind address", EINVAL, host);
  }
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return fail_fd(-1, error, "socket", errno);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return fail_fd(fd, error, "bind " + host + ":" + std::to_string(port),
                   errno);
  }
  if (::listen(fd, backlog) != 0) return fail_fd(fd, error, "listen", errno);
  socklen_t len = sizeof(addr);
  if (bound_port &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    *bound_port = ntohs(addr.sin_port);
  }
  return fd;
}

int accept_conn(int listen_fd) {
  const int fd =
      ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
  if (fd >= 0) set_nodelay(fd);
  return fd;
}

// ------------------------------------------------------------- LineConn

LineConn::LineConn(int fd) : fd_(fd) {
  if (fd_ >= 0) set_nonblocking(fd_, true);
}

LineConn::~LineConn() { close(); }

LineConn::LineConn(LineConn&& other) noexcept
    : fd_(other.fd_), buf_(std::move(other.buf_)) {
  other.fd_ = -1;
}

LineConn& LineConn::operator=(LineConn&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    buf_ = std::move(other.buf_);
    other.fd_ = -1;
  }
  return *this;
}

void LineConn::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buf_.clear();
}

bool LineConn::take(std::string& line) {
  std::string_view view;
  if (buf_.next(view) != LineBuffer::Frame::Line) return false;
  line.assign(view);
  return true;
}

bool LineConn::read_lines(std::vector<std::string>& out) {
  if (fd_ < 0) return false;
  ssize_t n;
  while ((n = read_some(fd_, buf_)) > 0) {
  }
  const bool alive = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  std::string line;
  while (take(line)) out.push_back(std::move(line));
  if (!alive) close();  // EOF or a hard error
  return alive;
}

bool LineConn::wait_line(std::string& line, Deadline deadline) {
  while (!take(line)) {
    if (fd_ < 0) return false;
    const ssize_t n = read_some(fd_, buf_);
    if (n > 0) continue;
    if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
      close();
      return false;
    }
    pollfd pfd{fd_, POLLIN, 0};
    if (poll_until({&pfd, 1}, deadline) <= 0) return false;
  }
  return true;
}

bool LineConn::write_line(std::string_view line, Deadline deadline) {
  if (fd_ < 0) return false;
  std::string data;
  data.reserve(line.size() + 1);
  data.append(line);
  data.push_back('\n');
  if (write_all(fd_, data, deadline)) return true;
  const int err = errno;
  close();
  errno = err;
  return false;
}

}  // namespace parulel::net
