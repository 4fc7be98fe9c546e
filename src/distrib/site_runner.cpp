#include "distrib/site_runner.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>


namespace parulel {

namespace {

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool file_exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace

SiteRunner::SiteRunner(const Program& program, std::string program_text,
                       SiteOptions options)
    : program_(program),
      program_text_(std::move(program_text)),
      opt_(std::move(options)),
      scheme_(program_, opt_.partition),
      meta_(program_) {
  if (opt_.sites == 0) opt_.sites = 1;
  core_ = std::make_unique<SiteCore>(
      program_, scheme_, meta_,
      SiteCoreOptions{opt_.site_id, opt_.sites, opt_.faults,
                      opt_.checkpoint_every, !opt_.journal_path.empty()});
}

SiteRunner::~SiteRunner() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

bool SiteRunner::setup() {
  peers_.resize(opt_.sites);
  if (!opt_.journal_path.empty() && file_exists(opt_.journal_path)) {
    // Crashed (or restarted) incarnation: replay the WAL into the core,
    // which bumps the epoch and journals a marker BEFORE we talk to
    // anyone.
    SiteRecovery rec = recover_site_wal(opt_.journal_path, program_,
                                        program_text_, opt_.sites);
    const std::uint64_t batches = rec.batches;
    std::string torn;
    if (rec.torn_bytes) {
      torn = " (torn " + rec.torn_kind + "@" +
             std::to_string(rec.torn_offset) + "+" +
             std::to_string(rec.torn_bytes) + ")";
    }
    journal_ = service::SessionJournal::open_append(
        opt_.journal_path, opt_.fsync, &journal_stats_);
    core_->recover(std::move(rec));
    std::fprintf(stderr,
                 "site %u: recovered %llu batches from %s, epoch %u%s\n",
                 opt_.site_id, static_cast<unsigned long long>(batches),
                 opt_.journal_path.c_str(), core_->epoch(), torn.c_str());
  } else {
    if (!opt_.journal_path.empty()) {
      journal_ = service::SessionJournal::create(
          opt_.journal_path, "site-" + std::to_string(opt_.site_id),
          program_text_, opt_.fsync, &journal_stats_);
    }
    core_->assert_initial_facts();
  }
  flush(core_->take_output());

  std::string error;
  listen_fd_ = net::listen_tcp("127.0.0.1", opt_.listen_port, 64,
                               &listen_port_, &error);
  if (listen_fd_ < 0) {
    std::fprintf(stderr, "site %u: %s\n", opt_.site_id, error.c_str());
    return false;
  }

  const int fd =
      net::dial_tcp(opt_.driver_host, opt_.driver_port, 10000, &error);
  if (fd < 0) {
    std::fprintf(stderr, "site %u: driver: %s\n", opt_.site_id,
                 error.c_str());
    return false;
  }
  driver_ = net::LineConn(fd);
  driver_.write_line("cluster-hello parulel/2 site=" +
                     std::to_string(opt_.site_id) +
                     " epoch=" + std::to_string(core_->epoch()) +
                     " port=" + std::to_string(listen_port_));
  std::string reply;
  if (!driver_.wait_line(reply, net::deadline_in(15000))) {
    std::fprintf(stderr, "site %u: driver closed during hello\n",
                 opt_.site_id);
    return false;
  }
  if (!starts_with(reply, "ok cluster-hello")) {
    std::fprintf(stderr, "site %u: driver refused hello: %s\n", opt_.site_id,
                 reply.c_str());
    return false;
  }
  const std::uint64_t sites = wire_field_u64(reply, "sites");
  if (sites != opt_.sites) {
    std::fprintf(stderr, "site %u: driver runs %llu sites, we expect %u\n",
                 opt_.site_id, static_cast<unsigned long long>(sites),
                 opt_.sites);
    return false;
  }
  // Lines that rode in with the verdict (cluster-peers, a barrier).
  std::vector<std::string> lines;
  driver_.read_lines(lines);
  for (const std::string& line : lines) handle_driver_line(line);
  return true;
}

int SiteRunner::run() {
  try {
    if (!setup()) return 4;
    while (!stopping_) {
      if (!pump(1000)) break;
    }
    return 0;
  } catch (const service::JournalError& e) {
    std::fprintf(stderr, "site %u: journal: %s\n", opt_.site_id, e.what());
    return 4;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "site %u: %s\n", opt_.site_id, e.what());
    return 4;
  }
}

void SiteRunner::accept_pending() {
  for (;;) {
    const int fd = net::accept_conn(listen_fd_);
    if (fd < 0) break;
    handshaking_.emplace_back(fd);
  }
}

// Accept new inbound conns and answer any cc-hello waiting on them.
// Called from pump() AND from inside ensure_peer_conn's wait loop: when
// every site dials its peers at the same barrier, each must keep
// answering inbound hellos while waiting for its own outbound one, or
// the whole ring deadlocks until the handshake timeout.
void SiteRunner::process_handshakes() {
  accept_pending();
  // The epoch fence turns a zombie incarnation's redial away with
  // `err epoch-stale`; stray dialers get `err site-unreachable`.
  for (auto& conn : handshaking_) {
    if (!conn.valid()) continue;
    std::vector<std::string> lines;
    const bool alive = conn.read_lines(lines);
    if (lines.empty()) {
      if (!alive) conn.close();
      continue;
    }
    const std::string& hello = lines.front();
    const std::uint64_t from = wire_field_u64(hello, "from", opt_.sites);
    const auto epoch =
        static_cast<std::uint32_t>(wire_field_u64(hello, "epoch"));
    if (!starts_with(hello, "cc-hello") || from >= opt_.sites ||
        from == opt_.site_id) {
      conn.write_line("err site-unreachable");
      conn.close();
      continue;
    }
    Peer& peer = peers_[from];
    if (epoch < peer.epoch_seen) {
      conn.write_line("err epoch-stale");
      conn.close();
      continue;
    }
    peer.epoch_seen = epoch;
    conn.write_line("ok cc-hello");
    peer.in = std::move(conn);
    for (std::size_t i = 1; i < lines.size(); ++i) {
      handle_peer_line(static_cast<unsigned>(from), lines[i]);
    }
  }
  std::erase_if(handshaking_,
                [](const net::LineConn& c) { return !c.valid(); });
}

void SiteRunner::handshake_pollfds(std::vector<pollfd>& pfds) const {
  pfds.push_back({listen_fd_, POLLIN, 0});
  for (const auto& conn : handshaking_) {
    if (conn.valid()) pfds.push_back({conn.fd(), POLLIN, 0});
  }
}

bool SiteRunner::pump(int timeout_ms) {
  std::vector<pollfd> pfds;
  pfds.push_back({driver_.fd(), POLLIN, 0});
  handshake_pollfds(pfds);
  for (const Peer& p : peers_) {
    if (p.in.valid()) pfds.push_back({p.in.fd(), POLLIN, 0});
    if (p.out.valid()) pfds.push_back({p.out.fd(), POLLIN, 0});
  }
  net::poll_until(pfds, net::deadline_in(timeout_ms));

  process_handshakes();

  for (unsigned s = 0; s < peers_.size(); ++s) {
    Peer& p = peers_[s];
    if (p.in.valid()) {
      std::vector<std::string> lines;
      p.in.read_lines(lines);
      for (const std::string& line : lines) handle_peer_line(s, line);
    }
    if (p.out.valid()) {
      std::vector<std::string> lines;
      p.out.read_lines(lines);
      for (const std::string& line : lines) handle_ack_line(s, line);
    }
  }

  std::vector<std::string> lines;
  const bool driver_alive = driver_.read_lines(lines);
  for (const std::string& line : lines) {
    handle_driver_line(line);
    if (stopping_) break;
  }
  return driver_alive && !stopping_;
}

void SiteRunner::handle_driver_line(const std::string& line) {
  if (starts_with(line, "barrier ")) {
    const std::uint64_t cycle = std::strtoull(line.c_str() + 8, nullptr, 10);
    core_->run_cycle(cycle);
    SiteOutput out = core_->take_output();
    const std::uint64_t fired = out.fired;
    const std::uint64_t applied = out.applied;
    flush(std::move(out));
    const SiteCounters& c = core_->counters();
    driver_.write_line(
        "barrier-done cycle=" + std::to_string(cycle) +
        " fired=" + std::to_string(fired) +
        " applied=" + std::to_string(applied) +
        " pending=" + std::to_string(core_->pending()) +
        " inbox=" + std::to_string(core_->inbox_size()) +
        " halted=" + std::to_string(core_->halted() ? 1 : 0) +
        " facts=" + std::to_string(core_->wm().alive_count()) +
        " sent=" + std::to_string(c.sent) +
        " applied-total=" + std::to_string(c.applied) +
        " dup=" + std::to_string(c.dup) +
        " retries=" + std::to_string(c.retries) +
        " dropped=" + std::to_string(c.dropped) +
        " delayed=" + std::to_string(c.delayed) +
        " redials=" + std::to_string(c.redials) +
        " batches=" + std::to_string(c.batches) +
        " snapshots=" + std::to_string(c.snapshots) +
        " firings=" + std::to_string(c.firings));
  } else if (starts_with(line, "cluster-peers")) {
    // `cluster-peers 0=host:port 1=host:port ...` — rebroadcast after
    // every (re)join, so ports track respawned incarnations.
    std::size_t at = line.find(' ');
    while (at != std::string::npos) {
      const std::size_t end = line.find(' ', at + 1);
      const std::string tok = line.substr(
          at + 1, end == std::string::npos ? std::string::npos : end - at - 1);
      at = end;
      const std::size_t eq = tok.find('=');
      const std::size_t colon = tok.rfind(':');
      if (eq == std::string::npos || colon == std::string::npos ||
          colon < eq) {
        continue;
      }
      const unsigned idx =
          static_cast<unsigned>(std::strtoul(tok.c_str(), nullptr, 10));
      if (idx >= opt_.sites || idx == opt_.site_id) continue;
      Peer& p = peers_[idx];
      const std::string host = tok.substr(eq + 1, colon - eq - 1);
      const auto port = static_cast<std::uint16_t>(
          std::strtoul(tok.c_str() + colon + 1, nullptr, 10));
      if (host != p.host || port != p.port) {
        p.host = host;
        p.port = port;
        p.out.close();  // old incarnation's conn, if any, is dead anyway
      }
    }
  } else if (starts_with(line, "cc-dump")) {
    dump(driver_);
  } else if (starts_with(line, "cc-stop")) {
    driver_.write_line("ok cc-stop");
    stopping_ = true;
  }
}

void SiteRunner::handle_peer_line(unsigned from, const std::string& line) {
  if (!starts_with(line, "cc-batch")) return;
  try {
    const auto epoch =
        static_cast<std::uint32_t>(wire_field_u64(line, "epoch", 1));
    const std::string kind = wire_field_str(line, "kind");
    auto [tmpl, slots] = decode_fact_wire(
        from_hex(wire_field_str(line, "fact")), *program_.symbols,
        program_.schema);
    if (epoch > peers_[from].epoch_seen) peers_[from].epoch_seen = epoch;
    core_->deliver(from, epoch, wire_field_u64(line, "seq"),
                   {kind == "retract" ? ClusterOp::Kind::Retract
                                      : ClusterOp::Kind::Assert,
                    tmpl, std::move(slots)});
  } catch (const std::exception& e) {
    std::fprintf(stderr, "site %u: bad cc-batch from %u: %s\n", opt_.site_id,
                 from, e.what());
  }
}

void SiteRunner::handle_ack_line(unsigned to, const std::string& line) {
  if (!starts_with(line, "cc-ack")) return;
  core_->on_ack(to, static_cast<std::uint32_t>(wire_field_u64(line, "epoch")),
                parse_cc_ack(line));
}

void SiteRunner::ensure_peer_conn(unsigned to) {
  Peer& p = peers_[to];
  if (p.out.valid() || p.port == 0) return;
  std::string error;
  ++core_->counters().redials;
  const int fd = net::dial_tcp(p.host.empty() ? "127.0.0.1" : p.host, p.port,
                               2000, &error);
  if (fd < 0) return;  // peer down; backoff retries cover it
  net::LineConn conn(fd);
  conn.write_line("cc-hello from=" + std::to_string(opt_.site_id) +
                  " epoch=" + std::to_string(core_->epoch()));
  // Wait for the peer's verdict — but keep answering inbound hellos
  // meanwhile: at barrier 0 every site is inside this function dialing
  // someone, and only mutual service breaks the circular wait.
  const net::Deadline deadline = net::deadline_in(2000);
  std::vector<std::string> lines;
  std::vector<pollfd> pfds;
  for (;;) {
    process_handshakes();
    const bool alive = conn.read_lines(lines);
    if (!lines.empty()) break;
    if (!alive) return;
    pfds.assign(1, {conn.fd(), POLLIN, 0});
    handshake_pollfds(pfds);
    if (net::poll_until(pfds, deadline) <= 0) return;
  }
  const std::string& reply = lines.front();
  if (starts_with(reply, "err epoch-stale")) {
    // The peer has heard from a NEWER incarnation of this site id: we
    // are a zombie (e.g. resumed after a long stall past our own
    // replacement). Participating would fork the sequence streams.
    std::fprintf(stderr, "site %u: fenced by peer %u (epoch-stale)\n",
                 opt_.site_id, to);
    stopping_ = true;
    return;
  }
  if (!starts_with(reply, "ok cc-hello")) return;
  p.out = std::move(conn);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    handle_ack_line(to, lines[i]);
  }
}

void SiteRunner::flush(SiteOutput out) {
  // Durable first: the acks below promise the peers these records are
  // on disk.
  for (const SiteJournalWrite& w : out.journal) {
    if (w.snapshot) {
      journal_->rewrite_with_snapshot("site-" + std::to_string(opt_.site_id),
                                      program_text_, w.payload);
    } else {
      journal_->append(w.payload);
    }
  }
  // A lost ack only costs the peer a retransmit, which re-earns it.
  for (const SiteAck& ack : out.acks) {
    Peer& p = peers_[ack.to];
    if (p.in.valid()) p.in.write_line(format_cc_ack(ack.epoch, ack.seqs));
  }
  std::vector<bool> dialed(peers_.size(), false);
  for (const SiteSend& send : out.sends) {
    if (!dialed[send.to]) {
      ensure_peer_conn(send.to);
      dialed[send.to] = true;
    }
    Peer& p = peers_[send.to];
    const std::string line =
        "cc-batch from=" + std::to_string(opt_.site_id) +
        " epoch=" + std::to_string(send.epoch) +
        " seq=" + std::to_string(send.seq) + " kind=" +
        (send.op.kind == ClusterOp::Kind::Retract ? "retract" : "assert") +
        " fact=" +
        to_hex(encode_fact_wire(send.op.tmpl, send.op.slots,
                                *program_.symbols, program_.schema));
    if (!p.out.valid() || !p.out.write_line(line)) {
      ++core_->counters().dropped;  // dead conn: lost, retried later
    }
  }
  if (!out.printout.empty()) {
    std::cout << out.printout;
    std::cout.flush();
  }
}

void SiteRunner::dump(net::LineConn& to) {
  const WorkingMemory& wm = core_->wm();
  std::vector<std::string> lines;
  for (FactId id = 1; id <= wm.high_water(); ++id) {
    if (!wm.alive(id)) continue;
    const FactView fact = wm.view(id);
    lines.push_back("fact " +
                    to_hex(encode_fact_wire(fact.tmpl(), fact.copy_slots(),
                                            *program_.symbols,
                                            program_.schema)));
  }
  char fp[32];
  std::snprintf(fp, sizeof fp, "%016llx",
                static_cast<unsigned long long>(wm.content_fingerprint()));
  to.write_line("ok cc-dump n=" + std::to_string(lines.size()) +
                " fingerprint=" + fp);
  for (const std::string& line : lines) to.write_line(line);
}

}  // namespace parulel
