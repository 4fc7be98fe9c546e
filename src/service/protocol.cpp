#include "service/protocol.hpp"

#include <charconv>
#include <cstdio>
#include <sstream>
#include <vector>

#include "lang/printer.hpp"
#include "support/error.hpp"
#include "support/read_file.hpp"

namespace parulel::service {

namespace {

std::vector<std::string> tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  std::istringstream in{std::string(line)};
  std::string tok;
  while (in >> tok) {
    if (tok.front() == '#') break;  // comment to end of line
    tokens.push_back(std::move(tok));
  }
  return tokens;
}

/// int64 → double → interned symbol, in that order. Full-token parses
/// only: "12x" is a symbol, not the integer 12.
Value parse_value(const std::string& tok, SymbolTable& symbols) {
  std::int64_t i = 0;
  auto [ip, iec] = std::from_chars(tok.data(), tok.data() + tok.size(), i);
  if (iec == std::errc() && ip == tok.data() + tok.size()) {
    return Value::integer(i);
  }
  double d = 0.0;
  auto [dp, dec] = std::from_chars(tok.data(), tok.data() + tok.size(), d);
  if (dec == std::errc() && dp == tok.data() + tok.size()) {
    return Value::real(d);
  }
  return Value::symbol(symbols.intern(tok));
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

const char* submit_error(SubmitResult r) {
  return r == SubmitResult::QueueFull ? "queue-full" : "no-such-session";
}

}  // namespace

ServeProtocol::ServeProtocol(RuleService& service)
    : ServeProtocol(service, Options{}) {}

ServeProtocol::ServeProtocol(RuleService& service, Options options)
    : service_(service), options_(options) {}

ServeProtocol::~ServeProtocol() {
  for (auto& [name, client] : clients_) {
    service_.release_session(client.id);
  }
}

ServeProtocol::Client* ServeProtocol::find_client(const std::string& name) {
  auto it = clients_.find(name);
  return it == clients_.end() ? nullptr : &it->second;
}

void ServeProtocol::emit_error(std::string& out, const std::string& msg) {
  out += "err ";
  out += msg;
  out += '\n';
  ++errors_;
}

ServeProtocol::Status ServeProtocol::handle_line(std::string_view line,
                                                 std::string& out) {
  std::vector<std::string> tok = tokenize(line);
  if (tok.empty()) return Status::Ok;
  if (options_.echo) {
    out += "> ";
    out += line;
    out += '\n';
  }
  // Track errors emitted by this line so the return Status is accurate.
  const int errors_before = errors_;
  auto err = [&](const std::string& msg) { emit_error(out, msg); };

  // parulel/2 request-id prefix: `@N CMD ...`. Parsed up front so the
  // dedup window can answer a replay before anything executes.
  std::uint64_t req_id = 0;
  if (tok[0].front() == '@') {
    const std::string& t = tok[0];
    auto [p, ec] = std::from_chars(t.data() + 1, t.data() + t.size(), req_id);
    if (ec != std::errc() || p != t.data() + t.size() || req_id == 0) {
      err("bad request id: " + t);
      return Status::Error;
    }
    tok.erase(tok.begin());
    if (tok.empty()) {
      err("usage: @N CMD NAME ...");
      return Status::Error;
    }
  }
  const std::string& cmd = tok[0];
  std::ostringstream os;
  auto flush_ok = [&] { out += os.str(); };

  if (req_id != 0 && cmd != "assert" && cmd != "retract" && cmd != "run") {
    err("request id not allowed on: " + cmd);
    return Status::Error;
  }

  if (cmd == "quit") {
    out += "ok quit\n";
    return Status::Quit;
  }

  if (cmd == "hello") {
    // Versioned handshake. Bare `hello` answers with the current
    // revision; an exact match of a spoken revision is echoed BACK AS
    // REQUESTED (a parulel/1 script keeps its byte-identical responses);
    // anything else is a structured refusal naming what the server does
    // speak, so a future client can downgrade cleanly.
    if (tok.size() == 1) {
      out += "ok hello ";
      out += kProtocolVersion;
      out += '\n';
    } else if (tok.size() == 2 && (tok[1] == kProtocolVersion ||
                                   tok[1] == kProtocolVersionLegacy)) {
      out += "ok hello ";
      out += tok[1];
      out += '\n';
    } else if (tok.size() == 2) {
      err("unsupported protocol version: " + tok[1] + " (server speaks " +
          std::string(kProtocolVersion) + ", " +
          std::string(kProtocolVersionLegacy) + ")");
    } else {
      err("usage: hello [VERSION]");
    }
    return errors_ == errors_before ? Status::Ok : Status::Error;
  }

  if (cmd == "stats" && tok.size() == 1) {
    const ServiceStats s = service_.stats_snapshot();
    os << "ok service";
    for (const auto& f : obs::service_fields()) {
      os << ' ' << f.name << '=' << s.*f.member;
    }
    os << '\n';
    flush_ok();
    return Status::Ok;
  }

  if (cmd == "open") {
    if (tok.size() != 3) {
      err("usage: open NAME FILE");
      return Status::Error;
    }
    if (clients_.count(tok[1])) {
      err("session exists: " + tok[1]);
      return Status::Error;
    }
    std::string text;
    if (!read_file(tok[2], &text)) {
      err("cannot read: " + tok[2]);
      return Status::Error;
    }
    Client client;
    std::unique_ptr<Program> program;
    try {
      program = std::make_unique<Program>(parse_program(text));
    } catch (const ParseError& e) {
      err(std::string("parse: ") + e.what());
      return Status::Error;
    }
    if (service_.config().journal.enabled()) {
      // A journal-enabled server makes every opened session durable:
      // the service takes the program (recovery outlives us) and starts
      // the session's write-ahead journal.
      std::string why;
      client.id = service_.open_durable(tok[1], std::move(program),
                                        std::move(text), &why);
      if (client.id == 0) {
        err(why);
        return Status::Error;
      }
      client.prog = service_.durable_program(client.id);
      client.durable = true;
    } else {
      client.program = std::move(program);
      client.prog = client.program.get();
      client.id = service_.open_session(*client.program);
      if (client.id == 0) {
        err("service full");
        return Status::Error;
      }
    }
    os << "ok open " << tok[1] << " id=" << client.id << '\n';
    clients_.emplace(tok[1], std::move(client));
    flush_ok();
    return Status::Ok;
  }

  if (cmd == "resume") {
    if (tok.size() != 2) {
      err("usage: resume NAME");
      return Status::Error;
    }
    if (clients_.count(tok[1])) {
      err("session exists: " + tok[1]);
      return Status::Error;
    }
    std::string why;
    Client client;
    client.id = service_.resume_durable(tok[1], &why);
    if (client.id == 0) {
      err(why);
      return Status::Error;
    }
    client.prog = service_.durable_program(client.id);
    client.durable = true;
    DurableStatus st;
    service_.durable_status(client.id, &st);
    // `acked` is the highest request id this session ever acknowledged:
    // a resuming client MUST restart its id sequence above it, or fresh
    // commands would collide with the dedup window and replay stale
    // cached responses instead of executing.
    service_.with_session(client.id, [&](Session& s) {
      os << "ok resume " << tok[1] << " id=" << client.id
         << " facts=" << s.wm().alive_count()
         << " committed=" << st.last_committed
         << " acked=" << st.last_req
         << " fingerprint=" << hex64(s.fingerprint()) << '\n';
    });
    clients_.emplace(tok[1], std::move(client));
    flush_ok();
    return Status::Ok;
  }

  // Everything below addresses an existing session.
  if (cmd != "assert" && cmd != "retract" && cmd != "run" &&
      cmd != "query" && cmd != "snapshot" && cmd != "restore" &&
      cmd != "stats" && cmd != "close") {
    err("unknown command: " + cmd);
    return Status::Error;
  }
  if (tok.size() < 2) {
    err("usage: " + cmd + " NAME ...");
    return Status::Error;
  }
  Client* client = find_client(tok[1]);
  if (!client) {
    err("no session: " + tok[1]);
    return Status::Error;
  }

  if (req_id != 0) {
    // Exactly-once gate: a replayed id answers from the dedup window
    // with the ORIGINAL response bytes, before anything executes.
    std::string cached;
    switch (service_.dedup_check(client->id, req_id, &cached)) {
      case DedupOutcome::NotDurable:
        err("request ids require a durable session: " + tok[1]);
        return Status::Error;
      case DedupOutcome::Replay:
        out += cached;
        return Status::Ok;
      case DedupOutcome::Stale:
        err("stale request id: @" + std::to_string(req_id));
        return Status::Error;
      case DedupOutcome::Fresh:
        break;
    }
  }

  if (cmd == "assert") {
    if (tok.size() < 3) {
      err("usage: assert NAME TMPL V...");
      return Status::Error;
    }
    SymbolTable& symbols = *client->prog->symbols;
    const auto tmpl = client->prog->schema.find(symbols.intern(tok[2]));
    if (!tmpl) {
      err("no template: " + tok[2]);
      return Status::Error;
    }
    const auto& def = client->prog->schema.at(*tmpl);
    if (tok.size() - 3 != static_cast<std::size_t>(def.arity())) {
      err("arity: " + tok[2] + " takes " + std::to_string(def.arity()) +
          " values");
      return Status::Error;
    }
    std::vector<Value> slots;
    slots.reserve(tok.size() - 3);
    for (std::size_t i = 3; i < tok.size(); ++i) {
      slots.push_back(parse_value(tok[i], symbols));
    }
    const SubmitResult r = service_.submit(
        client->id, Request::make_assert(*tmpl, std::move(slots)));
    if (r != SubmitResult::Accepted) {
      err(submit_error(r));
      return Status::Error;
    }
    os << "ok assert depth=" << service_.queue_depth(client->id) << '\n';
    if (req_id != 0) service_.dedup_record(client->id, req_id, os.str());
  } else if (cmd == "retract") {
    if (tok.size() != 3) {
      err("usage: retract NAME FACTID");
      return Status::Error;
    }
    std::uint64_t id = 0;
    auto [p, ec] =
        std::from_chars(tok[2].data(), tok[2].data() + tok[2].size(), id);
    if (ec != std::errc() || p != tok[2].data() + tok[2].size()) {
      err("bad fact id: " + tok[2]);
      return Status::Error;
    }
    const SubmitResult r =
        service_.submit(client->id, Request::make_retract(FactId{id}));
    if (r != SubmitResult::Accepted) {
      err(submit_error(r));
      return Status::Error;
    }
    os << "ok retract depth=" << service_.queue_depth(client->id) << '\n';
    if (req_id != 0) service_.dedup_record(client->id, req_id, os.str());
  } else if (cmd == "run") {
    service_.submit(client->id, Request::make_run());
    service_.flush(client->id);
    std::uint64_t committed = 0;
    if (client->durable) {
      // The response is built BEFORE the journal write because its
      // exact bytes ride the batch record as the run's cached ack.
      DurableStatus st;
      service_.durable_status(client->id, &st);
      committed = std::max(st.last_req, req_id);
    }
    service_.with_session(client->id, [&](Session& s) {
      const RunStats& run = s.last_run();
      os << "ok run cycles=" << run.cycles
         << " firings=" << run.total_firings
         << " facts=" << s.wm().alive_count()
         << " termination=" << termination_name(run.termination)
         << " fingerprint=" << hex64(s.fingerprint());
      if (client->durable) os << " committed=" << committed;
      os << '\n';
    });
    if (client->durable) {
      // Exactly-once ordering: the batch record must be durable before
      // the `ok` leaves the process. On journal failure the response is
      // DISCARDED — the state applied in memory but is not durable, so
      // the client must see a retryable error, never an ack.
      std::string why;
      if (!service_.durable_commit(client->id, req_id, os.str(), &why)) {
        if (why.rfind("journal-io: ", 0) == 0) {
          // I/O failure (ENOSPC, dying disk): NOT retryable — the
          // service quarantined the session; the name answers err
          // until an operator intervenes.
          err(why);
        } else {
          err("journal: " + why);
        }
        return Status::Error;
      }
    }
  } else if (cmd == "query") {
    if (tok.size() < 3) {
      err("usage: query NAME TMPL [SLOT=V]...");
      return Status::Error;
    }
    bool bad = false;
    service_.with_session(client->id, [&](Session& s) {
      const auto tmpl = s.find_template(tok[2]);
      if (!tmpl) {
        err("no template: " + tok[2]);
        bad = true;
        return;
      }
      SymbolTable& symbols = *client->prog->symbols;
      std::vector<Session::SlotFilter> filters;
      for (std::size_t i = 3; i < tok.size(); ++i) {
        const auto eq = tok[i].find('=');
        if (eq == std::string::npos) {
          err("bad filter (want SLOT=V): " + tok[i]);
          bad = true;
          return;
        }
        const auto slot = s.find_slot(*tmpl, tok[i].substr(0, eq));
        if (!slot) {
          err("no slot: " + tok[i].substr(0, eq));
          bad = true;
          return;
        }
        filters.push_back(
            {*slot, parse_value(tok[i].substr(eq + 1), symbols)});
      }
      const std::vector<FactId> hits = s.query(*tmpl, filters);
      os << "ok query n=" << hits.size() << '\n';
      for (FactId id : hits) {
        os << "fact " << id << ' '
           << print_fact(s.wm().view(id), s.program().schema, symbols)
           << '\n';
      }
    });
    if (bad) return Status::Error;
  } else if (cmd == "snapshot") {
    service_.with_session(client->id, [&](Session& s) {
      client->snapshot = s.snapshot();
      os << "ok snapshot facts=" << client->snapshot->facts.size() << '\n';
    });
  } else if (cmd == "restore") {
    if (client->durable) {
      // SiteCheckpoint restore renumbers FactIds — it would diverge the
      // live state from what journal replay reproduces after a crash.
      err("restore is not supported on durable sessions: " + tok[1]);
      return Status::Error;
    }
    if (!client->snapshot) {
      err("no snapshot for: " + tok[1]);
      return Status::Error;
    }
    service_.with_session(client->id, [&](Session& s) {
      s.restore(*client->snapshot);
      os << "ok restore facts=" << client->snapshot->facts.size()
         << " rebuilds=" << s.counters().rebuilds << '\n';
    });
  } else if (cmd == "stats") {
    service_.with_session(client->id, [&](Session& s) {
      const SessionCounters& c = s.counters();
      os << "ok session asserts=" << c.asserts
         << " retracts=" << c.retracts << " queries=" << c.queries
         << " quota_rejected=" << c.quota_rejected
         << " batches=" << c.batches << " cycles=" << c.cycles
         << " firings=" << c.firings << " rebuilds=" << c.rebuilds
         << " external_deltas=" << s.match_stats().external_deltas << '\n';
    });
  } else {  // close
    service_.close_session(client->id);
    clients_.erase(tok[1]);
    os << "ok close " << tok[1] << '\n';
  }
  flush_ok();
  return errors_ == errors_before ? Status::Ok : Status::Error;
}

}  // namespace parulel::service
