// perfbench_trace: the benchmark's in-process tracer. It links libparulel
// and times the calls it makes into each layer's public functions; it is
// also the orderbook load generator. Every subcommand prints one JSON
// object on stdout.
//
//   solve FILE
//       parse_program, ParallelEngine construction + assert_initial_facts,
//       and each step() until quiescence at the default thread count, with
//       the engine, matcher and pool counters.
//   orderbook --program FILE --windows FILE --count N --dir DIR
//       replays one recorded request stream at four levels (Session,
//       RuleService, ServeProtocol, TCP); the RuleService level runs with
//       the journal off, fsync-off and fsync-on.
//   cluster --program FILE --site-bin FILE --dir DIR --facts FILE
//       ClusterDriver::run on 3 sites with a timestamped progress log, then
//       the wire.hpp hex codec over the solve's facts.
//   load --port-file FILE --program FILE --windows FILE --open N --rate R
//        --out FILE [--blocks N] [--setup-only]
//        [--placement mixed|local|forwarded]
//       the orderbook load generator: two connections, an open loop over
//       the first N windows at a fixed offered rate, then a pipelined
//       closed loop over the rest in N blocks.
//   pool-race
//       up to 10 rounds of a fresh 4-thread pool running 200000 back-to-
//       back 8-index parallel_for batches; exits 3 when no batch completes
//       for 5 s (a hang).
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "parulel.hpp"
#include "distrib/cluster_driver.hpp"
#include "distrib/wire.hpp"

namespace {

using namespace parulel;
using Clock = std::chrono::steady_clock;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

[[noreturn]] void die(const std::string& msg) {
  std::cerr << "perfbench_trace: " << msg << "\n";
  std::exit(2);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) die("cannot read " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// `--flag value` lookup over argv[2..].
struct Args {
  std::map<std::string, std::string> kv;
  std::vector<std::string> positional;
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      const std::string a = argv[i];
      if (a.rfind("--", 0) == 0) {
        if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
          kv[a] = argv[++i];
        } else {
          kv[a] = "1";
        }
      } else {
        positional.push_back(a);
      }
    }
  }
  std::string str(const std::string& k) const {
    const auto it = kv.find(k);
    if (it == kv.end()) die("missing " + k);
    return it->second;
  }
  std::uint64_t num(const std::string& k, std::uint64_t dflt) const {
    const auto it = kv.find(k);
    return it == kv.end() ? dflt : std::stoull(it->second);
  }
  double real(const std::string& k) const { return std::stod(str(k)); }
  bool has(const std::string& k) const { return kv.count(k) != 0; }
};

/// Minimal JSON object writer: integers, strings, nested raw values.
class Json {
 public:
  Json& u64(const std::string& k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  Json& str(const std::string& k, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    return raw(k, q + "\"");
  }
  Json& raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ");
    body_ += "\"" + k + "\": " + v;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string u64_list(const std::vector<std::uint64_t>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) s += ',';
    s += std::to_string(v[i]);
  }
  return s + "]";
}

std::uint64_t vm_hwm_bytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoull(line.substr(6)) * 1024;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------
// solve

int cmd_solve(const Args& args) {
  const std::uint64_t t_start = now_ns();
  const std::string text = read_file(args.positional.at(0));
  const std::uint64_t t_read = now_ns();
  const Program program = parse_program(text);
  const std::uint64_t t_parsed = now_ns();

  ThreadPool pool(ThreadPool::default_threads());
  EngineConfig cfg;
  cfg.pool = &pool;
  cfg.matcher = MatcherKind::ParallelTreat;
  cfg.trace_cycles = true;
  cfg.max_cycles = 1'000'000;
  ParallelEngine engine(program, cfg);
  engine.assert_initial_facts();
  const std::uint64_t t_loaded = now_ns();

  RunStats stats;
  std::uint64_t steps = 0;
  while (stats.cycles < cfg.max_cycles) {
    ++steps;
    if (!engine.step(stats)) break;
  }
  const std::uint64_t t_ran = now_ns();

  std::uint64_t dup_asserts = 0;
  for (const CycleStats& c : stats.per_cycle) dup_asserts += c.duplicate_asserts;
  const MatchStats& ms = engine.matcher().stats();
  const PoolStatsSnapshot ps = pool.stats();
  Json j;
  j.u64("read_ns", t_read - t_start)
      .u64("parse_ns", t_parsed - t_read)
      .u64("load_ns", t_loaded - t_parsed)
      .u64("step_ns", t_ran - t_loaded)
      .u64("steps", steps)
      .u64("cycles", stats.cycles)
      .u64("quiescent", stats.quiescent ? 1 : 0)
      .u64("firings", stats.total_firings)
      .u64("redactions", stats.total_redactions)
      .u64("asserts", stats.total_asserts)
      .u64("retracts", stats.total_retracts)
      .u64("dup_asserts", dup_asserts)
      .u64("match_ns", stats.match_ns)
      .u64("redact_ns", stats.redact_ns)
      .u64("fire_ns", stats.fire_ns)
      .u64("merge_ns", stats.merge_ns)
      .u64("alpha_upkeep_ns", ms.alpha_upkeep_ns)
      .u64("insts_derived", ms.insts_derived)
      .u64("pool_threads", pool.thread_count())
      .u64("pool_busy_ns", ps.busy_ns)
      .u64("pool_batches", ps.batches)
      .u64("alive_facts", engine.wm().alive_count())
      .u64("vm_hwm_bytes", vm_hwm_bytes())
      .u64("in_process_ns", now_ns() - t_start);
  std::cout << j.text() << std::endl;
  return 0;
}

// ---------------------------------------------------------------------
// orderbook streams

struct Order {
  std::string side, sym;
  std::int64_t id = 0, px = 0, qty = 0;
};
struct Window {
  unsigned book = 0;
  std::vector<Order> orders;
};

/// One window per line: `BOOK SIDE ID SYM PX QTY SIDE ID ...`.
std::vector<Window> read_windows(const std::string& path) {
  std::vector<Window> out;
  std::istringstream in(read_file(path));
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    Window w;
    if (!(ls >> w.book)) continue;
    Order o;
    while (ls >> o.side >> o.id >> o.sym >> o.px >> o.qty) w.orders.push_back(o);
    out.push_back(std::move(w));
  }
  return out;
}

/// Four books on two shards. Connection k drives books 2k and 2k+1. In
/// the default "mixed" placement book 2k is homed on shard k (local) and
/// book 2k+1 on shard 1-k (forwarded); "local" and "forwarded" home both
/// books of a connection on its own or on the other shard.
std::array<std::string, 4> book_names(const std::string& placement = "mixed") {
  std::array<std::string, 4> names;
  for (unsigned b = 0; b < 4; ++b) {
    const unsigned conn = b / 2;
    const bool local = placement == "local" ||
                       (placement == "mixed" && b % 2 == 0);
    const unsigned home = local ? conn : 1 - conn;
    for (unsigned j = 0;; ++j) {
      std::string name = "book" + std::to_string(b) + "-" + std::to_string(j);
      if (service::shard_for_name(name, 2) == home) {
        names[b] = name;
        break;
      }
    }
  }
  return names;
}

std::string assert_line(const std::string& book, const Order& o) {
  return "assert " + book + " " + o.side + " " + std::to_string(o.id) + " " +
         o.sym + " " + std::to_string(o.px) + " " + std::to_string(o.qty);
}

/// The request lines of one window: retracts of the trades read by the
/// book's previous window, the orders, run, and the trade query.
std::vector<std::string> window_lines(const std::string& book, const Window& w,
                                      const std::vector<std::uint64_t>& retracts) {
  std::vector<std::string> lines;
  for (std::uint64_t id : retracts) {
    lines.push_back("retract " + book + " " + std::to_string(id));
  }
  for (const Order& o : w.orders) lines.push_back(assert_line(book, o));
  lines.push_back("run " + book);
  lines.push_back("query " + book + " trade");
  return lines;
}

std::uint64_t fact_id_of(const std::string& detail) {
  // "fact <id> (trade ...)"
  return std::stoull(detail.substr(5, detail.find(' ', 5) - 5));
}

std::string fingerprint_of(const std::string& run_status) {
  const auto at = run_status.find("fingerprint=");
  if (at == std::string::npos) return "";
  const auto end = run_status.find(' ', at);
  return run_status.substr(at + 12, end == std::string::npos
                                        ? std::string::npos
                                        : end - at - 12);
}

std::string hex_fp(std::uint64_t fp) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

// ---------------------------------------------------------------------
// orderbook: the traced four-level replay

struct LevelTimes {
  std::uint64_t total_ns = 0;  ///< summed per-window time at this level
  std::uint64_t wall_ns = 0;   ///< the whole replay, loop included
  std::array<std::string, 4> fps;
};

int cmd_orderbook(const Args& args) {
  const std::string program_path = args.str("--program");
  const std::string text = read_file(program_path);
  std::vector<Window> windows = read_windows(args.str("--windows"));
  windows.resize(std::min<std::size_t>(windows.size(), args.num("--count", 400)));
  const std::filesystem::path dir = args.str("--dir");
  const auto names = book_names();
  std::uint64_t orders = 0, requests = 0;

  // Level 1: Session. It also records the stream: which fact ids each
  // window retracts (the trades its book's previous window read).
  std::vector<std::vector<std::uint64_t>> retracts(windows.size());
  LevelTimes l1;
  std::uint64_t run_ns = 0, fold_ns = 0, redact_ns = 0, firings = 0,
                redactions = 0;
  {
    std::vector<std::unique_ptr<Program>> programs;
    std::vector<std::unique_ptr<service::Session>> sessions;
    for (unsigned b = 0; b < 4; ++b) {
      programs.push_back(std::make_unique<Program>(parse_program(text)));
      service::SessionConfig sc;
      sc.threads = 1;
      sessions.push_back(std::make_unique<service::Session>(*programs[b], sc));
    }
    std::array<std::vector<std::uint64_t>, 4> pending;
    const std::uint64_t w0 = now_ns();
    for (std::size_t i = 0; i < windows.size(); ++i) {
      const Window& w = windows[i];
      service::Session& s = *sessions[w.book];
      const Program& p = *programs[w.book];
      retracts[i] = pending[w.book];
      orders += w.orders.size();
      requests += w.orders.size() + retracts[i].size() + 2;
      const std::uint64_t t0 = now_ns();
      for (std::uint64_t id : retracts[i]) s.retract(FactId{id});
      for (const Order& o : w.orders) {
        const TemplateId tmpl = *s.find_template(o.side);
        s.assert_fact(tmpl, {Value::integer(o.id),
                             Value::symbol(p.symbols->intern(o.sym)),
                             Value::integer(o.px), Value::integer(o.qty)});
      }
      const std::uint64_t r0 = now_ns();
      const RunStats rs = s.run_to_quiescence();
      const std::uint64_t r1 = now_ns();
      run_ns += r1 - r0;
      fold_ns += rs.wall_ns - (rs.match_ns + rs.redact_ns + rs.fire_ns +
                               rs.merge_ns);
      redact_ns += rs.redact_ns;
      firings += rs.total_firings;
      redactions += rs.total_redactions;
      pending[w.book].clear();
      for (FactId id : s.query(*s.find_template("trade"), {})) {
        pending[w.book].push_back(static_cast<std::uint64_t>(id));
      }
      l1.total_ns += now_ns() - t0;
    }
    l1.wall_ns = now_ns() - w0;
    for (unsigned b = 0; b < 4; ++b) l1.fps[b] = hex_fp(sessions[b]->fingerprint());
  }

  // Level 2: RuleService, synchronous, 1-thread pool.
  auto service_level = [&](const std::string& journal, ServiceStats* sstats,
                           JournalStats* jstats) {
    LevelTimes lt;
    service::ServiceConfig cfg;
    cfg.pool_threads = 1;
    if (journal != "off") {
      cfg.journal.dir = (dir / ("service-" + journal)).string();
      std::filesystem::create_directories(cfg.journal.dir);
      cfg.journal.fsync = journal == "fsync-on";
    }
    service::RuleService svc(cfg);
    std::vector<std::unique_ptr<Program>> plain;
    std::array<service::SessionId, 4> ids{};
    for (unsigned b = 0; b < 4; ++b) {
      auto program = std::make_unique<Program>(parse_program(text));
      if (cfg.journal.enabled()) {
        std::string err;
        ids[b] = svc.open_durable(names[b], std::move(program), text, &err);
        if (ids[b] == 0) die("open_durable: " + err);
      } else {
        ids[b] = svc.open_session(*program);
        plain.push_back(std::move(program));
      }
    }
    const std::uint64_t w0 = now_ns();
    for (std::size_t i = 0; i < windows.size(); ++i) {
      const Window& w = windows[i];
      const service::SessionId id = ids[w.book];
      const std::uint64_t t0 = now_ns();
      SymbolTable* symbols = nullptr;
      svc.with_session(id, [&](service::Session& s) {
        symbols = s.program().symbols.get();
      });
      for (std::uint64_t f : retracts[i]) {
        svc.submit(id, service::Request::make_retract(FactId{f}));
      }
      for (const Order& o : w.orders) {
        TemplateId tmpl = kInvalidTemplate;
        svc.with_session(id, [&](service::Session& s) {
          tmpl = *s.find_template(o.side);
        });
        svc.submit(id, service::Request::make_assert(
                           tmpl, {Value::integer(o.id),
                                  Value::symbol(symbols->intern(o.sym)),
                                  Value::integer(o.px), Value::integer(o.qty)}));
      }
      svc.submit(id, service::Request::make_run());
      svc.flush(id);
      if (cfg.journal.enabled()) {
        std::string err;
        if (!svc.durable_commit(id, 0, "ok run\n", &err)) die("commit: " + err);
      }
      svc.with_session(id, [&](service::Session& s) {
        s.query(*s.find_template("trade"), {});
      });
      lt.total_ns += now_ns() - t0;
    }
    lt.wall_ns = now_ns() - w0;
    for (unsigned b = 0; b < 4; ++b) {
      svc.with_session(ids[b], [&](service::Session& s) {
        lt.fps[b] = hex_fp(s.fingerprint());
      });
    }
    if (sstats) *sstats = svc.stats_snapshot();
    if (jstats) *jstats = svc.journal_stats_snapshot();
    return lt;
  };
  ServiceStats sstats;
  JournalStats jstats;
  const LevelTimes l2_off = service_level("off", &sstats, nullptr);
  const LevelTimes l2_nosync = service_level("fsync-off", nullptr, nullptr);
  const LevelTimes l2_sync = service_level("fsync-on", nullptr, &jstats);

  // The same stream as protocol lines.
  std::vector<std::vector<std::string>> lines(windows.size());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    lines[i] = window_lines(names[windows[i].book], windows[i], retracts[i]);
  }

  // Level 3: ServeProtocol over a fsync-off RuleService.
  LevelTimes l3;
  {
    service::ServiceConfig cfg;
    cfg.pool_threads = 1;
    cfg.journal.dir = (dir / "protocol").string();
    cfg.journal.fsync = false;
    std::filesystem::create_directories(cfg.journal.dir);
    service::RuleService svc(cfg);
    service::ServeProtocol proto(svc);
    std::string out;
    for (unsigned b = 0; b < 4; ++b) {
      proto.handle_line("open " + names[b] + " " + program_path, out);
    }
    out.clear();
    const std::uint64_t w0 = now_ns();
    std::array<std::string, 4> last_run;
    for (std::size_t i = 0; i < windows.size(); ++i) {
      const std::uint64_t t0 = now_ns();
      for (const std::string& line : lines[i]) {
        out.clear();
        proto.handle_line(line, out);
        if (line.rfind("run ", 0) == 0) last_run[windows[i].book] = out;
      }
      l3.total_ns += now_ns() - t0;
    }
    l3.wall_ns = now_ns() - w0;
    for (unsigned b = 0; b < 4; ++b) l3.fps[b] = fingerprint_of(last_run[b]);
    if (proto.errors() != 0) die("protocol level answered err");
  }

  // Level 4: TCP, an in-process 2-shard NetServer (fsync-off journal),
  // two connections dialled in order so connection k lands on shard k.
  // Run twice: per-window timers (traced) and one overall timer.
  auto tcp_level = [&](bool per_window, std::vector<NetStats>* shard_stats,
                       const std::string& sub) {
    LevelTimes lt;
    net::NetServerConfig cfg;
    cfg.shards = 2;
    cfg.service.pool_threads = 1;
    cfg.service.journal.dir = (dir / sub).string();
    cfg.service.journal.fsync = false;
    std::filesystem::create_directories(cfg.service.journal.dir);
    net::NetServer server(cfg);
    if (!server.start()) die("net server: " + server.error());
    std::thread loop([&] { server.run(); });
    std::array<net::NetClient, 2> conns;
    for (auto& c : conns) {
      if (!c.connect("127.0.0.1", server.port())) die("connect: " + c.error());
    }
    net::Response r;
    for (unsigned b = 0; b < 4; ++b) {
      if (!conns[b / 2].request("open " + names[b] + " " + program_path, r) ||
          !r.ok()) {
        die("open: " + r.status);
      }
    }
    std::array<std::string, 4> last_run;
    std::uint64_t errors = 0;
    const std::uint64_t w0 = now_ns();
    for (std::size_t i = 0; i < windows.size(); ++i) {
      const unsigned book = windows[i].book;
      net::NetClient& c = conns[book / 2];
      std::string batch;
      for (std::size_t k = 0; k < lines[i].size(); ++k) {
        if (k) batch += '\n';
        batch += lines[i][k];
      }
      const std::uint64_t t0 = per_window ? now_ns() : 0;
      if (!c.send_line(batch)) die("send: " + c.error());
      for (const std::string& line : lines[i]) {
        if (!c.read_response(r)) die("read: " + c.error());
        if (!r.ok()) ++errors;
        if (line.rfind("run ", 0) == 0) last_run[book] = r.status;
      }
      if (per_window) lt.total_ns += now_ns() - t0;
    }
    lt.wall_ns = now_ns() - w0;
    for (unsigned b = 0; b < 4; ++b) lt.fps[b] = fingerprint_of(last_run[b]);
    for (auto& c : conns) c.close();
    server.stop();
    loop.join();
    if (shard_stats) *shard_stats = server.shard_stats();
    if (errors != 0) die("tcp level answered err");
    return lt;
  };
  std::vector<NetStats> shards;
  const LevelTimes l4 = tcp_level(true, &shards, "tcp");
  const LevelTimes l4_untraced = tcp_level(false, nullptr, "tcp-untraced");

  NetStats net_sum;
  std::uint64_t busy_max = 0;
  for (const NetStats& s : shards) {
    net_sum.lines_in += s.lines_in;
    net_sum.forwarded += s.forwarded;
    net_sum.bytes_in += s.bytes_in;
    net_sum.bytes_out += s.bytes_out;
    busy_max = std::max(busy_max, s.busy_ns);
  }

  auto level = [](const LevelTimes& lt) {
    std::string fps = "[";
    for (unsigned b = 0; b < 4; ++b) {
      fps += std::string(b ? "," : "") + "\"" + lt.fps[b] + "\"";
    }
    return Json()
        .u64("total_ns", lt.total_ns)
        .u64("wall_ns", lt.wall_ns)
        .raw("fingerprints", fps + "]")
        .text();
  };
  Json j;
  j.u64("windows", windows.size())
      .u64("orders", orders)
      .u64("requests", requests)
      .u64("session_run_ns", run_ns)
      .u64("external_fold_ns", fold_ns)
      .u64("redact_ns", redact_ns)
      .u64("firings", firings)
      .u64("redactions", redactions)
      .raw("session", level(l1))
      .raw("service_off", level(l2_off))
      .raw("service_fsync_off", level(l2_nosync))
      .raw("service_fsync_on", level(l2_sync))
      .raw("protocol", level(l3))
      .raw("tcp", level(l4))
      .raw("tcp_untraced", level(l4_untraced))
      .u64("service_batches", sstats.batches)
      .u64("service_batched_ops", sstats.batched_ops)
      .u64("journal_bytes", jstats.bytes_written)
      .u64("journal_fsyncs", jstats.fsyncs)
      .u64("net_lines_in", net_sum.lines_in)
      .u64("net_forwarded", net_sum.forwarded)
      .u64("net_bytes", net_sum.bytes_in + net_sum.bytes_out)
      .u64("net_shard_busy_max_ns", busy_max);
  std::cout << j.text() << std::endl;
  return 0;
}

// ---------------------------------------------------------------------
// cluster

/// An ostream buffer that stamps each completed line with now_ns().
class StampedLines : public std::streambuf {
 public:
  std::vector<std::pair<std::uint64_t, std::string>> lines;

 protected:
  int overflow(int c) override {
    if (c == '\n') {
      lines.emplace_back(now_ns(), cur_);
      cur_.clear();
    } else if (c != EOF) {
      cur_ += static_cast<char>(c);
    }
    return c;
  }

 private:
  std::string cur_;
};

int cmd_cluster(const Args& args) {
  const std::uint64_t t_start = now_ns();
  const std::string program_path = args.str("--program");
  const std::string text = read_file(program_path);
  const Program program = parse_program(text);
  const std::uint64_t t_parsed = now_ns();

  StampedLines log_buf;
  std::ostream log(&log_buf);
  ClusterConfig cfg;
  cfg.sites = 3;
  cfg.program_path = program_path;
  cfg.site_bin = args.str("--site-bin");
  cfg.journal_dir = args.str("--dir");
  cfg.partition_spec = "path=from";
  cfg.log = &log;
  const std::uint64_t t_run = now_ns();
  ClusterOutcome out;
  {
    ClusterDriver driver(program, cfg);
    out = driver.run();
  }
  const std::uint64_t t_done = now_ns();
  std::uint64_t t_joined = t_run;
  for (const auto& [t, line] : log_buf.lines) {
    if (line.find(" joined") != std::string::npos) t_joined = t;
  }
  std::uint64_t wal_bytes = 0;
  for (const auto& e :
       std::filesystem::recursive_directory_iterator(cfg.journal_dir)) {
    if (e.is_regular_file()) wal_bytes += e.file_size();
  }

  // The hex codec over the solve's facts: `TEMPLATE A B` per line.
  SymbolTable& symbols = *program.symbols;
  std::vector<ClusterOp> ops;
  {
    std::istringstream in(read_file(args.str("--facts")));
    std::string tmpl;
    std::int64_t a = 0, b = 0;
    while (in >> tmpl >> a >> b) {
      ClusterOp op;
      op.tmpl = *program.schema.find(symbols.intern(tmpl));
      op.slots = {Value::integer(a), Value::integer(b)};
      ops.push_back(std::move(op));
    }
  }
  const std::uint64_t c0 = now_ns();
  std::uint64_t mismatches = 0;
  for (const ClusterOp& op : ops) {
    const std::string hex = encode_op_hex(op, symbols, program.schema);
    const ClusterOp back = decode_op_hex(hex, symbols, program.schema);
    if (back.tmpl != op.tmpl || back.slots != op.slots) ++mismatches;
  }
  const std::uint64_t codec_ns = now_ns() - c0;

  Json j;
  j.u64("parse_ns", t_parsed - t_start)
      .u64("run_ns", t_done - t_run)
      .u64("join_ns", t_joined - t_run)
      .u64("barriers", out.stats.barriers)
      .u64("cycles", out.cycles)
      .u64("quiescent", out.quiescent ? 1 : 0)
      .u64("facts", out.facts)
      .str("fingerprint", hex_fp(out.fingerprint))
      .u64("sent", out.stats.sent)
      .u64("retries", out.stats.retries)
      .u64("wal_bytes", wal_bytes)
      .u64("codec_facts", ops.size())
      .u64("codec_ns", codec_ns)
      .u64("codec_mismatches", mismatches)
      .u64("in_process_ns", now_ns() - t_start);
  std::cout << j.text() << std::endl;
  return 0;
}

// ---------------------------------------------------------------------
// load: the orderbook load generator

struct Trade {
  std::string book, line;
};

/// One connection's share of the load: its two books' windows in order.
struct ConnLoad {
  unsigned index = 0;
  net::NetClient client;
  std::vector<std::size_t> windows;  ///< indices into the window list
  std::array<std::vector<std::uint64_t>, 2> pending;  ///< trade ids to retract
  std::array<std::string, 2> fingerprint;
  std::vector<Trade> trades;
  std::vector<std::string> resting;
  std::uint64_t requests = 0, errors = 0, matched = 0;
  std::string first_error;
  bool broken = false;
  bool counting = false;  ///< count matched orders (closed loop only)
};

class LoadGen {
 public:
  LoadGen(std::vector<Window> windows, std::array<std::string, 4> names)
      : windows_(std::move(windows)), names_(std::move(names)) {}

  /// Send window `i`'s lines on its connection without waiting.
  void send(ConnLoad& c, std::size_t i) {
    const Window& w = windows_[i];
    const unsigned slot = w.book % 2;
    const auto lines = window_lines(names_[w.book], w, c.pending[slot]);
    c.pending[slot].clear();
    std::string batch;
    for (std::size_t k = 0; k < lines.size(); ++k) {
      if (k) batch += '\n';
      batch += lines[k];
    }
    c.requests += lines.size();
    in_flight_[i] = lines.size();
    if (!c.broken && !c.client.send_line(batch)) fail(c, c.client.error());
  }

  /// Read window `i`'s responses. Returns the time the last one arrived.
  std::uint64_t receive(ConnLoad& c, std::size_t i) {
    const Window& w = windows_[i];
    const unsigned slot = w.book % 2;
    const std::size_t n = in_flight_[i];
    net::Response r;
    for (std::size_t k = 0; k < n; ++k) {
      if (c.broken) {
        ++c.errors;
        continue;
      }
      if (!c.client.read_response(r)) {
        fail(c, c.client.error());
        ++c.errors;
        continue;
      }
      if (!r.ok()) {
        ++c.errors;
        if (c.first_error.empty()) c.first_error = r.status;
        continue;
      }
      if (k + 2 == n) c.fingerprint[slot] = fingerprint_of(r.status);
      if (k + 1 == n) {
        for (const std::string& d : r.details) {
          c.pending[slot].push_back(fact_id_of(d));
          c.trades.push_back({names_[w.book], d});
          if (c.counting) c.matched += 2;
        }
      }
    }
    return now_ns();
  }

  void fail(ConnLoad& c, const std::string& why) {
    if (c.first_error.empty()) c.first_error = why;
    c.broken = true;
  }

  /// Open loop: window i is due at start + i/rate; latency runs from the
  /// due time to the window's last ack. Results land at index i.
  void open_loop(ConnLoad& c, std::size_t count, std::uint64_t start_ns,
                 double rate) {
    for (std::size_t i : c.windows) {
      if (i >= count) break;
      const std::uint64_t due =
          start_ns + static_cast<std::uint64_t>(static_cast<double>(i) * 1e9 / rate);
      std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(due)));
      const std::uint64_t sent = now_ns();
      lateness_ns_[i] = sent > due ? sent - due : 0;
      send(c, i);
      latency_ns_[i] = receive(c, i) - due;
    }
  }

  /// Closed loop over windows [from, to): both of the connection's books
  /// in flight at once; a book's next window goes out as soon as its
  /// previous one is read.
  void closed_loop(ConnLoad& c, std::size_t from, std::size_t to) {
    std::vector<std::size_t> mine;
    for (std::size_t i : c.windows) {
      if (i >= from && i < to) mine.push_back(i);
    }
    c.counting = true;
    std::size_t next = 0, done = 0;
    std::vector<std::size_t> flight;
    while (next < mine.size() && flight.size() < 2) {
      send(c, mine[next]);
      flight.push_back(mine[next++]);
    }
    while (done < mine.size()) {
      const std::size_t i = flight.front();
      flight.erase(flight.begin());
      receive(c, i);
      ++done;
      if (next < mine.size()) {
        send(c, mine[next]);
        flight.push_back(mine[next++]);
      }
    }
  }

  void final_reads(ConnLoad& c) {
    net::Response r;
    for (unsigned slot = 0; slot < 2; ++slot) {
      const std::string& book = names_[2 * c.index + slot];
      for (const char* side : {"buy", "sell"}) {
        ++c.requests;
        if (c.broken || !c.client.request("query " + book + " " + side, r) ||
            !r.ok()) {
          ++c.errors;
          continue;
        }
        for (const std::string& d : r.details) c.resting.push_back(book + " " + d);
      }
    }
  }

  std::vector<std::size_t> in_flight_;
  std::vector<std::uint64_t> latency_ns_, lateness_ns_;
  std::vector<Window> windows_;
  std::array<std::string, 4> names_;
};

int cmd_load(const Args& args) {
  const std::string port_file = args.str("--port-file");
  std::uint16_t port = 0;
  const std::uint64_t deadline = now_ns() + 30'000'000'000ull;
  for (;;) {
    std::ifstream in(port_file);
    std::string content;
    if (in && std::getline(in, content) && !in.eof()) {
      port = static_cast<std::uint16_t>(std::stoul(content));
      break;
    }
    if (now_ns() > deadline) die("no port file " + port_file);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const auto names =
      book_names(args.has("--placement") ? args.str("--placement") : "mixed");
  const std::string program_path = args.str("--program");

  std::array<ConnLoad, 2> conns;
  for (unsigned k = 0; k < 2; ++k) {
    conns[k].index = k;
    // Dial one after the other: the acceptor deals connections to shards
    // round-robin, so connection k is served by shard k.
    if (!conns[k].client.connect("127.0.0.1", port)) {
      die("connect: " + conns[k].client.error());
    }
  }
  net::Response r;
  for (unsigned b = 0; b < 4; ++b) {
    if (!conns[b / 2].client.request("open " + names[b] + " " + program_path, r) ||
        !r.ok()) {
      die("open " + names[b] + ": " + r.status);
    }
  }
  const std::uint64_t t_open = now_ns();
  Json j;
  j.u64("t_open_ns", t_open);
  std::string books = "[";
  for (unsigned b = 0; b < 4; ++b) {
    books += std::string(b ? "," : "") + "\"" + names[b] + "\"";
  }
  j.raw("books", books + "]");
  if (args.has("--setup-only")) {
    std::cout << j.text() << std::endl;
    return 0;
  }

  LoadGen gen(read_windows(args.str("--windows")), names);
  gen.in_flight_.assign(gen.windows_.size(), 0);
  for (std::size_t i = 0; i < gen.windows_.size(); ++i) {
    conns[gen.windows_[i].book / 2].windows.push_back(i);
  }
  const std::size_t open_count = args.num("--open", 0);
  const double rate = args.real("--rate");
  gen.latency_ns_.assign(open_count, 0);
  gen.lateness_ns_.assign(open_count, 0);

  const std::uint64_t open_start = now_ns() + 20'000'000;  // 20 ms lead
  {
    std::array<std::thread, 2> threads;
    for (unsigned k = 0; k < 2; ++k) {
      threads[k] = std::thread(
          [&, k] { gen.open_loop(conns[k], open_count, open_start, rate); });
    }
    for (auto& t : threads) t.join();
  }
  // The closed loop runs in equal blocks of windows; each block's rate is
  // reported so a burst of outside load shows as one slow block.
  const std::size_t total = gen.windows_.size();
  const std::size_t blocks = std::max<std::uint64_t>(1, args.num("--blocks", 1));
  std::string block_list = "[";
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t lo = open_count + (total - open_count) * b / blocks;
    const std::size_t hi = open_count + (total - open_count) * (b + 1) / blocks;
    const std::uint64_t matched0 = conns[0].matched + conns[1].matched;
    const std::uint64_t t0 = now_ns();
    std::array<std::thread, 2> threads;
    for (unsigned k = 0; k < 2; ++k) {
      threads[k] = std::thread([&, k] { gen.closed_loop(conns[k], lo, hi); });
    }
    for (auto& t : threads) t.join();
    block_list += std::string(b ? "," : "") + "[" +
                  std::to_string(conns[0].matched + conns[1].matched - matched0) +
                  "," + std::to_string(now_ns() - t0) + "]";
  }
  for (auto& c : conns) gen.final_reads(c);

  std::ofstream out(args.str("--out"));
  std::uint64_t requests = 0, errors = 0;
  std::string first_error;
  for (auto& c : conns) {
    for (const Trade& t : c.trades) out << "trade " << t.book << " " << t.line << "\n";
    for (const std::string& s : c.resting) out << "resting " << s << "\n";
    for (unsigned slot = 0; slot < 2; ++slot) {
      out << "fingerprint " << names[2 * c.index + slot] << " "
          << c.fingerprint[slot] << "\n";
    }
    requests += c.requests;
    errors += c.errors;
    if (first_error.empty()) first_error = c.first_error;
    c.client.close();
  }
  j.raw("latency_ns", u64_list(gen.latency_ns_))
      .raw("lateness_ns", u64_list(gen.lateness_ns_))
      .raw("closed_blocks", block_list + "]")
      .u64("requests", requests)
      .u64("errors", errors)
      .str("first_error", first_error);
  std::cout << j.text() << std::endl;
  return 0;
}

// ---------------------------------------------------------------------
// pool-race

// Batches completed so far, over all rounds; it outlives cmd_pool_race,
// which the watchdog may outlive.
std::atomic<std::uint64_t> g_race_done{0};

int cmd_pool_race() {
  // Up to 10 rounds, each a fresh 4-thread pool running 200000 back-to-
  // back batches (about 2 s for a race-free pool). One round completed
  // now and then; the race has struck within 10 rounds in every run seen.
  constexpr int kRounds = 10;
  constexpr std::uint64_t kBatches = 200'000;
  // A hang is told apart from a slow run: the watchdog fires only when
  // no batch has completed for 5 s.
  std::thread([] {
    std::uint64_t seen = ~0ull;
    for (int idle = 0; idle < 50;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      const std::uint64_t now = g_race_done.load();
      idle = now == seen ? idle + 1 : 0;
      seen = now;
    }
    std::printf("no batch completed for 5 s after batch %llu\n",
                static_cast<unsigned long long>(seen));
    std::fflush(stdout);
    std::_Exit(3);
  }).detach();
  bool ok = true;
  for (int round = 0; round < kRounds; ++round) {
    ThreadPool pool(4);
    std::atomic<std::uint64_t> sum{0};
    for (std::uint64_t b = 0; b < kBatches; ++b) {
      pool.parallel_for(0, 8, [&](std::size_t i, unsigned) { sum += i; });
      g_race_done.fetch_add(1);
    }
    ok = ok && sum.load() == kBatches * 28;
  }  // each round's pool joins its workers; a hang there is the race too
  std::cout << Json().u64("ok", ok ? 1 : 0).text() << std::endl;
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) die("usage: perfbench_trace solve|orderbook|cluster|load|pool-race ...");
  const std::string cmd = argv[1];
  const Args args(argc, argv);
  try {
    if (cmd == "solve") return cmd_solve(args);
    if (cmd == "orderbook") return cmd_orderbook(args);
    if (cmd == "cluster") return cmd_cluster(args);
    if (cmd == "load") return cmd_load(args);
    if (cmd == "pool-race") return cmd_pool_race();
  } catch (const std::exception& e) {
    die(cmd + ": " + e.what());
  }
  die("unknown subcommand " + cmd);
}
