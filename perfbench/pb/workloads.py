"""The four end-to-end workloads. Each does a fixed amount of work for a
given --seconds (a count of solves or windows, never "as much as fits"),
checks every output, and returns a Result."""
import json
import os
import random
import socket
import statistics
import subprocess
import time

from . import check, gen, proc

# Work per second of --seconds, measured once on the reference host (see
# README) and never recomputed at run time: the count of operations a
# run attempts depends on --seconds alone. At --seconds 40, the run
# length in BENCHMARK.json, every workload times at least 200 operations.
CLOSURE_SOLVES_PER_S = 5
LABELING_SOLVES_PER_S = 5
CLUSTER_SOLVES_PER_S = 5
ORDERBOOK_OPEN_WINDOWS = 1200     # open-loop windows, >= 1000 for the tail
ORDERBOOK_RATE = 200.0            # offered windows/s in the open loop
ORDERBOOK_CLOSED_PER_S = 300      # closed-loop windows per --seconds
ORDER_PAIRS_PER_WINDOW = 4
CLOSED_BLOCKS = 5                 # closed-loop blocks; orders_s is the median

CLOSURE_NODES, CLOSURE_EDGES = 160, 400
CLUSTER_NODES, CLUSTER_EDGES = 64, 160
LABELING_CUBES = 64
SETUP_REPEATS = 9                 # set-up-only solves per run
ORDERBOOK_SETUPS = 7              # server starts per orderbook run
DUMP_CHECKS = 2                   # untimed --dump-wm solves per run
SOLVE_TIMEOUT_S = 60              # cluster solves and traced items
BATCH_TIMEOUT_S = 15              # one closure or labeling process
POOL_RACE_TIMEOUT_S = 60

# closure and labeling solve at the program's default thread count (4 on
# the reference host). There the pool race kills about 1 solve in 150 by
# a signal or a hang, at random, so such a death cannot be a fixed share
# of a run's operations. A solve that dies so is run again, at most
# SOLVE_ATTEMPTS times in all; every death is printed on stderr and
# counted in the note crashed_attempts. The race itself is counted as a
# failed operation by pool-race, below, which fails every time.
SOLVE_ATTEMPTS = 3


class Result:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.metrics = {}
        self.causes = []
        self.retries = []
        self.notes = {"crashed_attempts": 0}  # on stderr, not metrics

    def op(self, ok, cause=None):
        """Count one operation; a failed one records its cause."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.causes.append(cause or "failed")

    def retried(self, cause):
        """An attempt that died now and then, run again (see
        SOLVE_ATTEMPTS); it is not an operation of its own."""
        self.retries.append(cause)
        self.notes["crashed_attempts"] += 1

    def wrong(self, why):
        """An operation that completed with a wrong output."""
        self.correct = False
        self.causes.append("check: " + why)

    def metric(self, name, value, unit):
        self.metrics[name] = {"value": value, "unit": unit}


def solve_count(per_s, seconds):
    return max(3, int(round(per_s * seconds)))


def p(values, q):
    """q-th percentile (1..99), inclusive linear interpolation."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Ctx:
    def __init__(self, bindir, workdir, seed, seconds):
        self.workdir = workdir
        self.seed = seed
        self.seconds = seconds
        self.cli = os.path.join(bindir, "parulel_cli")
        self.site = os.path.join(bindir, "parulel_site")
        self.tracer = os.path.join(bindir, "perfbench_trace")

    def path(self, *parts):
        return os.path.join(self.workdir, *parts)

    def rng(self, *salt):
        return random.Random("%d/%s" % (self.seed, "/".join(map(str, salt))))

    def write(self, name, text):
        path = self.path(name)
        with open(path, "w") as f:
            f.write(text)
        return path


def read(path):
    with open(path, errors="replace") as f:
        return f.read()


def summary_line(text, prefix):
    for line in text.splitlines():
        if line.startswith(prefix):
            return line
    return ""


def summary_field(line, key):
    for tok in line.split():
        if tok.startswith(key + "="):
            return tok[len(key) + 1:]
    return None


# --- batch solves (closure, labeling) ----------------------------------

def pool_solve(res, cmd, out, name, timeout=BATCH_TIMEOUT_S):
    """Run one process that uses the default thread pool. If a signal or
    a hang ends it, run it again, at most SOLVE_ATTEMPTS times in all
    (see SOLVE_ATTEMPTS); returns the last attempt's proc.run result."""
    for _ in range(SOLVE_ATTEMPTS):
        r = proc.run(cmd, timeout, out)
        if r["rc"] is not None and r["rc"] >= 0:
            break
        res.retried("%s: %s" % (name, proc.describe(r["rc"])))
    return r


def setup_solves(ctx, res, inputs):
    """CPU seconds of SETUP_REPEATS set-up-only processes: start, parse,
    load and assert the initial facts, no cycle (`--max-cycles 0`), exit.
    CPU time, not wall time: on a shared host the wall time of a 15 ms
    process start moved by more than a 25% bound between sets of runs."""
    cpus = []
    for k in range(SETUP_REPEATS):
        path = inputs[k % len(inputs)]
        out = ctx.path("setup%d.out" % k)
        r = pool_solve(res, [ctx.cli, path, "--max-cycles", "0"], out, "set-up %d" % k)
        ok = r["rc"] == 5 and "[cycle_limit]" in summary_line(read(out), "[parulel]")
        res.op(ok, "set-up %d: %s" % (k, proc.describe(r["rc"])))
        if ok:
            cpus.append(r["cpu_s"])
    return cpus


def batch_solves(ctx, res, inputs, expect):
    """Solve each input file in its own `parulel_cli` process. `expect`
    checks one solve's summary line and returns None or a reason."""
    walls, cpus, rss = [], [], []
    for i, path in enumerate(inputs):
        out = ctx.path("solve%d.out" % i)
        r = pool_solve(res, [ctx.cli, path], out, "solve %d" % i)
        rss.append(r["maxrss_kb"])
        line = summary_line(read(out), "[parulel]")
        if r["rc"] != 0 or not line:
            res.op(False, "solve %d: %s" % (i, proc.describe(r["rc"])))
            continue
        res.op(True)
        why = expect(i, line)
        if why:
            res.wrong("solve %d: %s" % (i, why))
        walls.append(r["wall_s"])
        cpus.append(r["cpu_s"])
    return walls, cpus, rss


def dump_solve(ctx, res, path, name):
    """An untimed solve that dumps working memory, for a checker."""
    out = ctx.path(name + ".dump")
    r = pool_solve(res, [ctx.cli, path, "--dump-wm"], out, "dump " + name)
    res.op(r["rc"] == 0, "dump %s: %s" % (name, proc.describe(r["rc"])))
    return check.parse_dump(read(out)) if r["rc"] == 0 else None


def solve_metrics(res, walls, cpus):
    res.metric("cpu_ms", statistics.median(cpus) * 1e3, "ms")
    # Wall times follow the host's steal as much as the program (see
    # README); stderr only.
    res.notes["latency_p50_ms"] = statistics.median(walls) * 1e3
    res.notes["latency_p95_ms"] = p(walls, 95) * 1e3


def batch_metrics(res, walls, cpus, setups, rss):
    if walls:
        solve_metrics(res, walls, cpus)
    if setups:
        res.metric("setup_s", statistics.median(setups), "s")
    res.metric("peak_rss_mb", max(rss) / 1024.0, "MB")


def pool_race(ctx, res):
    """The thread-pool race as one operation that fails every time (see
    README): rounds of a fresh 4-thread pool running back-to-back tiny
    batches. The tracer exits 3 when no batch completes for 5 s (a
    hang)."""
    out = ctx.path("pool-race.out")
    r = proc.run([ctx.tracer, "pool-race"], POOL_RACE_TIMEOUT_S, out)
    cause = proc.describe(r["rc"])
    if r["rc"] == 3:
        cause = "hang: " + read(out).strip()
    res.op(r["rc"] == 0, "pool-race: %s" % cause)


def closure_graphs(ctx, count, nodes, edges):
    """`count` random digraphs. Graph i has the same shape in every run
    (drawn from a fixed seed) and the run's seed renames its vertices and
    orders its edges, so every run does the same work on new inputs."""
    return [gen.relabeled(ctx.rng("graph", nodes, i),
                          gen.digraph(random.Random("shape/%d/%d/%d" % (
                              nodes, edges, i)), nodes, edges), nodes)
            for i in range(count)]


def run_closure(ctx):
    res = Result()
    graphs = closure_graphs(ctx, solve_count(CLOSURE_SOLVES_PER_S, ctx.seconds),
                            CLOSURE_NODES, CLOSURE_EDGES)
    inputs = [ctx.write("tc%d.clp" % i, gen.tc_program(g))
              for i, g in enumerate(graphs)]
    sizes = [len(check.closure(g)) for g in graphs]

    def expect(i, line):
        if summary_field(line, "asserts") != str(sizes[i]):
            return "asserted %s paths, BFS closure has %d" % (
                summary_field(line, "asserts"), sizes[i])
        if "[quiescent]" not in line:
            return "did not quiesce"
        return None

    setups = setup_solves(ctx, res, inputs)
    walls, cpus, rss = batch_solves(ctx, res, inputs, expect)
    for i in range(DUMP_CHECKS):
        facts = dump_solve(ctx, res, inputs[i], "tc%d" % i)
        why = facts is not None and check.check_closure(graphs[i], facts)
        if why:
            res.wrong("tc%d: %s" % (i, why))
    pool_race(ctx, res)
    batch_metrics(res, walls, cpus, setups, rss)
    return res


def run_labeling(ctx):
    res = Result()
    count = solve_count(LABELING_SOLVES_PER_S, ctx.seconds)
    inputs, cube_ids = [], []
    for i in range(count):
        text, ids = gen.waltz_program(ctx.rng("waltz", i), LABELING_CUBES)
        inputs.append(ctx.write("waltz%d.clp" % i, text))
        cube_ids.append(ids)
    _, retracts = check.labeling_expectation(LABELING_CUBES)

    def expect(i, line):
        if summary_field(line, "retracts") != str(retracts):
            return "retracted %s facts, AC-3 prunes %d" % (
                summary_field(line, "retracts"), retracts)
        if "[quiescent]" not in line:
            return "did not quiesce"
        return None

    setups = setup_solves(ctx, res, inputs)
    walls, cpus, rss = batch_solves(ctx, res, inputs, expect)
    for i in range(DUMP_CHECKS):
        facts = dump_solve(ctx, res, inputs[i], "waltz%d" % i)
        why = facts is not None and check.check_labeling(cube_ids[i], facts)
        if why:
            res.wrong("waltz%d: %s" % (i, why))
    batch_metrics(res, walls, cpus, setups, rss)
    return res


# --- cluster -----------------------------------------------------------

def cluster_solve(ctx, path, name):
    wal = ctx.path(name + ".wal")
    os.makedirs(wal)
    out = ctx.path(name + ".out")
    r = proc.run([ctx.cli, path, "--cluster", "3", "--partition", "path=from",
                  "--journal-dir", wal, "--cluster-bin", ctx.site],
                 SOLVE_TIMEOUT_S, out)
    return r, read(out)


def run_cluster(ctx):
    res = Result()
    # The closure rules with no facts: spawn, handshake, one quiescent
    # barrier and stop, under the same partition scheme as the solves.
    empty = ctx.write("empty.clp", gen.TC_RULES)
    setups, rss = [], []
    for k in range(SETUP_REPEATS):
        r, _ = cluster_solve(ctx, empty, "empty%d" % k)
        res.op(r["rc"] == 0, "empty cluster solve: %s" % proc.describe(r["rc"]))
        if r["rc"] == 0:
            setups.append(r["wall_s"])
        rss.append(r["maxrss_kb"])

    graphs = closure_graphs(ctx, solve_count(CLUSTER_SOLVES_PER_S, ctx.seconds),
                            CLUSTER_NODES, CLUSTER_EDGES)
    walls, cpus, fps = [], [], {}
    for i, g in enumerate(graphs):
        path = ctx.write("ctc%d.clp" % i, gen.tc_program(g))
        r, text = cluster_solve(ctx, path, "ctc%d" % i)
        rss.append(r["maxrss_kb"])
        line = summary_line(text, "[cluster]")
        if r["rc"] != 0 or "quiescent" not in line:
            res.op(False, "cluster solve %d: %s" % (i, proc.describe(r["rc"])))
            continue
        res.op(True)
        walls.append(r["wall_s"])
        cpus.append(r["cpu_s"])
        facts = int(line.split(", ")[-1].split()[0])
        want = len(g) + len(check.closure(g))
        if facts != want:
            res.wrong("ctc%d: %d facts, edges + BFS closure = %d" % (i, facts, want))
        fps[i] = (path, summary_line(text, "global fingerprint:").split()[-1])
    # The in-process simulator must reach the same fingerprint.
    for i in sorted(fps)[:DUMP_CHECKS]:
        path, fp = fps[i]
        out = ctx.path("sim%d.out" % i)
        r = proc.run([ctx.cli, path, "--engine", "dist", "--sites", "3",
                      "--partition", "path=from"], SOLVE_TIMEOUT_S, out)
        res.op(r["rc"] == 0, "dist simulation %d: %s" % (i, proc.describe(r["rc"])))
        sim = summary_line(read(out), "global fingerprint:").split()[-1:]
        why = r["rc"] == 0 and check.check_fingerprints(
            {"ctc%d" % i: fp}, {"ctc%d" % i: "".join(sim)})
        if why:
            res.wrong("cluster vs dist simulator: " + why)
    if walls:
        solve_metrics(res, walls, cpus)
    if setups:
        res.metric("setup_s", statistics.median(setups), "s")
    res.metric("peak_rss_mb", max(rss) / 1024.0, "MB")
    return res


# --- orderbook ---------------------------------------------------------

def orderbook_windows(ctx, count):
    """`count` windows of seeded orders; window i goes to book i % 4."""
    rng = ctx.rng("orders")
    windows, orders, next_id = [], {}, 1
    for i in range(count):
        batch, next_id = gen.order_window(rng, next_id, ORDER_PAIRS_PER_WINDOW)
        for side, oid, sym, px, qty in batch:
            orders[oid] = (side, sym, px, qty)
        windows.append("%d %s" % (i % 4, " ".join(
            "%s %d %s %d %d" % o for o in batch)))
    return "\n".join(windows) + "\n", orders


def start_server(ctx, journal, port_file):
    # --snapshot-every 0: with the default snapshot truncation, recovery
    # of an order book quarantines it (see README, faults), so the
    # restart check could not pass.
    cmd = [ctx.cli, "--listen", "--port", "0", "--port-file", port_file,
           "--shards", "2", "--threads", "1", "--journal-dir", journal,
           "--snapshot-every", "0"]
    return proc.Server(cmd, port_file + ".out")


def load(ctx, port_file, program, windows_path, out, setup_only=False):
    cmd = [ctx.tracer, "load", "--port-file", port_file, "--program", program,
           "--windows", windows_path, "--open", str(ORDERBOOK_OPEN_WINDOWS),
           "--rate", str(ORDERBOOK_RATE), "--blocks", str(CLOSED_BLOCKS),
           "--out", out]
    if setup_only:
        cmd.append("--setup-only")
    return cmd


def resume_fingerprints(port, books):
    """`resume` each book on a fresh connection; returns {book: fp}."""
    fps = {}
    with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
        f = s.makefile("rw")
        for book in books:
            f.write("resume %s\n" % book)
            f.flush()
            line = f.readline().strip()
            fps[book] = summary_field(line, "fingerprint") if line.startswith(
                "ok resume") else line
        f.write("quit\n")
        f.flush()
        f.readline()
    return fps


def read_port(port_file, deadline_s=20.0):
    end = time.monotonic() + deadline_s
    while time.monotonic() < end:
        try:
            with open(port_file) as f:
                text = f.read()
            if text.endswith("\n"):
                return int(text)
        except OSError:
            pass
        time.sleep(0.002)
    return None


def open_loop_metrics(res, lat, late):
    """Window i went to book i % 4. Local and forwarded books ack at
    different speeds, so the median is taken per book and averaged: a
    median over all windows would sit in the gap between the two modes.
    The tail goes to stderr only: it follows the host's load, not the
    program (see README)."""
    books = [lat[b::4] for b in range(4)]
    res.notes["latency_p50_ms"] = statistics.fmean(
        statistics.median(v) for v in books)
    res.notes["ack_p90_ms"] = p(lat, 90)
    res.notes["ack_p99_ms"] = p(lat, 99)
    res.notes["generator_lateness_p99_ms"] = p(late, 99)


def run_orderbook(ctx):
    res = Result()
    program = ctx.write("orderbook.clp", gen.ORDERBOOK_RULES)
    closed = int(round(ORDERBOOK_CLOSED_PER_S * ctx.seconds))
    text, orders = orderbook_windows(ctx, ORDERBOOK_OPEN_WINDOWS + closed)
    windows = ctx.write("windows.txt", text)
    setups, rss = [], []

    # Each set-up starts a server on a fresh journal directory and opens
    # the four books; the last one goes on to the load phases.
    for k in range(ORDERBOOK_SETUPS):
        last = k == ORDERBOOK_SETUPS - 1
        journal = ctx.path("journal%d" % k)
        os.makedirs(journal)
        out = ctx.path("load%d.txt" % k)
        port_file = ctx.path("port%d" % k)
        loader = ctx.path("load%d.json" % k)
        # The load generator waits for the port file; start it first so
        # the set-up time runs from the server's start.
        with open(loader, "wb") as lf:
            lp = subprocess.Popen(load(ctx, port_file, program, windows, out,
                                       setup_only=not last),
                                  stdout=lf, stderr=subprocess.DEVNULL,
                                  start_new_session=True)
            server = start_server(ctx, journal, port_file)
            try:
                lrc = lp.wait(150 if last else 30)
            except subprocess.TimeoutExpired:
                proc.stop_group(lp.pid)
                lp.wait()
                lrc = None
            proc.stop_group(lp.pid)
        src = server.stop()
        rss.append(server.maxrss_kb)
        report = {}
        try:
            with open(loader) as f:
                report = json.loads(f.read().strip().splitlines()[-1])
        except (OSError, ValueError, IndexError):
            pass
        ok = lrc == 0 and src == 0 and "t_open_ns" in report
        res.op(ok, "orderbook set-up %d: load generator %s, server %s" % (
            k, proc.describe(lrc), proc.describe(src)))
        if not ok:
            continue
        setups.append((report["t_open_ns"] - server.t0_ns) / 1e9)
        if not last:
            continue

        # The load phases: every request is one operation.
        errors = report["errors"]
        res.attempted += report["requests"]
        res.failed += errors
        if errors:
            res.causes.append("%d err replies or lost responses, first: %s" % (
                errors, report["first_error"]))
        open_loop_metrics(res, [v / 1e6 for v in report["latency_ns"]],
                          [v / 1e6 for v in report["lateness_ns"]])
        res.notes["orders_s"] = statistics.median(
            m / (ns / 1e9) for m, ns in report["closed_blocks"])
        res.metric("cpu_ms", server.cpu_s * 1e3 / (ORDERBOOK_OPEN_WINDOWS + closed),
                   "ms")
        trades, resting, fps = check.parse_load_output(read(out))
        why = check.check_orderbook(orders, trades, resting)
        if why:
            res.wrong(why)

        # Restart on the same journal directory: `resume` must give each
        # book the fingerprint its last `run` reported.
        port_file = ctx.path("port-restart")
        server = start_server(ctx, journal, port_file)
        port = read_port(port_file)
        try:
            got = resume_fingerprints(port, report["books"]) if port else {}
        except OSError as e:
            got = {"error": str(e)}
        src = server.stop()
        res.op(src == 0, "restarted server stop: %s" % proc.describe(src))
        resumed = {}
        for book in report["books"]:
            ok = str(got.get(book)).startswith("0x")
            res.op(ok, "resume %s: %s" % (book, got.get(book)))
            if ok:
                resumed[book] = got[book]
        why = check.check_fingerprints({b: fps.get(b) for b in resumed}, resumed)
        if why:
            res.wrong("resume after restart: " + why)
    if setups:
        res.metric("setup_s", statistics.median(setups), "s")
    res.metric("peak_rss_mb", max(rss) / 1024.0 if rss else 0.0, "MB")
    return res


WORKLOADS = {
    "closure": run_closure,
    "labeling": run_labeling,
    "orderbook": run_orderbook,
    "cluster": run_cluster,
}
