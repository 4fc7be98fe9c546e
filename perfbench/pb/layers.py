"""The traced run: per-layer metrics for all four workloads.

The same suite runs whatever --workload says, on the seed's inputs (the
first inputs the end-to-end workloads would generate), so every per-layer
metric is reported by every traced run. Layer times come from
perfbench_trace, which links libparulel and times its calls into each
layer; the counters are the ones the program exports. Each traced item
is paired with the same item run untraced, which gives the tracing
overhead, and each traced end-to-end time is split into layer self times
plus an unattributed rest.
"""
import json
import os
import statistics

from . import check, gen, proc
from .workloads import (CLOSURE_EDGES, CLOSURE_NODES, CLUSTER_EDGES,
                        CLUSTER_NODES, LABELING_CUBES, SOLVE_TIMEOUT_S,
                        Result, closure_graphs, orderbook_windows,
                        pool_solve, read, summary_line)

TRACE_SOLVES = 4            # traced solves per batch workload
TRACE_WINDOWS = 400         # orderbook windows replayed per level
TRACE_CLUSTER_SOLVES = 4
# Layer self times must add up to each workload's traced end-to-end time
# within this share; a larger unattributed rest fails the traced run.
UNATTRIBUTED_TOLERANCE_PCT = 15.0


class Totals:
    """Traced vs untraced end-to-end time and unattributed time, summed
    over one workload's traced items."""

    def __init__(self):
        self.traced = self.untraced = self.unattributed = 0.0

    def add(self, traced, untraced, attributed):
        self.traced += traced
        self.untraced += untraced
        self.unattributed += traced - attributed

    def unattributed_pct(self):
        return 100.0 * self.unattributed / self.traced

    def overhead_pct(self):
        return 100.0 * (self.traced - self.untraced) / self.untraced


def report_totals(res, name, tot, prefix):
    """The overhead and unattributed share of one set of traced items;
    an unattributed share at or over the tolerance is a wrong output."""
    res.metric(prefix + "unattributed_pct", tot.unattributed_pct(), "%")
    res.metric(prefix + "overhead_pct", tot.overhead_pct(), "%")
    if tot.unattributed_pct() >= UNATTRIBUTED_TOLERANCE_PCT:
        res.wrong("%s: %.1f%% of the traced time is in no layer (tolerance %g%%)" % (
            name, tot.unattributed_pct(), UNATTRIBUTED_TOLERANCE_PCT))


def mean(xs):
    return statistics.fmean(xs) if xs else 0.0


def traced_json(ctx, res, cmd, name, pooled=False):
    """Run perfbench_trace; returns (wall_s, parsed JSON) or (wall, None).
    `pooled` runs it like a solve at the default thread count, again if
    the pool race kills it (workloads.pool_solve)."""
    out = ctx.path(name + ".json")
    if pooled:
        r = pool_solve(res, cmd, out, name)
    else:
        r = proc.run(cmd, SOLVE_TIMEOUT_S * 2, out)
    doc = None
    if r["rc"] == 0:
        try:
            doc = json.loads(read(out).strip().splitlines()[-1])
        except (ValueError, IndexError):
            doc = None
    res.op(doc is not None, "%s: %s" % (name, proc.describe(r["rc"])))
    return r["wall_s"], doc


def untraced_wall(ctx, res, cmd, name, ok_prefix, pooled=False):
    out = ctx.path(name + ".out")
    if pooled:
        r = pool_solve(res, cmd, out, name)
    else:
        r = proc.run(cmd, SOLVE_TIMEOUT_S, out)
    text = read(out)
    ok = r["rc"] == 0 and bool(summary_line(text, ok_prefix))
    res.op(ok, "%s: %s" % (name, proc.describe(r["rc"])))
    return r["wall_s"], text


def solve_layers(ctx, res, paths, tag):
    """Traced and untraced solves of `paths`; returns (docs, Totals)."""
    docs, totals = [], Totals()
    for i, path in enumerate(paths):
        plain, _ = untraced_wall(ctx, res, [ctx.cli, path], "%s-plain%d" % (tag, i),
                                 "[parulel]", pooled=True)
        wall, doc = traced_json(ctx, res, [ctx.tracer, "solve", path],
                                "%s-traced%d" % (tag, i), pooled=True)
        if doc is None:
            continue
        # Process start and exit (exec, dynamic linking, static set-up,
        # teardown) is the process wall outside the tracer's own clock.
        doc["process_ns"] = wall * 1e9 - doc["in_process_ns"]
        docs.append(doc)
        attributed = (doc["process_ns"] + doc["read_ns"] + doc["parse_ns"] +
                      doc["load_ns"] + doc["step_ns"]) / 1e9
        totals.add(wall, plain, attributed)
    return docs, totals


def engine_metrics(res, docs, prefix):
    m = lambda key: mean([d[key] for d in docs])  # noqa: E731
    phases = ["match_ns", "redact_ns", "fire_ns", "merge_ns"]
    res.metric(prefix + "engine.cycles", m("steps"), "count")
    res.metric(prefix + "engine.firings", m("firings"), "count")
    res.metric(prefix + "engine.fire_ms", m("fire_ns") / 1e6, "ms")
    res.metric(prefix + "engine.merge_ms", m("merge_ns") / 1e6, "ms")
    res.metric(prefix + "engine.unphased_ms", mean(
        [d["step_ns"] - sum(d[k] for k in phases) for d in docs]) / 1e6, "ms")
    res.metric(prefix + "match.ms", m("match_ns") / 1e6, "ms")
    res.metric(prefix + "match.insts_derived", m("insts_derived"), "count")
    res.metric(prefix + "runtime.pool_utilization", mean(
        [d["pool_busy_ns"] / (d["step_ns"] * d["pool_threads"]) for d in docs]),
        "ratio")
    res.metric(prefix + "runtime.batches", m("pool_batches"), "count")
    res.metric(prefix + "wm.rss_bytes_per_fact", mean(
        [d["vm_hwm_bytes"] / max(1, d["alive_facts"]) for d in docs]), "B")


def closure_layers(ctx, res):
    graphs = closure_graphs(ctx, TRACE_SOLVES, CLOSURE_NODES, CLOSURE_EDGES)
    paths = [ctx.write("ttc%d.clp" % i, gen.tc_program(g))
             for i, g in enumerate(graphs)]
    docs, totals = solve_layers(ctx, res, paths, "closure")
    for g, d in zip(graphs, docs):
        if d["asserts"] != len(check.closure(g)) or not d["quiescent"]:
            res.wrong("traced closure: %d asserts, BFS closure has %d" % (
                d["asserts"], len(check.closure(g))))
    if docs:
        engine_metrics(res, docs, "")
        res.metric("process.start_exit_ms",
                   mean([d["process_ns"] for d in docs]) / 1e6, "ms")
        res.metric("engine.absorbed_assert_ratio", mean(
            [d["dup_asserts"] / max(1, d["asserts"] + d["dup_asserts"])
             for d in docs]), "ratio")
    return totals


def labeling_layers(ctx, res):
    paths = []
    for i in range(TRACE_SOLVES):
        text, _ = gen.waltz_program(ctx.rng("waltz", i), LABELING_CUBES)
        paths.append(ctx.write("twaltz%d.clp" % i, text))
    docs, totals = solve_layers(ctx, res, paths, "labeling")
    _, retracts = check.labeling_expectation(LABELING_CUBES)
    for d in docs:
        if d["retracts"] != retracts or not d["quiescent"]:
            res.wrong("traced labeling: %d retracts, AC-3 prunes %d" % (
                d["retracts"], retracts))
    if docs:
        res.metric("lang.parse_ms", mean([d["parse_ns"] for d in docs]) / 1e6, "ms")
        res.metric("engine.load_ms", mean([d["load_ns"] for d in docs]) / 1e6, "ms")
        res.metric("match.alpha_upkeep_ms",
                   mean([d["alpha_upkeep_ns"] for d in docs]) / 1e6, "ms")
        engine_metrics(res, docs, "labeling.")
    return totals


def orderbook_layers(ctx, res):
    totals = Totals()
    program = ctx.write("torderbook.clp", gen.ORDERBOOK_RULES)
    text, _ = orderbook_windows(ctx, TRACE_WINDOWS)
    windows = ctx.write("twindows.txt", text)
    tdir = ctx.path("torderbook")
    os.makedirs(tdir)
    _, d = traced_json(ctx, res, [ctx.tracer, "orderbook", "--program", program,
                                  "--windows", windows, "--count",
                                  str(TRACE_WINDOWS), "--dir", tdir],
                       "orderbook-ladder")
    if d is None:
        return totals
    levels = ["session", "service_off", "service_fsync_off", "service_fsync_on",
              "protocol", "tcp", "tcp_untraced"]
    fps = {lvl: d[lvl]["fingerprints"] for lvl in levels}
    if len({json.dumps(v) for v in fps.values()}) != 1:
        res.wrong("orderbook levels disagree on book fingerprints: %s" % fps)
    w, n, orders = d["windows"], d["requests"], d["orders"]
    t = lambda lvl: d[lvl]["total_ns"]  # noqa: E731
    res.metric("service.session_run_ms", d["session_run_ns"] / w / 1e6, "ms/window")
    res.metric("match.external_fold_ms", d["external_fold_ns"] / w / 1e6, "ms/window")
    res.metric("meta.redact_ms", d["redact_ns"] / w / 1e6, "ms/window")
    res.metric("meta.redacted_ratio", d["redactions"] / max(
        1, d["firings"] + d["redactions"]), "ratio")
    res.metric("service.queue_ms", (t("service_off") - t("session")) / w / 1e6,
               "ms/window")
    res.metric("service.ops_per_commit", d["service_batched_ops"] / max(
        1, d["service_batches"]), "ops")
    res.metric("journal.write_ms", (t("service_fsync_off") - t("service_off")) / w / 1e6,
               "ms/commit")
    res.metric("journal.fsync_ms", (t("service_fsync_on") - t("service_fsync_off")) / w / 1e6,
               "ms/commit")
    res.metric("journal.bytes_per_order", d["journal_bytes"] / orders, "B")
    res.metric("protocol.line_us", (t("protocol") - t("service_fsync_off")) / n / 1e3,
               "us/request")
    res.metric("net.request_us", (t("tcp") - t("protocol")) / n / 1e3, "us/request")
    res.metric("net.forwarded_share", d["net_forwarded"] / max(1, d["net_lines_in"]),
               "ratio")
    res.metric("net.bytes_per_order", d["net_bytes"] / orders, "B")
    res.metric("net.shard_busy_max", d["net_shard_busy_max_ns"] / d["tcp"]["wall_ns"],
               "ratio")
    totals.add(d["tcp"]["wall_ns"] / 1e9, d["tcp_untraced"]["wall_ns"] / 1e9,
               t("tcp") / 1e9)
    return totals


def cluster_layers(ctx, res):
    totals = Totals()
    docs = []
    graphs = closure_graphs(ctx, TRACE_CLUSTER_SOLVES, CLUSTER_NODES, CLUSTER_EDGES)
    for i, g in enumerate(graphs):
        path = ctx.write("tctc%d.clp" % i, gen.tc_program(g))
        pairs = check.closure(g)
        facts = ctx.write("tctc%d.facts" % i, "".join(
            ["edge %d %d\n" % e for e in g] + ["path %d %d\n" % e for e in sorted(pairs)]))
        wal = ctx.path("tctc%d-plain.wal" % i)
        os.makedirs(wal)
        plain, text = untraced_wall(
            ctx, res, [ctx.cli, path, "--cluster", "3", "--partition", "path=from",
                       "--journal-dir", wal, "--cluster-bin", ctx.site],
            "cluster-plain%d" % i, "[cluster]")
        wal = ctx.path("tctc%d.wal" % i)
        os.makedirs(wal)
        wall, d = traced_json(ctx, res, [ctx.tracer, "cluster", "--program", path,
                                         "--site-bin", ctx.site, "--dir", wal,
                                         "--facts", facts], "cluster-traced%d" % i)
        if d is None:
            continue
        docs.append(d)
        want = len(g) + len(pairs)
        plain_fp = summary_line(text, "global fingerprint:").split()[-1:]
        if d["facts"] != want or d["codec_mismatches"] or not d["quiescent"]:
            res.wrong("traced cluster: %d facts (want %d), %d codec mismatches" % (
                d["facts"], want, d["codec_mismatches"]))
        if plain_fp != [d["fingerprint"][2:].lstrip("0")]:
            res.wrong("traced cluster fingerprint %s, untraced %s" % (
                d["fingerprint"], plain_fp))
        # The codec pass is extra work of the traced run, not of a solve.
        traced = wall - d["codec_ns"] / 1e9
        totals.add(traced, plain, (d["parse_ns"] + d["run_ns"]) / 1e9)
    if docs:
        m = lambda key: mean([x[key] for x in docs])  # noqa: E731
        res.metric("distrib.join_ms", m("join_ns") / 1e6, "ms")
        res.metric("distrib.barriers", m("barriers"), "count")
        res.metric("distrib.barrier_ms", mean(
            [(x["run_ns"] - x["join_ns"]) / max(1, x["barriers"]) for x in docs]) / 1e6,
            "ms")
        res.metric("distrib.cc_sent", m("sent"), "count")
        res.metric("distrib.retry_share", mean(
            [x["retries"] / max(1, x["sent"]) for x in docs]), "ratio")
        res.metric("distrib.codec_us_per_fact", mean(
            [x["codec_ns"] / max(1, x["codec_facts"]) for x in docs]) / 1e3, "us")
        res.metric("distrib.wal_bytes_per_fact", mean(
            [x["wal_bytes"] / max(1, x["facts"]) for x in docs]), "B")
    return totals


def run_suite(ctx):
    res = Result()
    parts = {
        "closure": closure_layers(ctx, res),
        "labeling": labeling_layers(ctx, res),
        "orderbook": orderbook_layers(ctx, res),
        "cluster": cluster_layers(ctx, res),
    }
    all_ = Totals()
    for name, tot in parts.items():
        if tot.traced > 0:
            report_totals(res, "traced " + name, tot, "trace.%s." % name)
        all_.traced += tot.traced
        all_.untraced += tot.untraced
        all_.unattributed += tot.unattributed
    if all_.traced > 0:
        report_totals(res, "traced suite", all_, "trace.")
    return res
