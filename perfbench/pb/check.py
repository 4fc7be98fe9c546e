"""Output checkers. Each compares the program's output with a result
the benchmark computes itself, or with a property the output must
have, and returns None when it holds or a one-line reason when not."""
import re
from collections import defaultdict

from . import gen

FACT_RE = re.compile(r"^\s*f-\d+ \((\S+) (.*)\)\s*$")
SLOT_RE = re.compile(r"\((\S+) ([^()]*)\)")


def parse_dump(text):
    """Facts of a `--dump-wm` listing as (template, {slot: value})."""
    facts = []
    for line in text.splitlines():
        m = FACT_RE.match(line)
        if m:
            facts.append((m.group(1), dict(SLOT_RE.findall(m.group(2)))))
    return facts


def closure(edges):
    """All (a, c) with a path of one or more edges from a to c (BFS)."""
    succ = defaultdict(list)
    for a, b in edges:
        succ[a].append(b)
    pairs = set()
    for a in list(succ):
        seen = set()
        frontier = list(succ[a])
        while frontier:
            b = frontier.pop()
            if b in seen:
                continue
            seen.add(b)
            frontier.extend(succ.get(b, ()))
        pairs.update((a, b) for b in seen)
    return pairs


def check_closure(edges, facts):
    paths = {(int(s["from"]), int(s["to"])) for t, s in facts if t == "path"}
    want = closure(edges)
    if paths != want:
        return "path set differs from the BFS closure: %d missing, %d extra" % (
            len(want - paths), len(paths - want))
    return None


def ac3():
    """Arc-consistent domains of one cube drawing: {edge: set(values)}."""
    arcs, compat = gen.cube_relations()
    domains = {e: set(gen.VALUES) for e in range(9)}
    queue = list(dict.fromkeys(arcs))
    while queue:
        x, y = queue.pop(0)
        keep = {vx for vx in domains[x]
                if any(vy in domains[y] for v, vy in compat[(x, y)] if v == vx)}
        if keep != domains[x]:
            domains[x] = keep
            queue.extend(a for a in dict.fromkeys(arcs)
                         if a[1] == x and a not in queue)
    return domains


def labeling_expectation(cubes):
    """(surviving domain facts, retracts) the labeling solve must give for
    `cubes` copies: pruned values and their dead witnesses are retracted."""
    arcs, compat = gen.cube_relations()
    domains = ac3()
    pruned = sum(len(gen.VALUES) - len(v) for v in domains.values())
    dead_witnesses = sum(
        1 for x, y in arcs for vx, vy in compat[(x, y)]
        if vx not in domains[x] or vy not in domains[y])
    alive = sum(len(v) for v in domains.values())
    return alive * cubes, (pruned + dead_witnesses) * cubes


def check_labeling(cube_ids, facts):
    want = {"e%d" % e: vals for e, vals in ac3().items()}
    got = defaultdict(lambda: defaultdict(set))
    for t, s in facts:
        if t == "domain":
            got[s["cube"]][s["var"]].add(s["value"])
    for c in cube_ids:
        labels = got.get(str(c), {})
        for var, vals in want.items():
            if set(labels.get(var, ())) != vals:
                return "cube %s var %s keeps %s, AC-3 keeps %s" % (
                    c, var, sorted(labels.get(var, ())), sorted(vals))
    extra = set(got) - {str(c) for c in cube_ids}
    if extra:
        return "domain facts for unknown cubes %s" % sorted(extra)[:3]
    return None


TRADE_RE = re.compile(
    r"\(trade \(bid (\S+)\) \(ask (\S+)\) \(sym (\S+)\) \(px (\S+)\) "
    r"\(qty (\S+)\)\)")
ORDER_RE = re.compile(
    r"\((buy|sell) \(id (\S+)\) \(sym (\S+)\) \(px (\S+)\) \(qty (\S+)\)\)")


def parse_load_output(text):
    """The load generator's log: trades read, resting orders at the end,
    and each book's last `run` fingerprint."""
    trades, resting, fps = [], [], {}
    for line in text.splitlines():
        kind, _, rest = line.partition(" ")
        if kind == "trade":
            m = TRADE_RE.search(rest)
            if m:
                b, a, sym, px, qty = m.groups()
                trades.append((rest.split()[0], int(b), int(a), sym, int(px),
                               int(qty)))
            else:
                trades.append((rest.split()[0], None, None, None, None, None))
        elif kind == "resting":
            m = ORDER_RE.search(rest)
            if m:
                side, oid, sym, px, qty = m.groups()
                resting.append((rest.split()[0], side, int(oid), sym, int(px)))
        elif kind == "fingerprint":
            book, fp = rest.split()
            fps[book] = fp
    return trades, resting, fps


def check_orderbook(orders, trades, resting):
    """`orders` maps id -> (side, sym, px, qty) for every order sent."""
    bids, asks = set(), set()
    for book, b, a, sym, px, qty in trades:
        if b is None:
            return "unparsable trade in %s" % book
        if b in bids or a in asks:
            return "order filled twice (bid %d, ask %d)" % (b, a)
        bids.add(b)
        asks.add(a)
        bo, ao = orders.get(b), orders.get(a)
        if bo is None or ao is None or bo[0] != "buy" or ao[0] != "sell":
            return "trade %d/%d names an unknown order" % (b, a)
        if not (bo[1] == ao[1] == sym):
            return "trade %d/%d crosses symbols" % (b, a)
        if bo[2] < ao[2]:
            return "trade %d/%d: bid px %d below ask px %d" % (b, a, bo[2], ao[2])
        if px != ao[2]:
            return "trade %d/%d at px %d, not the ask's %d" % (b, a, px, ao[2])
    best_bid, best_ask = {}, {}
    for book, side, oid, sym, px in resting:
        key = (book, sym)
        if side == "buy":
            best_bid[key] = max(px, best_bid.get(key, px))
        else:
            best_ask[key] = min(px, best_ask.get(key, px))
    for key, bid in best_bid.items():
        if key in best_ask and bid >= best_ask[key]:
            return "resting book %s/%s crosses: bid %d >= ask %d" % (
                key[0], key[1], bid, best_ask[key])
    return None


def check_fingerprints(want, got):
    """Every name in `want` must map to the same fingerprint in `got`."""
    for name in sorted(want):
        if got.get(name) != want[name]:
            return "%s: fingerprint %s, expected %s" % (
                name, got.get(name), want[name])
    return None
