"""Seeded input generators.

Everything a workload feeds the program is made here, from the run's
seed, so that a change under src/ cannot change what is measured. The
program only ever sees the files these functions write.
"""
import random

TC_RULES = """\
(deftemplate edge (slot from) (slot to))
(deftemplate path (slot from) (slot to))

(defrule base
  (edge (from ?a) (to ?b))
  (not (path (from ?a) (to ?b)))
  =>
  (assert (path (from ?a) (to ?b))))

(defrule extend
  (path (from ?a) (to ?b))
  (edge (from ?b) (to ?c))
  (not (path (from ?a) (to ?c)))
  =>
  (assert (path (from ?a) (to ?c))))
"""


def digraph(rng, nodes, edges):
    """`edges` distinct random arcs over `nodes` vertices, no self-loops."""
    seen = set()
    out = []
    while len(out) < edges:
        a = rng.randrange(nodes)
        b = rng.randrange(nodes)
        if a == b or (a, b) in seen:
            continue
        seen.add((a, b))
        out.append((a, b))
    return out


def tc_program(edges):
    lines = [TC_RULES, "(deffacts graph"]
    lines += ["  (edge (from %d) (to %d))" % e for e in edges]
    lines.append(")")
    return "\n".join(lines) + "\n"


# --- Waltz line labeling ----------------------------------------------
#
# A cube drawing: 9 edges, 7 junctions (1 fork, 3 arrows, 3 Ls). Edge
# values: plus, minus, af/ab (arrow along/against the edge's j1->j2
# direction). Each junction's dictionary lists the allowed tuples of
# end labels; it is projected onto ordered pairs of incident edges to
# give the binary `compat` relation the rules propagate over.

VALUES = ("plus", "minus", "af", "ab")
P, M, IN, OUT = "P", "M", "IN", "OUT"

JUNCTION_KINDS = {
    "L": [(IN, OUT), (OUT, IN), (P, OUT), (IN, P), (M, IN), (OUT, M)],
    "fork": [(P, P, P), (M, M, M), (M, IN, OUT), (OUT, M, IN),
             (IN, OUT, M)],
    "arrow": [(IN, OUT, P), (P, P, M), (M, M, P)],
}

# (kind, [(edge, junction is the edge's j1), ...]) in role order.
CUBE_JUNCTIONS = [
    ("fork", [(6, True), (7, True), (8, True)]),
    ("arrow", [(5, False), (0, True), (6, False)]),
    ("arrow", [(1, False), (2, True), (7, False)]),
    ("arrow", [(3, False), (4, True), (8, False)]),
    ("L", [(0, False), (1, True)]),
    ("L", [(2, False), (3, True)]),
    ("L", [(4, False), (5, True)]),
]


def end_label(value, at_j1):
    if value == "plus":
        return P
    if value == "minus":
        return M
    if value == "af":
        return OUT if at_j1 else IN
    return IN if at_j1 else OUT


def cube_relations():
    """Return (arcs, compat) for one cube: arcs is a list of (x, y) edge
    pairs sharing a junction, compat maps (x, y) to the allowed
    (vx, vy) value pairs."""
    arcs = []
    compat = {}
    for kind, ends in CUBE_JUNCTIONS:
        tuples = JUNCTION_KINDS[kind]
        for r1, (e1, j1_1) in enumerate(ends):
            for r2, (e2, j1_2) in enumerate(ends):
                if r1 == r2:
                    continue
                arcs.append((e1, e2))
                pairs = compat.setdefault((e1, e2), [])
                for v1 in VALUES:
                    for v2 in VALUES:
                        a = end_label(v1, j1_1)
                        b = end_label(v2, j1_2)
                        if any(t[r1] == a and t[r2] == b for t in tuples):
                            pairs.append((v1, v2))
    return arcs, compat


WALTZ_RULES = """\
(deftemplate domain (slot cube) (slot var) (slot value))
(deftemplate arc (slot cube) (slot x) (slot y))
(deftemplate compat (slot cube) (slot x) (slot y) (slot vx) (slot vy))
(deftemplate witness (slot cube) (slot x) (slot y) (slot vx) (slot vy))

(defrule witness-dead-x
  ?w <- (witness (cube ?c) (x ?x) (y ?y) (vx ?vx) (vy ?vy))
  (not (domain (cube ?c) (var ?x) (value ?vx)))
  =>
  (retract ?w))

(defrule witness-dead-y
  ?w <- (witness (cube ?c) (x ?x) (y ?y) (vx ?vx) (vy ?vy))
  (not (domain (cube ?c) (var ?y) (value ?vy)))
  =>
  (retract ?w))

(defrule prune
  ?d <- (domain (cube ?c) (var ?x) (value ?vx))
  (arc (cube ?c) (x ?x) (y ?y))
  (not (witness (cube ?c) (x ?x) (y ?y) (vx ?vx)))
  =>
  (retract ?d))

; Stratification by meta-rule: a value is pruned only once the
; witnesses of every dead value of the same cube are gone.
(defmetarule defer-prune
  (inst-prune (id ?i) (c ?c))
  (inst-witness-dead-x (id ?j) (c ?c))
  =>
  (redact ?i))
"""


def waltz_program(rng, cubes):
    """`cubes` copies of the cube drawing with AC-4 witnesses prebuilt.

    The seed picks the cube ids and the order of the deffacts, so every
    seed gives a different text (and fact-id order) for the same
    labeling problem. Returns (program text, cube ids)."""
    arcs, compat = cube_relations()
    ids = rng.sample(range(1, 1_000_000), cubes)
    facts = []
    for c in ids:
        for e in range(9):
            for v in VALUES:
                facts.append("(domain (cube %d) (var e%d) (value %s))"
                             % (c, e, v))
        for x, y in arcs:
            facts.append("(arc (cube %d) (x e%d) (y e%d))" % (c, x, y))
            for vx, vy in compat[(x, y)]:
                body = "(cube %d) (x e%d) (y e%d) (vx %s) (vy %s)" % (
                    c, x, y, vx, vy)
                facts.append("(compat %s)" % body)
                facts.append("(witness %s)" % body)
    rng.shuffle(facts)
    text = WALTZ_RULES + "\n(deffacts scene\n  " + "\n  ".join(facts) + "\n)\n"
    return text, ids


# --- Order book -------------------------------------------------------

SYMBOLS = ("acme", "globex", "initech", "umbrella", "hooli", "wonka")


def order_window(rng, next_id, pairs):
    """One window: `pairs` buy/sell pairs, each pair on one symbol, with
    every buy limit (50..59) above every sell limit (40..49) so each
    order fills within its window and resting depth returns to zero.
    Returns (orders, next_id); an order is (side, id, sym, px, qty)."""
    orders = []
    for _ in range(pairs):
        sym = SYMBOLS[rng.randrange(len(SYMBOLS))]
        qty = 1 + rng.randrange(20)
        orders.append(("sell", next_id, sym, 40 + rng.randrange(10), qty))
        orders.append(("buy", next_id + 1, sym, 50 + rng.randrange(10), qty))
        next_id += 2
    rng.shuffle(orders)
    return orders, next_id


ORDERBOOK_RULES = """\
; Order matching: a buy crosses a sell of the same symbol when its limit
; meets the ask. Meta-rules keep, per cycle, each buy's cheapest ask and
; one fill per ask; settled orders leave the book, trades stay until the
; client reads and retracts them.
(deftemplate buy   (slot id) (slot sym) (slot px) (slot qty))
(deftemplate sell  (slot id) (slot sym) (slot px) (slot qty))
(deftemplate trade (slot bid) (slot ask) (slot sym) (slot px) (slot qty))

(defrule cross
  (buy  (id ?b) (sym ?s) (px ?bp) (qty ?q))
  (sell (id ?a) (sym ?s) (px ?ap))
  (test (>= ?bp ?ap))
  (not (trade (bid ?b)))
  (not (trade (ask ?a)))
  =>
  (assert (trade (bid ?b) (ask ?a) (sym ?s) (px ?ap) (qty ?q))))

(defmetarule best-ask-per-buy
  (inst-cross (id ?x) (b ?buy) (ap ?p1))
  (inst-cross (id ?y) (b ?buy) (ap ?p2))
  (test (or (< ?p1 ?p2) (and (== ?p1 ?p2) (< ?x ?y))))
  =>
  (redact ?y))

(defmetarule one-fill-per-ask
  (inst-cross (id ?x) (a ?ask))
  (inst-cross (id ?y) (a ?ask))
  (test (< ?x ?y))
  =>
  (redact ?y))

(defrule settle
  (trade (bid ?b) (ask ?a))
  ?buy  <- (buy (id ?b))
  ?sell <- (sell (id ?a))
  =>
  (retract ?buy)
  (retract ?sell))
"""


def relabeled(rng, edges, nodes):
    """The same graph with its vertices renamed by a random permutation
    and its edges in a random order: the same work, different input."""
    names = list(range(nodes))
    rng.shuffle(names)
    out = [(names[a], names[b]) for a, b in edges]
    rng.shuffle(out)
    return out
