"""Liveness decisions on explicit state spaces, and non-liveness witnesses.

A witness is a triple (marking, crucial places, dead transitions) that can be
checked locally: restricted to the crucial places, every non-dead transition
moves single tokens (so the restriction is conservative and its state space
finite), and no dead transition's restricted pre-mset is ever coverable.
Soundness: anything dead in the restriction is dead in the full net, because
ignored places can be imagined as holding arbitrarily many tokens.  The witness
search and `check_witness` explore it alike (`WitnessIndex._explore`).
"""
from __future__ import annotations

import sys
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress, count
from operator import itemgetter, mul
from struct import calcsize

from .classify import classify
from .nets import (BudgetExceeded, NetError, UnknownNode, _move_table, _path, _walk, mleq,
                   msize, post_mset, pre_mset)
from .structure import _siphon_masks, _tarjan, relaxed_arcs


SUBSET_CAP = 16  # the witness index enumerates every place subset, 2^|P|
FLOOR_CAP = 1024  # the points a witness index's clean floor keeps at most
FLOOR_TOP = 512  # and its points' exact counts stay below min(m, FLOOR_TOP)


class SubsetCapExceeded(NetError):
    pass


class Markings(Sequence):
    """Read-only view of packed markings: entry v (a slice gives a list) is
    `codes[v]` unpacked.  A code holds place i's count in field i, in the
    native byte order, so its `to_bytes(size, sys.byteorder)` lists the
    fields in place order.  A field is one item of `fmt`, the smallest of
    the struct formats "B", "H", "I" and "Q" that holds `bound`; a larger
    bound takes `width` bytes per field as it needs, with `fmt` None.
    units[i] is one token on place i.  Its length unpacks nothing."""

    __slots__ = ("codes", "fmt", "width", "size", "units")

    def __init__(self, codes, bound, n_places):
        self.codes = codes
        self.fmt = next((f for f in "BHIQ" if not bound >> 8 * calcsize(f)), None)
        self.width = width = calcsize(self.fmt) if self.fmt else -(-bound.bit_length() // 8)
        self.size = width * n_places
        shifts = range(0, 8 * self.size, 8 * width)
        self.units = tuple(1 << s for s in (shifts if sys.byteorder == "little"
                                             else reversed(shifts)))

    def pack(self, marking):
        return sum(map(mul, marking, self.units))

    def unpack(self, code):
        b = code.to_bytes(self.size, sys.byteorder)
        if self.fmt:
            return tuple(memoryview(b).cast(self.fmt))
        w = self.width
        return tuple(int.from_bytes(b[i:i + w], sys.byteorder) for i in range(0, len(b), w))

    def __len__(self):
        return len(self.codes)

    def __getitem__(self, v):
        if isinstance(v, slice):
            return list(map(self.unpack, self.codes[v]))
        return self.unpack(self.codes[v])

    def __iter__(self):
        return map(self.unpack, self.codes)


class ReachGraph:
    """Reachability graph: markings as nodes, firings as edges.

    Node v's marking is stored as one int, `codes[v]`, packed as `Markings`
    packs counts up to `bound`; `nodes` is a `Markings` view of all of
    them.  `succ[v]` lists the node reached by each transition enabled at
    v, in ascending transition order, and bit ti of `enabled[v]` is set iff
    transition ti is enabled at v: the k-th set bit labels the edge to
    `succ[v][k]`."""

    def __init__(self, net, root, bound):
        self.net = net
        self.root = tuple(root)
        self.codes = []
        self.nodes = Markings(self.codes, bound, len(net.places))
        self.codes.append(self.nodes.pack(self.root))
        self.succ = []             # filled as the BFS expands each node
        self.enabled = []
        self.parent = [None]       # (src_index, transition) BFS tree

    def path_to(self, v):
        return _path(self.parent, v)


def _bound(net, m0, node_budget):
    """A count that no search of `node_budget` nodes from m0 can pass: the
    token total on a conservative net, else the largest count of m0 plus
    `max_weight` per firing, a node lying at most `node_budget` firings
    from the root."""
    if classify(net).conservative:
        return sum(m0)
    return max(m0, default=0) + max(node_budget, 1) * net.max_weight


def reach_graph(net, m0, node_budget=200_000):
    """Breadth-first closure under firing, nodes numbered in discovery
    order; raises BudgetExceeded past `node_budget` nodes.

    Markings are `Markings` codes of fields that hold `_bound`, so a
    successor is the node's code plus the transition's packed delta, built
    on its first firing.  A node's counts are its code's bytes when a field
    is one byte, else its unpacked tuple; `nets._walk` reads either as a
    tuple."""
    net.check_marking(m0)
    table = _move_table(net)
    g = ReachGraph(net, m0, _bound(net, m0, node_budget))
    codes, succ, enabled, parent = g.codes, g.succ, g.enabled, g.parent
    units, size, order = g.nodes.units, g.nodes.size, sys.byteorder
    unpack = None if g.nodes.fmt == "B" else g.nodes.unpack
    index = {codes[0]: 0}
    packed = [None] * len(net.transitions)
    names = net.transitions
    for v, code in enumerate(codes):  # the BFS queue: new nodes join the end
        c = code.to_bytes(size, order) if unpack is None else unpack(code)
        out = []
        en = 0
        for ti, delta in _walk(table, compress(count(), c), c.__getitem__):
            d = packed[ti]
            if d is None:
                d = packed[ti] = sum(dx * units[i] for i, dx in delta)
            en |= 1 << ti
            nc = code + d
            j = index.get(nc)
            if j is None:
                j = len(codes)
                if j >= node_budget:
                    raise BudgetExceeded(j)
                index[nc] = j
                codes.append(nc)
                parent.append((v, names[ti]))
            out.append(j)
        succ.append(out)
        enabled.append(en)
    return g


def cover_basis(net, target, node_budget=200_000):
    """Minimal markings from which `target` is coverable (backward search).

    Exact for arbitrary nets; terminates by well-quasi-ordering of markings.
    """
    net.check_marking(target)
    target = tuple(target)
    basis = [target]
    work = deque([target])
    expansions = 0
    vectors = [(pre_mset(net, t), post_mset(net, t)) for t in net.transitions]
    while work:
        b = work.popleft()
        for pre, post in vectors:
            expansions += 1
            if expansions > node_budget:
                raise BudgetExceeded(expansions)
            cand = tuple(p + (x - q if x > q else 0)
                         for p, q, x in zip(pre, post, b))
            if any(mleq(e, cand) for e in basis):
                continue
            basis = [e for e in basis if not mleq(cand, e)]
            basis.append(cand)
            work.append(cand)
    return basis


def dead_at(net, marking, t, node_budget=200_000):
    """True iff no marking reachable from `marking` enables `t`."""
    net.check_marking(marking)
    basis = cover_basis(net, pre_mset(net, t), node_budget)
    m = tuple(marking)
    return not any(mleq(b, m) for b in basis)


def _fates(graph):
    """The strongly connected components of a completed reach graph, each
    node's component, and per component c the transitions `dead` there
    (enabled at no reachable node) and the `nonlive` ones (dead at some
    reachable node), as bitmasks over transition indices.

    One condensation pass: Tarjan emits sink components first, so each
    component ORs the transitions enabled at its nodes with what the
    components below it already enable.
    """
    full = (1 << len(graph.net.transitions)) - 1
    succ, node_en = graph.succ, graph.enabled
    comps = _tarjan(len(succ), succ)
    comp_of = [-1] * len(succ)
    enabled, dead, nonlive = [], [], []
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
        en = below = 0
        for v in comp:
            en |= node_en[v]
            for w in succ[v]:
                c = comp_of[w]
                if c != ci:
                    en |= enabled[c]
                    below |= nonlive[c]
        enabled.append(en)
        dead.append(full & ~en)
        nonlive.append(below | full & ~en)
    return comps, comp_of, dead, nonlive


def is_live_exact(net, m0, node_budget=200_000):
    """Exact liveness by exploration: from every reachable marking, every
    transition must remain coverable.  Intended for conservative nets or any
    net whose reachability set fits the budget, else returns BudgetExceeded."""
    try:
        g = reach_graph(net, m0, node_budget)
    except BudgetExceeded as exc:
        return exc
    return not any(_fates(g)[2])


def _dl_node(graph):
    """First node, in index order, where every transition is dead or live and
    at least one is dead: (node, dead transition bitmask, sink), or None
    iff the root is live; the other transitions are live there.  `sink` is
    `_first_sink` from the node."""
    comps, comp_of, dead, nonlive = _fates(graph)
    firsts = [comp[0] for comp, d, nl in zip(comps, dead, nonlive) if d and not nl & ~d]
    if not firsts:
        return None
    v = min(firsts)
    return v, dead[comp_of[v]], _first_sink(graph.succ, comps, comp_of, v)


def _first_sink(succ, comps, comp_of, v):
    """The first sink component, a sorted node list, that a depth-first
    preorder from node v enters, following `succ` in order: the component
    Tarjan's search from v alone emits first."""
    sinks = {}  # component -> whether no edge leaves it
    seen = set()
    stack = [v]
    while True:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        c = comp_of[v]
        if c not in sinks:
            sinks[c] = all(comp_of[w] == c for u in comps[c] for w in succ[u])
        if sinks[c]:
            return comps[c]
        stack.extend(reversed(succ[v]))


# ---------------------------------------------------------------------------
# Witnesses.

@dataclass(frozen=True)
class Witness:
    """`path` leads from the queried marking m0 to `m_wit` in the space that
    found it: `()` from m0 or `truncate(net, m0)`; capped search steps from
    `capped_config(net, m0)` (`capped_successors`: "+p" regains a token on
    saturated p); reach-graph firings from `truncate(net, m0)`."""
    m_wit: tuple
    p_cruc: tuple       # place names, declaration order
    t_dead: tuple       # transition names, declaration order
    path: tuple = None  # optional

    @classmethod
    def from_hit(cls, net, hit, m_wit, path=()):
        """The witness of a `WitnessIndex.witness_at` hit at `m_wit`."""
        data, dead = hit
        return cls(m_wit=m_wit,
                   p_cruc=tuple(net.places[i] for i in data.indices),
                   t_dead=tuple(net.transitions[ti] for ti in sorted(dead)),
                   path=path)

    def to_dict(self):
        return {
            "m_wit": list(self.m_wit),
            "p_cruc": list(self.p_cruc),
            "t_dead": list(self.t_dead),
            "path": None if self.path is None else list(self.path),
        }


@dataclass(frozen=True)
class WitnessReport:
    variant: str
    cond1: bool
    cond2: bool
    cond3: bool

    @property
    def sound(self):
        return self.cond2 and self.cond3

    def to_dict(self):
        return {"variant": self.variant, "cond1": self.cond1, "cond2": self.cond2,
                "cond3": self.cond3, "sound": self.sound}


def check_witness(net, witness, variant=None, node_budget=200_000):
    """Check the three witness conditions; cond1 is diagnostic only.

    cond2 and cond3 together certify non-liveness of any marking that can
    reach `m_wit` in the full net.  cond3 explores the restriction firing
    every non-dead transition, in T_I or not, within `node_budget` states.
    `variant` defaults to the net's own: "ordinary" when it is, else
    "weighted".
    """
    if variant is None:
        variant = "ordinary" if classify(net).ordinary else "weighted"
    if variant not in ("ordinary", "weighted"):
        raise NetError(f"unknown witness variant {variant!r}")
    net.check_marking(witness.m_wit)
    for p in witness.p_cruc:
        if p not in net.place_index:
            raise UnknownNode(f"unknown place {p!r}")
    for t in witness.t_dead:
        if t not in net.trans_index:
            raise UnknownNode(f"unknown transition {t!r}")
    if not witness.t_dead:
        raise NetError("witness requires a nonempty dead set")
    if any(len(set(names)) < len(names) for names in (witness.p_cruc, witness.t_dead)):
        raise NetError("witness lists a place or transition twice")

    mask = sum(1 << net.place_index[p] for p in witness.p_cruc)
    dead = sum(1 << net.trans_index[t] for t in witness.t_dead)
    alive = (1 << len(net.transitions)) - 1 & ~dead
    # every non-dead transition fires, each adding at most `gain` tokens, so
    # no count passes the start's total plus `node_budget` times that, and
    # the fields hold the arc weights too
    table = _move_table(net)
    gain = max((sum(x for _, x in d if x > 0) for d in table.deltas), default=0)
    fields = _Fields(table, net.max_weight + sum(witness.m_wit) + node_budget * gain)
    blocked = _blocked(table.deltas, [mask >> i & 1 for i in range(len(net.places))], 1)
    data = _SubsetData(mask, sum(b << ti for ti, b in enumerate(blocked)), fields, alive)
    r = data.take(tuple(witness.m_wit))
    if variant == "ordinary":
        cond1 = msize(r) < len(r) and all(x <= 1 for x in r)
    else:
        cond1 = all(x <= net.max_weight for x in r)
    cond2 = not data.blockers & alive
    watch = [(ti, data.covers[ti]) for ti in range(len(net.transitions)) if dead >> ti & 1]
    start = fields.pack(witness.m_wit) & data.keep
    cond3 = WitnessIndex._explore(data, start, watch, dead, node_budget) is not None
    return WitnessReport(variant=variant, cond1=cond1, cond2=cond2, cond3=cond3)


# ---------------------------------------------------------------------------
# Witness search.  For each candidate set S of crucial places, let T_I be the
# transitions whose restriction to S still only moves one token; exploring the
# restriction with T_I and collecting the set E of transitions whose
# restricted pre-mset ever gets covered, S yields a witness exactly when
# E stays inside T_I and misses some transition.  The dead set is then the
# canonical D = T minus E, which subsumes every witness on (marking, S).
# Only siphons can carry one: a transition with no pre-place in S is always
# covered, so it must be in T_I, and a T_I transition that reads nothing on S
# writes nothing on S either.  The abstract probe (`WitnessIndex.probe`)
# asks the same lookup on the states of an over-approximation.  One record
# per siphon, built when a lookup first explores it, holds what the search
# learns about it, and the witness index holds the records with the memos of
# whole-marking lookups.

class _Fields:
    """Restricted markings packed in one int: place i's count in field i,
    `bits` bits wide, whose top bit is a guard that no count up to `limit`
    (at least the largest arc weight) sets, so that a code r covers x,
    field by field, iff ((r | guards) - x) & guards == guards: no field
    borrows from the next.  pre[ti], plus[ti] and minus[ti] pack transition
    ti's pre-mset and the gains and losses of its delta."""

    __slots__ = ("bits", "limit", "units", "guards", "pre", "plus", "minus")

    def __init__(self, table, limit):
        self.bits = bits = limit.bit_length() + 1
        self.limit = (1 << bits - 1) - 1
        self.units = units = [1 << bits * i for i in range(len(table.first))]
        self.guards = sum(units) << bits - 1
        self.pre = [sum([w << bits * i for i, w in pre]) for pre in table.pre]
        self.plus, self.minus = plus, minus = [], []
        for delta in table.deltas:
            gains = losses = 0
            for i, x in delta:
                if x > 0:
                    gains += x << bits * i
                else:
                    losses -= x << bits * i
            plus.append(gains)
            minus.append(losses)

    def pack(self, marking):
        return sum(map(mul, marking, self.units))


def _blocked(deltas, contains, every):
    """Per transition, the bits of `every` whose subset (contains[i] holding
    the subsets with place i) leaves the transition out of its T_I.  The
    subsets are split by the (gain, min(lost, 2)) of the transition's delta
    on them, one place of the delta at a time."""
    out = []
    for delta in deltas:
        split = {(0, 0): every}
        for i, x in delta:
            inside = contains[i]
            if inside:
                parts = {}
                for (gain, lost), bits in split.items():
                    for key, part in (((gain, lost), bits & ~inside),
                                      ((gain + x, min(lost - x, 2) if x < 0 else lost),
                                       bits & inside)):
                        if part:
                            parts[key] = parts.get(key, 0) | part
                split = parts
        blocked = 0
        for (gain, lost), bits in split.items():
            if gain or lost > 1:  # T_I: the tokens entering equal those leaving, at most one
                blocked |= bits
        out.append(blocked)
    return out


class _SubsetData:
    """What the witness search learns about one subset S of places.  A
    restricted marking is one `_Fields` code whose fields off S are 0, a
    whole marking's code ANDed with `keep`; `covers[ti]` is transition ti's
    restricted pre-mset and `fire` the (pre-mset, plus - minus) codes of
    the transitions that fire on S, in ascending order: those of T_I with a
    restricted pre-mset, and those of `moving` outside T_I too."""

    __slots__ = ("indices", "take", "blockers", "keep", "guards", "covers", "fire", "memo",
                 "clean", "drains")

    def __init__(self, mask, blockers, fields, moving=0):
        # bit i of `mask` set iff place i is in the subset, bit ti of
        # `blockers` iff transition ti is outside its T_I
        self.indices = indices = tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
        # the restriction of a marking tuple to the subset, as a tuple (a slice
        # where an itemgetter of one index, or of none, would not give one)
        top = mask.bit_length()
        self.take = (itemgetter(*indices) if len(indices) > 1
                     else itemgetter(slice(top - len(indices), top)))
        self.blockers = blockers
        self.memo = {}  # restricted code -> `WitnessIndex.dead_set` answer
        # restricted codes where an exploration answered None, none of them
        # dominating an earlier one
        self.clean = []
        self.drains = None  # (weights, plan), filled by `slp._drains`
        self.pack(fields, moving)

    def pack(self, fields, moving=0, old=None):
        """Build the codes at `fields`; with the `old` fields, move the memo
        keys and clean points over from them."""
        self.keep = keep = sum(fields.units[i] for i in self.indices) * fields.limit
        self.guards = fields.guards
        blockers = self.blockers
        self.covers = covers = tuple([pre & keep for pre in fields.pre])
        self.fire = tuple([(c, (fields.plus[ti] & keep) - (fields.minus[ti] & keep))
                           for ti, c in enumerate(covers)
                           if (moving >> ti & 1 if blockers >> ti & 1 else c)])
        if old is not None:
            shifts = [(old.bits * i, fields.units[i]) for i in self.indices]

            def move(code):
                return sum((code >> s & old.limit) * u for s, u in shifts)

            self.memo = {move(r): dead for r, dead in self.memo.items()}
            self.clean = [move(r) for r in self.clean]


class WitnessIndex:
    """Per-net record of the witness search: one `_SubsetData` per siphon
    that a lookup explored, the `witness_at` memo and clean floor, the
    abstract probe and its memo.

    The probe explores an over-approximation whose counts are exact below a
    small threshold m or TOP (= at least m).  Firing is always possible from
    TOP values; a TOP value drained by one token (`is_nonlive` admits only
    nets whose transitions take at most one) branches into "still TOP" and
    "exactly m-1".  Every reachable real marking is represented, so a run
    without witness states proves liveness.  Witness states keep at most w
    tokens per crucial place, so any m > w detects them all; m = w + 2 keeps
    slightly more precision, which avoids most spurious drains on live
    markings.
    """

    def __init__(self, net):
        self.table = table = _move_table(net)
        self.m = m = net.max_weight + 2  # TOP sentinel; any value >= m means "many"
        # A probe state is one `Markings` code of fields that hold m: a byte
        # while m fits one.  `kinds` maps a byte to its class: 0, one class
        # per byte of m's field, 255 for any other.  A field's classes tell
        # whether it is 0, TOP or exact, so a state's bytes translated by
        # `kinds` key which of its places are unmarked, exact or TOP
        # (`_shape`).
        n = len(net.places)
        self.codec = codec = Markings((), m, n)
        kinds = bytearray(b"\xff") * 256
        for j, v in enumerate(sorted({0, *m.to_bytes(codec.width, sys.byteorder)})):
            kinds[v] = j
        self.kinds = bytes(kinds)
        # abstract state -> witness targets reachable from it; () = proven clean
        self.reach = {}
        # the siphons, place i at bit n-1-i (`_siphon_masks`); records[e] is
        # entry e's `_SubsetData`, built when a lookup first explores it
        self.entries = _siphon_masks(net)
        self.records = [None] * len(self.entries)
        # entry bitmasks, bit e for self.entries[e]: contains[i] holds the
        # entries with place i, column i of the entries spelt out (the last
        # one first), and blocked[ti] those with ti outside their T_I
        rows = [format(s, f"0{n}b") for s in reversed(self.entries)]
        self.contains = [int("".join(c), 2) for c in zip(*rows)] if rows else [0] * n
        self.blocked = _blocked(table.deltas, self.contains, (1 << len(self.entries)) - 1)
        # (pre arcs, blocked) of the transitions outside some entry's T_I
        self.blocking = tuple((pre, bits) for pre, bits in zip(net._pre, self.blocked) if bits)
        # heavy[i]: the largest weight any transition reads from place i, else 0
        self.heavy = heavy = [0] * n
        for pre in net._pre:
            for i, w in pre:
                if w > heavy[i]:
                    heavy[i] = w
        # the records' codes hold the token total of any capped configuration
        # (`slp.cap_value` a place); `_widen` re-packs them for a larger one
        self.fields = _Fields(table, 2 * net.max_weight * n * n)
        self.at_memo = {}
        # clean floor (`_floor_add`), bit k for point k: floor[i][v] holds the
        # points with an exact count of at most v on place i, for v below top
        # = floor_top, and floor[i][top] every point; made at the first point
        self.floor, self.floor_top = [], min(m, FLOOR_TOP)

    def dead_set(self, data, r, node_budget=1_000_000):
        """Canonical dead set for (subset, restricted marking) or None.

        None is closed upward in r: the T_I firings are monotone, so the
        transitions ever covered only grow with r, and both grounds for None
        (a transition outside T_I covered, or every transition covered)
        persist.  A restriction that dominates a point of `data.clean` is
        therefore answered None without exploring.  Answers are memoised in
        `data.memo`; r is the restriction's code."""
        memo = data.memo
        hit = memo.get(r, 0)
        if hit != 0:
            return hit
        guards = data.guards
        g = r | guards
        for c in data.clean:
            if (g - c) & guards == guards:
                memo[r] = None
                return None
        dead = memo[r] = self._explore(data, r, enumerate(data.covers), data.blockers,
                                       node_budget)
        if dead is None:
            data.clean.append(r)
        return dead

    @staticmethod
    def _explore(data, r, watch, fail, node_budget):
        """The restricted exploration behind `dead_set` and `check_witness`:
        from the code r, fire `data.fire` and collect the (transition,
        restricted pre-mset) pairs of `watch` never covered; None as soon as
        a transition of the `fail` mask is covered or every pair is, since
        the answer is then None when exploring to the end too."""
        guards, fire = data.guards, data.fire
        uncovered = list(watch)
        seen = {r}
        queue = deque([r])
        explored = 0
        while queue:
            m = queue.popleft()
            explored += 1
            if explored > node_budget:
                raise BudgetExceeded(explored)
            g = m | guards
            rest = []
            for item in uncovered:
                if (g - item[1]) & guards != guards:
                    rest.append(item)
                elif fail >> item[0] & 1:
                    return None
            uncovered = rest
            if not uncovered:
                return None
            for pre, delta in fire:
                if (g - pre) & guards == guards:
                    nm = m + delta
                    if nm not in seen:
                        seen.add(nm)
                        queue.append(nm)
        return frozenset(ti for ti, _ in uncovered)

    def witness_at(self, marking, inexact=0, node_budget=1_000_000):
        """First witness at the marking in (size, lex) subset order, as
        (subset record, dead transition indices), or None.  Subsets touching
        a place of the `inexact` bitmask are skipped: their counts there are
        only known to be large.  A lookup at or above a clean floor point
        (an inexact place is above any count) has no witness.  Before any
        exploration, bitmasks over all subsets at once reject those that
        fail at the start, where `dead_set` would answer None at its first
        state: a subset with no poor place (one holding fewer tokens than
        some transition reads from it) has every restricted pre-mset
        covered, and on some others a transition outside T_I is covered.
        Both grounds are closed upward in the marking, like that None.
        Floor answers and `at_memo` hits cost nothing against `node_budget`;
        each restricted exploration may visit `node_budget` states and
        raises BudgetExceeded beyond that."""
        key = (marking, inexact)
        hit = self.at_memo.get(key, 0)
        if hit != 0:
            return hit
        if self.floor:
            # AND the points at most the lookup: column top (every point) at
            # an inexact place, min(x, top - 1) at an exact count x
            top, below, bits = self.floor_top, -1, inexact
            for col, x in zip(self.floor, marking):
                below &= col[top if bits & 1 else x if x < top else top - 1]
                if not below:
                    break
                bits >>= 1
            else:
                self.at_memo[key] = None
                return None
        # `poor` holds the entries with a poor place.  `rejected` holds those
        # touching an inexact place, and for each transition ti the entries
        # with ti outside T_I (blocked[ti]) that hold no place where the
        # marking has fewer tokens than ti reads.
        contains = self.contains
        poor = rejected = 0
        for x, h, bits in zip(marking, self.heavy, contains):
            if x < h:
                poor |= bits
        while inexact:
            low = inexact & -inexact
            inexact ^= low
            rejected |= contains[low.bit_length() - 1]
        for support, blocked in self.blocking:
            short = 0
            for i, w in support:
                if marking[i] < w:
                    short |= contains[i]
            rejected |= blocked & ~short if short else blocked
        live = explored = poor & ~rejected
        found = None
        if live:
            fields = self.fields
            total = sum(marking)
            if total > fields.limit:
                fields = self._widen(total)
            code = fields.pack(marking)  # every field of the marking, once
            records = self.records
        while live:
            low = live & -live
            live ^= low
            e = low.bit_length() - 1
            data = records[e] or self._record(e)
            dead = self.dead_set(data, code & data.keep, node_budget)
            if dead:
                found = (data, dead)
                break
        if explored and found is None:
            self._floor_add(marking, key[1])
        self.at_memo[key] = found
        return found

    def _record(self, e):
        """Entry e's record, built on its first use: its `blockers` read
        off `blocked`, its codes at the index's fields."""
        blockers = sum(1 << ti for ti, bits in enumerate(self.blocked) if bits >> e & 1)
        mask = int(format(self.entries[e], f"0{len(self.contains)}b")[::-1], 2)
        data = self.records[e] = _SubsetData(mask, blockers, self.fields)
        return data

    def _widen(self, total):
        """Re-pack the built records at fields that hold `total` tokens: a
        restricted exploration keeps the token total of its start."""
        old, self.fields = self.fields, _Fields(self.table, total)
        for data in self.records:
            if data is not None:
                data.pack(self.fields, old=old)
        return self.fields

    def _floor_add(self, marking, inexact):
        """Store a lookup that explored in vain as a floor point, top on its
        inexact places, unless the floor is full (`FLOOR_CAP`) or an exact
        count is top or more, which no column below top holds."""
        top, floor = self.floor_top, self.floor
        point = [top if inexact >> i & 1 else x if x < top else -1 for i, x in enumerate(marking)]
        k = floor[0][top].bit_length() if floor else 0  # column top holds every point
        if -1 in point or k >= FLOOR_CAP:
            return
        if not floor:
            floor.extend([0] * (top + 1) for _ in marking)
        bit = 1 << k
        for low, col in zip(point, floor):
            for v in range(low, top + 1):
                col[v] |= bit

    def _shape(self, c, interned):
        """(TOP mask, moves) of the states whose places are unmarked, exact
        or TOP as in the counts `c`.  The moves are those of the transitions
        that can be enabled there, in ascending order, each as (tests,
        delta, caps, drain): the `rest` arcs that an exact count may fail;
        the packed change on the exact places; (place, change, unit) where a
        gain of two or more may pass m; and the unit of the last TOP place
        that loses a token, else 0.  The dict `interned` keeps the moves, so
        that shapes alike on a transition's places share its move."""
        m, units = self.m, self.codec.units
        deltas, first, todo, _, last, rest = self.table
        many = a = b = 0
        for i, x in enumerate(c):
            if x:
                a |= first[i]
                b |= last[i]
                if x >= m:
                    many |= 1 << i
        todo |= a & b
        moves = []
        while todo:
            low = todo & -todo
            todo ^= low
            ti = low.bit_length() - 1
            tests = []
            for i, w in rest[ti]:
                if not c[i]:
                    break  # never enabled on this shape
                if w > 1 and c[i] < m:
                    tests.append((i, w))
            else:
                delta = drain = 0
                caps = []
                for i, d in deltas[ti]:
                    if c[i] >= m:
                        if d < 0:
                            drain = units[i]
                    else:
                        delta += d * units[i]
                        if d > 1:
                            caps.append((i, d, units[i]))
                move = (tuple(tests), delta, tuple(caps), drain)
                moves.append(interned.setdefault(move, move))
        return many, tuple(moves)

    def _step(self, code, c, moves):
        """The successors of the probe state `code`, whose counts are `c`
        and `moves` its shape's.  Each enabled transition gives its
        successor, exact counts capped at TOP and TOP places kept TOP, then,
        when it drains a TOP place, the same with that place at exactly
        m-1."""
        m = self.m
        out = []
        for tests, delta, caps, drain in moves:
            for i, w in tests:
                if c[i] < w:
                    break
            else:
                nxt = code + delta
                for i, d, u in caps:
                    over = c[i] + d - m
                    if over > 0:
                        nxt -= over * u
                out.append(nxt)
                if drain:
                    out.append(nxt - drain)
        return out

    def abstract_successors(self, code):
        """`_step` at the probe state `code`, in the order the probe lists
        the successors."""
        c = self.codec.unpack(code)
        return self._step(code, c, self._shape(c, {})[1])

    def probe(self, marking, node_budget):
        """(witness targets, abstract states explored).  No targets is a
        proof of liveness.

        Outcomes are memoised per abstract state, so the probes of one net
        share their work: the search skips states proven clean and stops at
        a state already known to reach targets, taking those over.  A
        start answered from the memo explores nothing.
        """
        m = self.m
        start = self.codec.pack([x if x < m else m for x in marking])
        reach = self.reach
        targets = reach.get(start)
        explored = 0
        if targets is None:
            targets, explored = self._search(start, node_budget)
            reach[start] = targets
        return list(targets), explored

    def _search(self, start, node_budget):
        reach, witness_at = self.reach, self.witness_at
        codec, order, kinds = self.codec, sys.byteorder, self.kinds
        units, size = codec.units, codec.size
        # bytes read as byte counts already; the cast that wider fields need
        # would cost byte fields about 5 % of the search
        fmt = None if codec.fmt == "B" else codec.fmt
        shape, step = self._shape, self._step
        shapes = {}  # a state's bytes translated by `kinds` -> its `_shape`
        interned = {}  # the moves of those shapes
        seen = {start}
        queue = deque([start])
        # The states and token totals of the states expanded clean: looked up
        # with answer None, or skipped below.  None is closed upward, so a
        # state that dominates a clean one, "many" counting as the largest
        # value, is clean and needs no lookup.  code - units[i] is the state
        # one token lower on a marked place i, a TOP value m dropping to
        # exactly m-1; such a neighbour holds one token fewer in all, which
        # most states of a conservative net rule out at once.
        clean = set()
        totals = set()
        targets = []
        explored = 0
        while queue:
            code = queue.popleft()
            explored += 1
            if explored > node_budget:
                raise BudgetExceeded(explored)
            b = code.to_bytes(size, order)
            c = b if fmt is None else memoryview(b).cast(fmt)
            key = b.translate(kinds)
            many, moves = shapes.get(key) or shapes.setdefault(key, shape(c, interned))
            total = sum(c)
            for u in compress(units, c) if total - 1 in totals else ():
                if code - u in clean:
                    break
            else:
                s = tuple(c)
                hit = witness_at(s, many, node_budget)
                if hit:
                    data = hit[0]
                    targets.append((data, data.take(s)))
                    if len(targets) >= 8:
                        return tuple(targets), explored
                    continue
            clean.add(code)
            totals.add(total)
            for nxt in step(code, c, moves):
                if nxt in seen:
                    continue
                known = reach.get(nxt)
                if known is None:
                    seen.add(nxt)
                    queue.append(nxt)
                elif known:
                    return tuple(targets + list(known))[:8], explored
        if not targets:
            # the explored region is closed under successors up to states
            # already proven clean, so all of it is clean
            reach.update(dict.fromkeys(seen, ()))
        return tuple(targets), explored


def witness_index(net):
    n = len(net.places)
    if n > SUBSET_CAP:
        raise SubsetCapExceeded(f"|P|={n} exceeds the subset cap {SUBSET_CAP}")
    cache = net._analysis
    idx = cache.get("witness_index")
    if idx is None:
        idx = WitnessIndex(net)
        cache["witness_index"] = idx
    return idx


def find_witness(net, marking):
    """Search every siphon for a witness at the given marking."""
    net.check_marking(marking)
    marking = tuple(marking)
    hit = witness_index(net).witness_at(marking)
    return None if hit is None else Witness.from_hit(net, hit, marking)


def constructed_witness(net, graph):
    """Build a witness on a completed reach graph without subset enumeration.

    Finds a reachable marking where the transition set splits into dead and
    live parts, walks the live part down to a bottom component with maximal
    carrier, and takes as the crucial places the poor strongly connected
    components of the place graph whose edges are the live transitions'
    relaxed arcs: a component of k places is poor when it holds fewer than k
    tokens.  Works for nets too large for subset search.
    """
    res = _dl_node(graph)
    if res is None:
        return None
    _, dead, sink = res

    # the carrier size of a node is the number of its marked places
    nodes = graph.nodes
    v_star = max(sink, key=lambda v: (len(nodes[v]) - nodes[v].count(0), -v))
    m_star = nodes[v_star]

    # the dummy of an empty pre-set holds its one token, and place-free
    # components hold none of none, so neither is ever poor
    arcs = relaxed_arcs(net)
    succ = [[] for _ in net.places]
    for ti, (src, dests) in enumerate(arcs):
        if src is not None and not dead >> ti & 1:
            succ[src].extend(dests)
    cruc = []
    for comp in _tarjan(len(net.places), succ):
        if sum(m_star[i] for i in comp) < len(comp):
            cruc.extend(comp)
    return Witness(
        m_wit=m_star,
        p_cruc=tuple(net.places[i] for i in sorted(cruc)),
        t_dead=tuple(t for ti, t in enumerate(net.transitions) if dead >> ti & 1),
        path=graph.path_to(v_star),
    )
