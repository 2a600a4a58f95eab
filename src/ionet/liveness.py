"""Liveness decisions on explicit state spaces, and non-liveness witnesses.

A witness is a triple (marking, crucial places, dead transitions) that can be
checked locally: restricted to the crucial places, every non-dead transition
moves single tokens (so the restriction is conservative and its state space
finite), and no dead transition's restricted pre-mset is ever coverable.
Soundness: anything dead in the restriction is dead in the full net, because
ignored places can be imagined as holding arbitrarily many tokens.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import itemgetter

from .classify import is_imo_msets
from .nets import (BudgetExceeded, NetError, UnknownNode, _move_table, _walk, mleq,
                   msize, carrier, place_masks, post_mset, pre_mset, successors)
from .structure import _is_siphon_mask, _tarjan, relaxed_arcs


SUBSET_CAP = 16  # the witness index enumerates every place subset, 2^|P|


class SubsetCapExceeded(NetError):
    pass


class ReachGraph:
    """Reachability graph: markings as nodes, firings as labeled edges."""

    def __init__(self, net, root):
        self.net = net
        self.root = tuple(root)
        self.nodes = [self.root]
        self.index = {self.root: 0}
        self.succ = [[]]           # per node: (transition, dst_index)
        self.parent = [None]       # (src_index, transition) BFS tree

    def path_to(self, v):
        out = []
        while self.parent[v] is not None:
            u, t = self.parent[v]
            out.append(t)
            v = u
        return tuple(reversed(out))


def reach_graph(net, m0, node_budget=200_000):
    """Breadth-first closure under firing; raises BudgetExceeded past `node_budget` nodes."""
    net.check_marking(m0)
    g = ReachGraph(net, m0)
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for ti, nm in successors(net, g.nodes[v]):
            t = net.transitions[ti]
            j = g.index.get(nm)
            if j is None:
                if len(g.nodes) >= node_budget:
                    raise BudgetExceeded(len(g.nodes))
                j = len(g.nodes)
                g.index[nm] = j
                g.nodes.append(nm)
                g.succ.append([])
                g.parent.append((v, t))
                queue.append(j)
            g.succ[v].append((t, j))
    return g


def cover_basis(net, target, node_budget=200_000):
    """Minimal markings from which `target` is coverable (backward search).

    Exact for arbitrary nets; terminates by well-quasi-ordering of markings.
    """
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
    """Per node of a completed reach graph, the transitions `dead` there
    (enabled at no reachable node) and the `nonlive` ones (dead at some
    reachable node), as bitmasks over transition indices.

    One condensation pass: Tarjan emits sink components first, so each
    component ORs the labels of its outgoing edges with what the components
    below it already enable.
    """
    net = graph.net
    bit = {t: 1 << ti for ti, t in enumerate(net.transitions)}
    full = (1 << len(net.transitions)) - 1
    comps = _tarjan(len(graph.nodes), [[w for _, w in out] for out in graph.succ])
    comp_of = [-1] * len(graph.nodes)
    enabled, dead, nonlive = [], [], []
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
        en = below = 0
        for v in comp:
            for t, w in graph.succ[v]:
                en |= bit[t]
                c = comp_of[w]
                if c != ci:
                    en |= enabled[c]
                    below |= nonlive[c]
        enabled.append(en)
        dead.append(full & ~en)
        nonlive.append(below | full & ~en)
    return [dead[c] for c in comp_of], [nonlive[c] for c in comp_of]


def is_live_exact(net, m0, node_budget=200_000):
    """Exact liveness by exploration: from every reachable marking, every
    transition must remain coverable.  Intended for conservative nets or any
    net whose reachability set fits the budget, else returns BudgetExceeded."""
    try:
        g = reach_graph(net, m0, node_budget)
    except BudgetExceeded as exc:
        return exc
    dead, _ = _fates(g)
    return not any(dead)


def _dl_node(graph):
    """First node, in index order, where every transition is dead or live and
    at least one is dead: (node, dead names, live names), or None iff the
    root is live."""
    net = graph.net
    dead, nonlive = _fates(graph)
    for v, (d, nl) in enumerate(zip(dead, nonlive)):
        if d and not nl & ~d:
            return (v, tuple(t for ti, t in enumerate(net.transitions) if d >> ti & 1),
                    tuple(t for ti, t in enumerate(net.transitions) if not d >> ti & 1))
    return None


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
        indices, dead = hit
        return cls(m_wit=m_wit,
                   p_cruc=tuple(net.places[i] for i in indices),
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


def _sub(vec, indices):
    return tuple(vec[i] for i in indices)


def check_witness(net, witness, variant="ordinary", node_budget=200_000):
    """Check the three witness conditions; cond1 is diagnostic only.

    cond2 and cond3 together certify non-liveness of any marking that can
    reach `m_wit` in the full net.
    """
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

    indices = tuple(sorted(net.place_index[p] for p in witness.p_cruc))
    r = _sub(witness.m_wit, indices)
    if variant == "ordinary":
        cond1 = msize(r) < len(indices) and all(x <= 1 for x in r)
    else:
        cond1 = all(x <= net.max_weight for x in r)

    dead_idx = sorted(net.trans_index[t] for t in witness.t_dead)
    dead_set = set(dead_idx)
    alive_idx = [ti for ti in range(len(net.transitions)) if ti not in dead_set]
    vectors = [(_sub(pre_mset(net, t), indices), _sub(post_mset(net, t), indices))
               for t in net.transitions]

    cond2 = all(is_imo_msets(*vectors[ti]) for ti in alive_idx)

    cond3 = _restricted_never_covers(vectors, r, alive_idx, dead_idx, node_budget)
    return WitnessReport(variant=variant, cond1=cond1, cond2=cond2, cond3=cond3)


def _restricted_never_covers(vectors, r, fire_idx, watch_idx, node_budget):
    """Explore the restriction, given by each transition's restricted
    (pre, post) vectors, firing `fire_idx` only; fail if any watched
    transition's restricted pre-mset gets covered."""
    watch = [(ti, vectors[ti][0]) for ti in watch_idx]
    moves = []
    for ti in fire_idx:
        pre, post = vectors[ti]
        if any(pre) or any(post):
            moves.append((pre, tuple(q - p for p, q in zip(pre, post))))
    seen = {r}
    queue = deque([r])
    explored = 0
    while queue:
        m = queue.popleft()
        explored += 1
        if explored > node_budget:
            raise BudgetExceeded(explored)
        for _, wpre in watch:
            if mleq(wpre, m):
                return False
        for pre, delta in moves:
            if mleq(pre, m):
                nm = tuple(a + d for a, d in zip(m, delta))
                if nm not in seen:
                    seen.add(nm)
                    queue.append(nm)
    return True


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
# asks the same lookup on the states of an over-approximation, so one
# record per net holds every memo of the search.

class _SubsetData:
    __slots__ = ("indices", "take", "blockers", "fire", "covers", "clean")

    def __init__(self, table, mask):
        # `table`: the net's `MoveTable`; bit i of `mask` set iff place i is
        # in the subset
        self.indices = indices = tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
        # the restriction of a marking tuple to the subset, as a tuple (an
        # itemgetter of one index would return the bare count; a slice does not)
        self.take = (itemgetter(*indices) if len(indices) > 1
                     else itemgetter(slice(indices[0], indices[0] + 1)))
        pos = dict(zip(indices, range(len(indices))))
        self.blockers = 0  # bit ti set iff transition ti is outside T_I
        fire = []
        covers = []
        for ti, (pre, delta) in enumerate(zip(table.pre, table.deltas)):
            # the restricted pre-mset as (subset position, weight) pairs
            support = tuple([(pos[i], w) for i, w in pre if i in pos])
            covers.append(support)
            vec = [0] * len(indices)  # the restricted delta
            for i, x in delta:
                if i in pos:
                    vec[pos[i]] = x
            # T_I: as many tokens enter the subset as leave it, at most one
            if sum(vec) or sum([x for x in vec if x < 0]) < -1:
                self.blockers |= 1 << ti
            elif support:
                fire.append((support, tuple(vec)))
        self.fire = tuple(fire)
        self.covers = tuple(covers)
        # restricted markings where an exploration answered None, none of
        # them dominating an earlier one; a list from the first one on
        self.clean = ()


class WitnessIndex:
    """Per-net record of the witness search: siphon data, memoized
    restricted explorations, and the abstract probe with its memo.

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
        masks = place_masks(net)
        siphons = (s for s in range(1, 1 << len(net.places)) if _is_siphon_mask(masks, s))
        self.table = table = _move_table(net)
        self.m = net.max_weight + 2  # TOP sentinel; any value >= m means "many"
        # abstract state -> witness targets reachable from it; () = proven clean
        self.reach = {}
        self.entries = sorted((_SubsetData(table, s) for s in siphons),
                              key=lambda data: (len(data.indices), data.indices))
        # entry bitmasks, bit e for self.entries[e]: contains[i] holds the
        # entries with place i, blocked[ti] those with ti outside their T_I
        self.contains = [0] * len(net.places)
        self.blocked = [0] * len(net.transitions)
        for e, data in enumerate(self.entries):
            for i in data.indices:
                self.contains[i] |= 1 << e
            for ti in range(len(net.transitions)):
                if data.blockers >> ti & 1:
                    self.blocked[ti] |= 1 << e
        # (pre arcs, blocked) of the transitions outside some entry's T_I
        self.blocking = tuple((pre, bits) for pre, bits in zip(net._pre, self.blocked) if bits)
        self.memo = {}
        self.at_memo = {}

    def dead_set(self, data, r, node_budget=1_000_000):
        """Canonical dead set for (subset, restricted marking) or None.

        None is closed upward in r: the T_I firings are monotone, so the
        transitions ever covered only grow with r, and both grounds for None
        (a transition outside T_I covered, or every transition covered)
        persist.  A restriction that dominates a point of `data.clean` is
        therefore answered None without exploring."""
        key = (data.indices, r)
        hit = self.memo.get(key, 0)
        if hit != 0:
            return hit
        for c in data.clean:
            for a, b in zip(c, r):
                if a > b:
                    break
            else:
                self.memo[key] = None
                return None
        dead = self._explore(data, r, node_budget)
        self.memo[key] = dead
        if dead is None:
            if data.clean:
                data.clean.append(r)
            else:
                data.clean = [r]
        return dead

    @staticmethod
    def _explore(data, r, node_budget):
        """The restricted exploration behind `dead_set`.  It stops as soon as
        every transition is covered, since the dead set is then empty; the
        answer is the same as exploring to the end."""
        blockers = data.blockers
        uncovered = list(enumerate(data.covers))
        seen = {r}
        queue = deque([r])
        explored = 0
        while queue:
            m = queue.popleft()
            explored += 1
            if explored > node_budget:
                raise BudgetExceeded(explored)
            rest = []
            for item in uncovered:
                for k, w in item[1]:
                    if m[k] < w:
                        rest.append(item)
                        break
                else:
                    if blockers >> item[0] & 1:
                        return None
            uncovered = rest
            if not uncovered:
                return None
            for pre, delta in data.fire:
                for k, w in pre:
                    if m[k] < w:
                        break
                else:
                    nm = tuple(a + d for a, d in zip(m, delta))
                    if nm not in seen:
                        seen.add(nm)
                        queue.append(nm)
        return frozenset(ti for ti, _ in uncovered)

    def witness_at(self, marking, inexact=0, node_budget=1_000_000):
        """First witness at the marking in (size, lex) subset order, as
        (place indices, dead transition indices), or None.  Subsets touching
        a place of the `inexact` bitmask are skipped: their counts there are
        only known to be large.  Each restricted exploration may visit
        `node_budget` states; raises BudgetExceeded beyond that."""
        key = (marking, inexact)
        hit = self.at_memo.get(key, 0)
        if hit != 0:
            return hit
        # Reject the entries touching an inexact place, and those on which some
        # transition outside T_I is covered at the start: it is short on no
        # place of the entry, so `dead_set` would answer None at once.  A
        # transition ti rejects the entries with ti outside T_I (blocked[ti])
        # that hold no place where the marking has fewer tokens than ti reads.
        contains = self.contains
        rejected = 0
        for i, c in enumerate(contains):
            if inexact >> i & 1:
                rejected |= c
        for support, blocked in self.blocking:
            short = 0
            for i, w in support:
                if marking[i] < w:
                    short |= contains[i]
            rejected |= blocked & ~short if short else blocked
        live = ((1 << len(self.entries)) - 1) & ~rejected
        found = None
        while live:
            low = live & -live
            live ^= low
            data = self.entries[low.bit_length() - 1]
            dead = self.dead_set(data, data.take(marking), node_budget)
            if dead:
                found = (data.indices, dead)
                break
        self.at_memo[key] = found
        return found


    def abstract_successors(self, state):
        """(successor, dominates) pairs: `dominates` says the successor is at
        least `state` on every place, TOP being the largest value.  It fails
        when an exact place loses a token, and on the drained m-1 branch."""
        m = self.m
        out = []
        for _, delta in _walk(self.table, state):
            base = list(state)
            drain = None
            up = True
            for i, d in delta:
                v = state[i]
                if v == m:
                    if d < 0:
                        drain = i
                else:
                    x = v + d
                    base[i] = x if x < m else m
                    up &= d > 0
            out.append((tuple(base), up))
            if drain is not None:
                base[drain] = m - 1
                out.append((tuple(base), False))
        return out

    def probe(self, marking, node_budget):
        """(witness targets, abstract states explored).  No targets is a
        proof of liveness.

        Outcomes are memoised per abstract state, so the probes of one net
        share their work: the search skips states proven clean and stops at
        a state already known to reach targets, taking those over.  A
        start answered from the memo explores nothing.
        """
        m = self.m
        start = tuple(x if x < m else m for x in marking)
        reach = self.reach
        targets = reach.get(start)
        explored = 0
        if targets is None:
            targets, explored = self._search(start, node_budget)
            reach[start] = targets
        return list(targets), explored

    def _search(self, start, node_budget):
        reach, witness_at, m = self.reach, self.witness_at, self.m
        # state -> whether it dominates an expanded state, whose lookup found
        # no witness; None is closed upward, so such a state needs no lookup
        seen = {start: False}
        queue = deque([start])
        targets = []
        explored = 0
        while queue:
            s = queue.popleft()
            explored += 1
            if explored > node_budget:
                raise BudgetExceeded(explored)
            if not seen[s]:
                # only subsets on which every count is exact can be flagged
                hit = witness_at(s, sum(1 << i for i, x in enumerate(s) if x >= m),
                                 node_budget)
                if hit:
                    indices = hit[0]
                    targets.append((indices, tuple(s[i] for i in indices)))
                    if len(targets) >= 8:
                        return tuple(targets), explored
                    continue
            for nxt, up in self.abstract_successors(s):
                if nxt in seen:
                    if up:
                        seen[nxt] = True
                    continue
                known = reach.get(nxt)
                if known is None:
                    seen[nxt] = up
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
    v0, dead, live = res

    # a bottom SCC of the subgraph reachable from v0, where no dead
    # transition fires; Tarjan emits a sink component first
    reach = [v0]
    local = {v0: 0}
    for v in reach:
        for _, w in graph.succ[v]:
            if w not in local:
                local[w] = len(reach)
                reach.append(w)
    succ = [[local[w] for _, w in graph.succ[v]] for v in reach]
    nodes = [reach[v] for v in _tarjan(len(reach), succ)[0]]
    v_star = max(nodes, key=lambda v: (len(carrier(graph.nodes[v])), -v))
    m_star = graph.nodes[v_star]

    # the dummy of an empty pre-set holds its one token, and place-free
    # components hold none of none, so neither is ever poor
    arcs = relaxed_arcs(net)
    succ = [[] for _ in net.places]
    for t in live:
        src, dests = arcs[net.trans_index[t]]
        if src is not None:
            succ[src].extend(dests)
    cruc = []
    for comp in _tarjan(len(net.places), succ):
        if sum(m_star[i] for i in comp) < len(comp):
            cruc.extend(comp)
    return Witness(
        m_wit=m_star,
        p_cruc=tuple(net.places[i] for i in sorted(cruc)),
        t_dead=tuple(dead),
        path=graph.path_to(v_star),
    )
