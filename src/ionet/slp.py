"""Structural liveness: token bounds, truncation, capped non-liveness search.

The non-liveness decision explores a finite surrogate of the (generally
infinite) state space: counts are capped at 2*w*|P| and each place remembers
whether it ever hit the cap, in which case single tokens may be regained at
any time.  A marking is non-live exactly when some configuration of this
capped space carries a witness, so the decision is:

  1. a siphon shortcut (an unmarked siphon that some transition reads from
     yields an immediate witness),
  2. a small over-approximation where every count is either exact below
     w+2 or "many" (`WitnessIndex.probe`, memoised with the net's witness
     index): if no abstract state carries a witness the marking is live,
     since every real witness keeps at most w tokens per crucial place,
  3. an exact search of the capped space, guided toward the witness
     candidates found in step 2, which confirms non-liveness with a concrete
     capped path or proves liveness by exhausting the space.

Conservative nets too large for subset enumeration skip 2 and 3 and are
decided on their (finite) reachability graph directly.
"""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .classify import classify, NotBimo
from .liveness import (
    SUBSET_CAP, BudgetExceeded, Witness, check_witness, constructed_witness,
    cover_basis, reach_graph, witness_index,
)
from .nets import (Net, NetError, _move_table, _walk, mleq, place_masks, pre_mset,
                   successors)
from .structure import _shrink_siphon_mask, relaxed_arcs, unmarked_siphon


@dataclass(frozen=True)
class Bounds:
    """Per-class caps: live-marking component bound and liveness-determining bound."""
    first: int
    second: int


def bounds_for(net_class, p_count, w):
    """Table row for the finest class among the branching-observation family."""
    if net_class.imo and net_class.ordinary:
        return Bounds(1, 2 * p_count)
    if net_class.io:
        return Bounds(2, 4 * p_count)
    if net_class.imo:
        return Bounds(w, 2 * w * p_count)
    if net_class.bimo and net_class.ordinary:
        return Bounds(p_count, 2 * p_count)
    if net_class.bimo:
        return Bounds(w * p_count, 2 * w * p_count)
    raise NotBimo("bounds are defined for the branching-observation family only")


def cap_value(net):
    return 2 * net.max_weight * len(net.places)


def truncate(net, marking):
    """Cap every component at 2*w*|P|; liveness status is unaffected."""
    net.check_marking(marking)
    cap = cap_value(net)
    return tuple(x if x < cap else cap for x in marking)


# ---------------------------------------------------------------------------
# Capped configurations.

class CappedConfig(NamedTuple):
    counts: tuple
    saturated: int  # bit i set once place i overflowed the cap; never cleared


def capped_config(net, marking):
    """Initial configuration: cap counts and record which places overflowed."""
    counts = truncate(net, marking)
    flags = sum(1 << i for i, (x, c) in enumerate(zip(marking, counts)) if x > c)
    return CappedConfig(counts, flags)


def capped_successors(net, cfg):
    """(step label, configuration) for every one-step successor: each enabled
    firing, labelled by its transition and re-capped, then a token regained
    on each saturated place below the cap, labelled "+place"."""
    cap = cap_value(net)
    counts, sat = cfg
    out = []
    for ti, delta in _walk(_move_table(net), counts):
        raw = list(counts)
        flags = sat
        for i, d in delta:
            x = raw[i] + d
            if x > cap:
                x = cap
                flags |= 1 << i
            raw[i] = x
        out.append((net.transitions[ti], CappedConfig(tuple(raw), flags)))
    if sat:
        for i, p in enumerate(net.places):
            if sat >> i & 1 and counts[i] < cap:
                bumped = list(counts)
                bumped[i] += 1
                out.append((f"+{p}", CappedConfig(tuple(bumped), sat)))
    return out


def _admit(visited, cfg):
    """Record a configuration unless one already kept with the same counts
    saturates a superset of its places; drop the kept ones it dominates."""
    counts, flags = cfg
    kept = visited.get(counts)
    if kept is None:
        visited[counts] = [flags]
        return True
    for fm in kept:
        if fm | flags == fm:
            return False
    kept[:] = [fm for fm in kept if fm | flags != flags]
    kept.append(flags)
    return True


# ---------------------------------------------------------------------------
# Verdicts.

@dataclass(frozen=True)
class LivenessVerdict:
    status: str                # "live" | "nonlive" | "budget_exceeded"
    witness: Witness = None
    configs_explored: int = 0
    method: str = ""

    @property
    def is_live(self):
        return self.status == "live"

    @property
    def is_nonlive(self):
        return self.status == "nonlive"

    def to_dict(self):
        out = {"verdict": self.status, "stats": {"configs_explored": self.configs_explored},
               "method": self.method}
        if self.witness is not None:
            out["witness"] = self.witness.to_dict()
        return out


def _siphon_witness(net, marking):
    """Unmarked siphon read by some transition: an instant witness."""
    s = unmarked_siphon(net, marking)
    if not s:
        return None
    mask = sum(1 << net.place_index[p] for p in s)
    dead = tuple(t for t, (pre, _) in zip(net.transitions, place_masks(net))
                 if pre & mask)
    if not dead:
        return None
    return Witness(m_wit=tuple(marking), p_cruc=tuple(s), t_dead=dead, path=())


def _drain_weights(net, indices):
    """Steps for a token to leave the place set, following cheapest moves."""
    cache = net._analysis.setdefault("drain_weights", {})
    got = cache.get(indices)
    if got is not None:
        return got
    far = 4 * len(indices) + 8
    dist = {i: far for i in indices}
    changed = True
    while changed:
        changed = False
        for src, dests in relaxed_arcs(net):
            if src not in dist:
                continue
            if dests:
                best = 1 + min(dist.get(d, 0) for d in dests)
            else:
                best = 1
            if best < dist[src]:
                dist[src] = best
                changed = True
    out = tuple(dist[i] for i in indices)
    cache[indices] = out
    return out


def _heuristic(net, targets):
    """Distance estimate to the nearest witness candidate; surplus tokens on
    a crucial place are weighted by how many moves they need to leave it, so
    plain token conveyors descend strictly."""
    if not targets:
        return lambda counts: 0
    tables = []
    for indices, r in targets[:6]:
        weights = _drain_weights(net, indices)
        tables.append(tuple(zip(indices, r, weights)))

    def h(counts):
        best = -1
        for table in tables:
            d = 0
            for i, ri, wi in table:
                ci = counts[i]
                if ci > ri:
                    d += (ci - ri) * wi
                elif ci < ri:
                    d += ri - ci
            if best < 0 or d < best:
                best = d
                if best == 0:
                    break
        return best
    return h


def _drain_plan(net, indices):
    """Unconditional drain schedule for a place set, or None.

    Uses only transitions with a single unit pre-place missing from their
    post-set, which stay enabled while their source is marked, processed from
    the innermost places out; each step is (place, transition, sparse delta).
    A marking can be pushed along the plan by batched arithmetic; the result
    is a genuinely reachable capped configuration.
    """
    cache = net._analysis.setdefault("drain_plans", {})
    if indices in cache:
        return cache[indices]
    weights = dict(zip(indices, _drain_weights(net, indices)))
    arcs = relaxed_arcs(net)
    deltas = _move_table(net).deltas
    masks = place_masks(net)
    plan = []
    for i in sorted(indices, key=lambda i: -weights[i]):
        best = None
        for ti, pre in enumerate(net._pre):
            if pre != ((i, 1),) or masks[ti][1] >> i & 1:
                continue
            spawn = sum(weights.get(d, 0) for d in arcs[ti][1])
            if best is None or spawn < best[0]:
                best = (spawn, ti)
        if best is None:
            cache[indices] = None
            return None
        plan.append((i, best[1], deltas[best[1]]))
    cache[indices] = plan = tuple(plan)
    return plan


def _try_drains(net, start, targets, node_budget, idx):
    """Deterministically drain toward each witness candidate; cheap and
    sound (every batched step is a sequence of capped firings), but not
    complete."""
    cap = cap_value(net)
    for indices, _r in targets:
        plan = _drain_plan(net, indices)
        if plan is None:
            continue
        counts = list(start[0])
        path = []
        for _ in range(len(indices) + 1):
            moved = False
            for i, ti, delta in plan:
                k = counts[i]
                if not k:
                    continue
                for j, d in delta:
                    x = counts[j] + d * k
                    counts[j] = x if x < cap else cap
                path.extend([net.transitions[ti]] * k)
                moved = True
            if not moved:
                break
        final = tuple(counts)
        hit = idx.witness_at(final, node_budget=node_budget)
        if hit is not None:
            return Witness.from_hit(net, hit, final, tuple(path))
    return None


def _capped_closure(net, start, targets, node_budget, idx):
    """Exhaustive capped exploration, flag-dominance pruned, visiting the
    configurations in best-first order toward the witness candidates (plain
    breadth first without any).  Complete: returns (witness, explored), with
    the witness's path leading from `start`, or (None, explored) for a clean
    closure; raises BudgetExceeded."""
    h = _heuristic(net, targets)
    states = [start]
    parents = [-1]   # index of each state's parent in `states`
    labels = [None]  # step from the parent
    visited = {start.counts: [start.saturated]}
    heap = [(h(start.counts), 0)]  # ties go to the earlier state
    explored = 0
    while heap:
        if explored >= node_budget:
            raise BudgetExceeded(explored + 1)
        explored += 1
        _, k = heapq.heappop(heap)
        state = states[k]
        hit = idx.witness_at(state.counts, node_budget=node_budget)
        if hit is not None:
            path = []
            while parents[k] >= 0:
                path.append(labels[k])
                k = parents[k]
            return Witness.from_hit(net, hit, state.counts, tuple(reversed(path))), explored
        for label, nxt in capped_successors(net, state):
            if _admit(visited, nxt):
                heapq.heappush(heap, (h(nxt.counts), len(states)))
                states.append(nxt)
                parents.append(k)
                labels.append(label)
    return None, explored


def _conservative_large(net, m0, node_budget):
    """Exact decision on the reachability graph for nets too large for
    subset enumeration (conservative, so the graph is finite); raises
    BudgetExceeded."""
    g = reach_graph(net, m0, node_budget)
    # None exactly when no reachable marking has a dead transition
    wit = constructed_witness(net, g)
    if wit is None:
        return LivenessVerdict("live", configs_explored=len(g.nodes),
                               method="reach-graph")
    variant = "ordinary" if classify(net).ordinary else "weighted"
    try:
        report = check_witness(net, wit, variant=variant, node_budget=node_budget)
    except BudgetExceeded as exc:
        raise BudgetExceeded(len(g.nodes) + exc.explored) from exc
    if not report.sound:
        raise NetError("internal error: constructed witness failed validation")
    return LivenessVerdict("nonlive", witness=wit, configs_explored=len(g.nodes),
                           method="reach-graph")


def is_nonlive(net, m0, node_budget=500_000):
    """Decide liveness of a marking of a branching-observation-family net.

    Exact for every input that fits the budgets; budget exhaustion is
    reported, never silently treated as an answer.  `node_budget` bounds
    each search of the call on its own (the abstract probe, each restricted
    exploration of the witness index, the capped search, the reachability
    graph and its witness check), not their sum; answers memoised on the
    net by earlier calls cost nothing against it.  Conservative nets above
    `SUBSET_CAP` places are decided on their reachability graph, others
    raise `SubsetCapExceeded`.
    """
    nc = classify(net)
    if not nc.bimo:
        raise NotBimo("the liveness decision covers the branching-observation family")
    start = capped_config(net, m0)
    trunc = start.counts
    explored = 0

    wit = _siphon_witness(net, trunc)
    if wit is not None:
        return LivenessVerdict("nonlive", witness=wit, configs_explored=0,
                               method="siphon")

    large = len(net.places) > SUBSET_CAP and nc.conservative
    method = "reach-graph" if large else "abstract"
    try:
        if large:
            return _conservative_large(net, trunc, node_budget)
        idx = witness_index(net)
        targets, explored = idx.probe(trunc, node_budget)
        if not targets:
            return LivenessVerdict("live", configs_explored=explored, method=method)
        method = "capped-search"
        witness = _try_drains(net, start, targets, node_budget, idx)
        if witness is None:
            witness, n_configs = _capped_closure(net, start, targets, node_budget, idx)
            explored += n_configs
    except BudgetExceeded as exc:
        return LivenessVerdict("budget_exceeded", configs_explored=explored + exc.explored,
                               method=method)
    if witness is None:
        return LivenessVerdict("live", configs_explored=explored, method=method)
    return LivenessVerdict("nonlive", witness=witness, configs_explored=explored,
                           method=method)


def _decided_live(net, m, node_budget):
    """`is_nonlive(...).is_live`, raising BudgetExceeded on a
    `budget_exceeded` verdict instead of reading it as non-live."""
    v = is_nonlive(net, m, node_budget=node_budget)
    if v.status == "budget_exceeded":
        raise BudgetExceeded(v.configs_explored)
    return v.is_live


def find_dl_marking(net, m0, node_budget=200_000):
    """Some reachable marking where each transition is dead or live and at
    least one is dead; None iff m0 is live.  Raises BudgetExceeded when a
    search runs out, `node_budget` bounding each on its own.

    Deadness per marking is exact (backward coverability); a candidate
    qualifies when the net without its dead transitions is live there, which
    is equivalent because dead transitions never fire anyway.
    """
    net.check_marking(m0)
    if _decided_live(net, m0, node_budget):
        return None
    bases = [cover_basis(net, pre_mset(net, t), node_budget) for t in net.transitions]
    restricted = {}
    seen = {tuple(m0)}
    queue = deque(seen)
    explored = 0
    while queue:
        m = queue.popleft()
        explored += 1
        if explored > node_budget:
            raise BudgetExceeded(explored)
        dead = tuple(t for t, basis in zip(net.transitions, bases)
                     if not any(mleq(b, m) for b in basis))
        if dead:
            if dead not in restricted:
                keep = tuple(t for t in net.transitions if t not in dead)
                flow = {k: w for k, w in net.flow.items()
                        if k[0] in keep or k[1] in keep}
                restricted[dead] = Net(net.name + ".dl", net.places, keep, flow)
            sub = restricted[dead]
            if not sub.transitions or _decided_live(sub, m, node_budget):
                return m, dead, tuple(t for t in net.transitions if t not in dead)
        for _, nm in successors(net, m):
            if nm not in seen:
                seen.add(nm)
                queue.append(nm)
    raise BudgetExceeded(explored)


# ---------------------------------------------------------------------------
# Structural liveness.

@dataclass(frozen=True)
class SlpVerdict:
    status: str              # structurally_live | not_structurally_live | budget_exceeded
    certificate: tuple = None
    candidates_tested: int = 0
    configs_explored: int = 0
    siphon_settled: int = 0  # candidates refuted by the siphon test alone

    def to_dict(self):
        out = {"verdict": self.status,
               "stats": {"candidates_tested": self.candidates_tested,
                         "configs_explored": self.configs_explored,
                         "siphon_settled": self.siphon_settled}}
        if self.certificate is not None:
            out["certificate"] = list(self.certificate)
        return out


def _box_iter(n, bound):
    """Markings with components in [0, bound], ascending total then lex."""
    if n == 0:
        yield ()
        return
    c = [0] * n
    for total in range(0, bound * n + 1):
        rest, first = total, -1
        while True:
            # the lex-least tail after `first` holding `rest`: packed right
            for j in range(n - 1, first, -1):
                c[j] = x = min(bound, rest)
                rest -= x
            yield tuple(c)
            # the last place before the end that can take a token from its tail
            rest = c[-1]
            first = n - 2
            while first >= 0 and (rest == 0 or c[first] == bound):
                rest += c[first]
                first -= 1
            if first < 0:
                break
            c[first] += 1
            rest -= 1


def decide_slp(net, candidate_budget=200_000, node_budget=500_000):
    """Search the per-class candidate box for a live marking.

    Candidates are enumerated by ascending token total (then lexicographic),
    so certificates are small and deterministic.  The budget caps how many
    candidates may be tested; liveness itself is never approximated, so no
    candidate is ever pruned on monotonicity grounds.  Each candidate's
    `is_nonlive` gets the whole `node_budget`, which bounds each of its
    searches on its own, not the call's total work; answers memoised on the
    net cost nothing against it.
    """
    bounds = bounds_for(classify(net), len(net.places), net.max_weight)
    return _search_box(net, bounds.first, candidate_budget, node_budget)


def _search_box(net, bound, candidate_budget, node_budget):
    """First live marking with components in [0, bound], in `_box_iter` order.

    Candidates that `is_nonlive`'s siphon shortcut would refute are refuted
    here, exploring nothing: first by a known siphon, one that refuted an
    earlier candidate, shrunk to a minimal siphon that still meets the read
    places, when none of its places is marked; else by the siphon fixpoint
    on the unmarked places.  Both settle the same candidates: a union of
    siphons is a siphon, so the largest siphon inside the unmarked places
    contains every known siphon inside them, and meets the read places
    whenever one of those does."""
    masks = place_masks(net)
    read = 0  # places some transition reads from
    for pre, _ in masks:
        read |= pre
    known = []  # the known siphons, as place indices
    tested = explored = settled = 0

    def verdict(status, certificate=None):
        return SlpVerdict(status, certificate=certificate, candidates_tested=tested,
                          configs_explored=explored, siphon_settled=settled)

    for cand in _box_iter(len(net.places), bound):
        if tested >= candidate_budget:
            return verdict("budget_exceeded")
        tested += 1
        for q in known:
            for i in q:
                if cand[i]:
                    break
            else:
                break  # no place of q is marked
        else:  # no known siphon applies: run the fixpoint
            unmarked = sum(1 << i for i, x in enumerate(cand) if not x)
            siphon = _shrink_siphon_mask(masks, unmarked, read)
            if not siphon:
                v = is_nonlive(net, cand, node_budget=node_budget)
                explored += v.configs_explored
                if v.status == "budget_exceeded":
                    return verdict("budget_exceeded")
                if v.is_live:
                    return verdict("structurally_live", cand)
                continue
            known.append(tuple(i for i in range(len(cand)) if siphon >> i & 1))
        settled += 1
    return verdict("not_structurally_live")
