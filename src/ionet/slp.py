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
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, count
from typing import NamedTuple

from .classify import classify, NotBimo
from .liveness import (
    SUBSET_CAP, BudgetExceeded, Witness, WitnessReport, check_witness,
    constructed_witness, cover_basis, reach_graph, witness_index,
)
from .nets import (Net, NetError, _breadth_first, _move_table, _path, _walk, mleq,
                   place_masks, pre_mset, successors)
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
    for ti, delta in _walk(_move_table(net), compress(count(), counts), counts.__getitem__):
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
    report: WitnessReport = None  # the witness's check, when the decision ran one

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


def _drains(net, data):
    """(weights, plan) of a siphon record, built on the first call and kept
    in `data.drains`.

    `weights` holds, per place of the subset, the steps a token needs to
    leave the subset, following cheapest moves.  `plan` is an unconditional
    drain schedule for the subset, or None.  It uses only transitions with a
    single unit pre-place missing from their post-set, which stay enabled
    while their source is marked, processed from the innermost places out;
    each step is (place, transition, sparse delta).  A marking can be pushed
    along the plan by batched arithmetic; the result is a genuinely
    reachable capped configuration.
    """
    if data.drains is not None:
        return data.drains
    indices = data.indices
    arcs = relaxed_arcs(net)
    far = 4 * len(indices) + 8
    dist = {i: far for i in indices}
    changed = True
    while changed:
        changed = False
        for src, dests in arcs:
            if src not in dist:
                continue
            if dests:
                best = 1 + min(dist.get(d, 0) for d in dests)
            else:
                best = 1
            if best < dist[src]:
                dist[src] = best
                changed = True
    deltas = _move_table(net).deltas
    masks = place_masks(net)
    plan = []
    for i in sorted(indices, key=lambda i: -dist[i]):
        best = None
        for ti, pre in enumerate(net._pre):
            if pre != ((i, 1),) or masks[ti][1] >> i & 1:
                continue
            spawn = sum(dist.get(d, 0) for d in arcs[ti][1])
            if best is None or spawn < best[0]:
                best = (spawn, ti)
        if best is None:
            plan = None
            break
        plan.append((i, best[1], deltas[best[1]]))
    else:
        plan = tuple(plan)
    data.drains = (tuple(dist[i] for i in indices), plan)
    return data.drains


def _heuristic(net, targets):
    """Distance estimate to the nearest witness candidate; surplus tokens on
    a crucial place are weighted by how many moves they need to leave it, so
    plain token conveyors descend strictly."""
    if not targets:
        return lambda counts: 0
    tables = []
    for data, r in targets[:6]:
        tables.append(tuple(zip(data.indices, r, _drains(net, data)[0])))

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


def _try_drains(net, start, targets, node_budget, idx):
    """Deterministically drain toward each witness candidate; cheap and
    sound (every batched step is a sequence of capped firings), but not
    complete."""
    cap = cap_value(net)
    for data, _r in targets:
        plan = _drains(net, data)[1]
        if plan is None:
            continue
        counts = list(start[0])
        path = []
        for _ in range(len(data.indices) + 1):
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
    parents = [None]  # (index of the parent in `states`, step from it)
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
            return Witness.from_hit(net, hit, state.counts, _path(parents, k)), explored
        for label, nxt in capped_successors(net, state):
            if _admit(visited, nxt):
                heapq.heappush(heap, (h(nxt.counts), len(states)))
                states.append(nxt)
                parents.append((k, label))
    return None, explored


def is_nonlive(net, m0, node_budget=500_000):
    """Decide liveness of a marking of a branching-observation-family net.

    Exact for every input that fits the budgets; budget exhaustion is
    reported, never silently treated as an answer.  `node_budget` bounds
    each search of the call on its own (the abstract probe, each restricted
    exploration of the witness index, the capped search, the reachability
    graph and its witness check), not their sum; answers memoised on the
    net by earlier calls (the witness index's clean floor too) cost nothing
    against it.  Conservative nets above `SUBSET_CAP` places are decided on
    their reachability graph, others raise `SubsetCapExceeded`.
    """
    nc = classify(net)
    if not nc.bimo:
        raise NotBimo("the liveness decision covers the branching-observation family")
    start = capped_config(net, m0)
    trunc = start.counts
    witness = _siphon_witness(net, trunc)
    if witness is not None:
        return LivenessVerdict("nonlive", witness=witness, method="siphon")

    large = len(net.places) > SUBSET_CAP and nc.conservative
    method = "reach-graph" if large else "abstract"
    explored = 0
    report = None
    try:
        if large:
            # conservative, so the graph is finite and the decision exact
            g = reach_graph(net, trunc, node_budget)
            explored = len(g.codes)
            # None exactly when no reachable marking has a dead transition
            witness = constructed_witness(net, g)
            if witness is not None:
                report = check_witness(net, witness, node_budget=node_budget)
                if not report.sound:
                    raise NetError("internal error: constructed witness failed validation")
        else:
            idx = witness_index(net)
            targets, explored = idx.probe(trunc, node_budget)
            if targets:
                method = "capped-search"
                witness = _try_drains(net, start, targets, node_budget, idx)
                if witness is None:
                    witness, n_configs = _capped_closure(net, start, targets, node_budget, idx)
                    explored += n_configs
    except BudgetExceeded as exc:
        return LivenessVerdict("budget_exceeded", configs_explored=explored + exc.explored,
                               method=method)
    return LivenessVerdict("live" if witness is None else "nonlive", witness=witness,
                           configs_explored=explored, method=method, report=report)


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
    for explored, (m, _) in enumerate(_breadth_first(tuple(m0), partial(successors, net)), 1):
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
    # from a non-live m0 with finitely many reachable markings, some bottom
    # component has a dead transition, and its markings are dl-markings; so
    # only a wrong liveness decision at m0 ends up here
    raise NetError("internal error: a non-live marking reaches no dl-marking")


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


def decide_slp(net, candidate_budget=200_000, node_budget=500_000):
    """Search the per-class candidate box for a live marking.

    Candidates are tested by ascending token total (then lexicographic),
    so certificates are small and deterministic.  Runs of candidates that a
    known siphon settles are counted, not enumerated; they still count
    against `candidate_budget`, which caps how many candidates may be
    tested.  Liveness itself is never approximated, so no candidate is ever
    pruned on monotonicity grounds.  Each candidate's
    `is_nonlive` gets the whole `node_budget`, which bounds each of its
    searches on its own, not the call's total work; answers memoised on the
    net cost nothing against it.
    """
    bounds = bounds_for(classify(net), len(net.places), net.max_weight)
    return _search_box(net, bounds.first, candidate_budget, node_budget)


def _search_box(net, bound, candidate_budget, node_budget):
    """First live marking with components in [0, bound], by ascending token
    total, then lexicographically.

    Candidates that `is_nonlive`'s siphon shortcut would refute are refuted
    here, exploring nothing: by a known siphon (one that refuted an earlier
    candidate, shrunk to a minimal siphon still meeting the read places)
    with no marked place, else by the siphon fixpoint on the unmarked
    places.  Both settle the same candidates, since a union of siphons is a
    siphon: the largest one inside the unmarked places holds every known
    siphon inside them.

    The candidates of one total that share a prefix c[:d] come in one run.
    When a known siphon ending at place d - 1 has no marked place in the
    prefix, the whole run is settled and counted from a table of bounded
    compositions, building none of its candidates.  Counted candidates count
    against `candidate_budget`; a run that passes it is counted up to it."""
    n = len(net.places)
    masks = place_masks(net)
    read = 0  # places some transition reads from
    for pre, _ in masks:
        read |= pre
    known = [[] for _ in range(n)]  # the known siphons as bitmasks, by highest place
    tails = [[1]]  # tails[k][r]: the k-tuples over [0, bound] that sum to r
    for k in range(n):
        tails.append([sum(tails[k][max(0, r - bound):r + 1])
                      for r in range(bound * k + bound + 1)])
    c = [0] * n
    zeros = [0] * (n + 1)  # zeros[d]: unmarked places among the first d
    rests = [0] * (n + 1)  # rests[d]: tokens left for the places from d on
    tested = explored = settled = 0

    def verdict(status, certificate=None):
        return SlpVerdict(status, certificate=certificate, candidates_tested=tested,
                          configs_explored=explored, siphon_settled=settled)

    for total in range(bound * n + 1):
        rests[0] = total
        d = 0  # the prefix c[:d] is set
        while True:
            z = zeros[d]  # 0 at d == 0, so known[-1] settles nothing there
            for q in chain(*known) if d == n else known[d - 1]:
                if q & z == q:
                    break
            else:
                q = 0
                if d == n:  # a whole candidate no known siphon settles
                    q = _shrink_siphon_mask(masks, z, read)
                    if q:
                        known[q.bit_length() - 1].append(q)
            if q or d == n:  # the candidates extending c[:d], settled or one
                size = tails[n - d][rests[d]]
                if tested + size > candidate_budget:
                    settled += candidate_budget - tested  # 0 at an unsettled leaf
                    tested = candidate_budget
                    return verdict("budget_exceeded")
                tested += size
                if q:
                    settled += size
                else:
                    cand = tuple(c)
                    v = is_nonlive(net, cand, node_budget=node_budget)
                    explored += v.configs_explored
                    if v.status == "budget_exceeded":
                        return verdict("budget_exceeded")
                    if v.is_live:
                        return verdict("structurally_live", cand)
            if d < n and not q:  # descend: the least value for place d
                j = d
                x = max(0, rests[d] - bound * (n - d - 1))
            else:  # the next prefix: raise the last place that can take a token
                j = d - 1
                while j >= 0 and (c[j] == bound or c[j] == rests[j]):
                    j -= 1
                if j < 0:
                    break
                x = c[j] + 1
            c[j] = x
            d = j + 1
            rests[d] = rests[j] - x
            zeros[d] = zeros[j] | (not x) << j
    return verdict("not_structurally_live")
