"""Structural analysis: relaxed nets, components, siphons, bounded searches."""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from .classify import NotBimo, _split, classify, dummy_augment
from .nets import BudgetExceeded, Net, UnknownNode, carrier, mleq, place_masks, successors


@dataclass(frozen=True)
class Component:
    """One strongly connected component of a net viewed as a directed graph."""
    vertices: tuple  # place and transition names, by declaration index
    places: tuple
    is_top: bool
    is_bottom: bool

    @property
    def trivial(self):
        return len(self.vertices) == 1


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a bounded exploration: 'yes' or 'no'; a run-out raises BudgetExceeded."""
    status: str
    sequence: tuple = None   # for self-coverability
    marking: tuple = None    # counterexample marking for carrier maximality
    explored: int = 0


def relaxed_arcs(net):
    """(source, destinations) of each transition's `_split`, by transition
    order, as place indices: each destination once and in place order, and
    the source None for an empty pre-set.  Built on first use and cached on
    the net."""
    arcs = net._analysis.get("relaxed_arcs")
    if arcs is not None:
        return arcs
    if not classify(net).bimo:
        raise NotBimo("relaxed net requires a net of the branching-observation family")
    arcs = []
    for pre, post in zip(net._pre, net._post):
        src, _, dests = _split(pre, post)
        arcs.append((src, tuple(i for i, _ in dests)))
    net._analysis["relaxed_arcs"] = arcs = tuple(arcs)
    return arcs


def relaxed_net(net):
    """Keep only the moving edges of each presentation, all with weight 1.

    Observation edges are dropped, so a transition keeps one incoming edge
    from its source place and one outgoing edge per destination place.  An
    empty pre-set moves the token of the dummy place of `dummy_augment`.
    """
    base = dummy_augment(net)
    names = base.places
    flow = {}
    for t, (src, dests) in zip(base.transitions, relaxed_arcs(base)):
        flow[(names[src], t)] = 1
        for d in dests:
            flow[(t, names[d])] = 1
    return Net(net.name + ".relaxed", names, base.transitions, flow)


def _graph(net):
    """The net as a directed graph: vertex i is place i and vertex |P| + ti
    transition ti; each successor list is sorted."""
    n = len(net.places)
    succ = [[] for _ in range(n)]
    for ti, pre in enumerate(net._pre):
        for i, _ in pre:
            succ[i].append(n + ti)
    succ.extend([i for i, _ in post] for post in net._post)
    return net.places + net.transitions, succ


def _tarjan(n_vertices, succ):
    """Iterative Tarjan; returns a list of vertex-index lists."""
    index = [None] * n_vertices
    low = [0] * n_vertices
    on_stack = [False] * n_vertices
    stack = []
    sccs = []
    counter = 0
    for root in range(n_vertices):
        if index[root] is not None:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(pi, len(succ[v])):
                w = succ[v][k]
                if index[w] is None:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(sorted(comp))
    return sccs


def sccs(net):
    """Strongly connected components, topologically ordered (sources first).

    Ties between independent components break on the lowest vertex index, so
    the output is reproducible.
    """
    order, succ = _graph(net)
    comps = _tarjan(len(order), succ)
    comp_of = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    nc = len(comps)
    edges = [set() for _ in range(nc)]
    redges = [set() for _ in range(nc)]
    for v in range(len(order)):
        for w in succ[v]:
            a, b = comp_of[v], comp_of[w]
            if a != b:
                edges[a].add(b)
                redges[b].add(a)
    indeg = [len(r) for r in redges]
    heap = [(comps[ci][0], ci) for ci in range(nc) if indeg[ci] == 0]
    heapq.heapify(heap)
    topo = []
    while heap:
        _, ci = heapq.heappop(heap)
        topo.append(ci)
        for cj in sorted(edges[ci]):
            indeg[cj] -= 1
            if indeg[cj] == 0:
                heapq.heappush(heap, (comps[cj][0], cj))
    n_places = len(net.places)
    out = []
    for ci in topo:
        out.append(Component(
            vertices=tuple(order[v] for v in comps[ci]),
            places=tuple(order[v] for v in comps[ci] if v < n_places),
            is_top=not redges[ci],
            is_bottom=not edges[ci],
        ))
    return out


def rich_poor(relaxed, marking, components=None):
    """Map each component to 'rich' or 'poor' at the given marking.

    A component with places P_C is rich when the marking puts at least |P_C|
    tokens on P_C; place-free components are always rich.
    """
    if components is None:
        components = sccs(relaxed)
    out = {}
    for comp in components:
        total = sum(marking[relaxed.place_index[p]] for p in comp.places
                    if p in relaxed.place_index and relaxed.place_index[p] < len(marking))
        out[comp] = "rich" if total >= len(comp.places) else "poor"
    return out


def is_siphon(net, place_set):
    """True iff every transition feeding the set also drains it."""
    mask = 0
    for p in place_set:
        if p not in net.place_index:
            raise UnknownNode(f"unknown place {p!r}")
        mask |= 1 << net.place_index[p]
    return _is_siphon_mask(place_masks(net), mask)


def _is_siphon_mask(masks, s):
    """`is_siphon` on a place bitmask `s`, given the net's `place_masks`."""
    return all(pre & s for pre, post in masks if post & s)


def _largest_siphon_mask(masks, s):
    """Largest siphon inside the place bitmask `s`, as a bitmask (0 if none).

    Runs the standard fixpoint: prune every place fed by a transition whose
    pre-set misses the current set, until no transition does.
    """
    changed = True
    while changed and s:
        changed = False
        for pre, post in masks:
            if pre & s:
                continue
            hit = post & s
            if hit:
                s &= ~hit
                changed = True
    return s


def _shrink_siphon_mask(masks, s, keep):
    """Siphon inside the place bitmask `s` that meets `keep`, such that
    dropping any one of its places leaves no siphon meeting `keep`; 0 when
    the largest siphon inside `s` misses `keep`.  From that largest siphon,
    each place in index order is dropped when the largest siphon left still
    meets `keep`."""
    s = _largest_siphon_mask(masks, s)
    if not s & keep:
        return 0
    rest = s
    while rest:
        bit = rest & -rest
        smaller = _largest_siphon_mask(masks, s & ~bit)
        if smaller & keep:
            s = smaller
        rest &= s & ~bit
    return s


def unmarked_siphon(net, marking):
    """Largest siphon unmarked at the marking, or None."""
    net.check_marking(marking)
    unmarked = sum(1 << i for i, x in enumerate(marking) if x == 0)
    base = _largest_siphon_mask(place_masks(net), unmarked)
    if not base:
        return None
    return tuple(p for i, p in enumerate(net.places) if base >> i & 1)


def is_self_coverable(net, marking, node_budget=200_000):
    """Search for a full execution from the marking back above itself.

    Success needs marking -> M' with M' >= marking where every transition of
    the net occurred at least once.
    """
    net.check_marking(marking)
    start = tuple(marking)
    n_trans = len(net.transitions)
    full = (1 << n_trans) - 1
    init = (start, 0)
    seen = {init: None}
    queue = deque([init])
    explored = 0
    while queue:
        state = queue.popleft()
        m, mask = state
        explored += 1
        if mask == full and mleq(start, m):
            seq = []
            cur = state
            while seen[cur] is not None:
                prev, t = seen[cur]
                seq.append(t)
                cur = prev
            return SearchResult(status="yes", sequence=tuple(reversed(seq)), explored=explored)
        if explored > node_budget:
            raise BudgetExceeded(explored)
        for ti, nm in successors(net, m):
            nxt = (nm, mask | (1 << ti))
            if nxt not in seen:
                seen[nxt] = (state, net.transitions[ti])
                queue.append(nxt)
    return SearchResult(status="no", explored=explored)


def is_carrier_maximal(net, marking, node_budget=200_000):
    """Check that no reachable marking has a strictly larger carrier."""
    net.check_marking(marking)
    start = tuple(marking)
    base = len(carrier(start))
    seen = {start}
    queue = deque([start])
    explored = 0
    while queue:
        m = queue.popleft()
        explored += 1
        if len(carrier(m)) > base:
            return SearchResult(status="no", marking=m, explored=explored)
        if explored > node_budget:
            raise BudgetExceeded(explored)
        for _, nxt in successors(net, m):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return SearchResult(status="yes", explored=explored)
