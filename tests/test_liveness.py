import dataclasses
import operator
import random
from collections import Counter, deque

import pytest

from ionet import (
    DUMMY_PLACE, BudgetExceeded, Net, NetError, SubsetCapExceeded, UnknownNode, Witness,
    WitnessReport, build_stage, carrier, check_witness, cover_basis, dead_at, enabled,
    find_dl_marking, find_witness, fire, is_carrier_maximal, is_live_exact, is_self_coverable,
    mleq, msize, parse_net, post_mset, pre_mset, reach_graph, relaxed_net, replay, rich_poor,
    sccs, simulate_lba, unmarked_siphon,
)
from ionet import liveness, nets, slp
from ionet.classify import is_imo_msets
from ionet.lba import STEP_BUDGET
from ionet.liveness import constructed_witness
from ionet.generate import random_net, random_marking, random_net_in_row
from ionet.nets import place_masks, successors
from ionet.structure import SearchResult, _shrink_siphon_mask
from tests.conftest import (
    FIXTURES, _sub, dense_arcs, labelled_edges, load_lba, load_net, random_flow_net,
    with_spawns,
)


def _recursive_reach(net, m0, limit=50_000):
    """Independent oracle: recursive depth-first set construction."""
    import sys
    sys.setrecursionlimit(100_000)
    seen = set()

    def go(m):
        if m in seen or len(seen) > limit:
            return
        seen.add(m)
        for t in net.transitions:
            if enabled(net, m, t):
                go(fire(net, m, t))
    go(tuple(m0))
    return seen


def test_reach_graph_matches_recursive_oracle():
    rng = random.Random(31)
    for seed in range(100):
        net = random_net("imo" if seed % 2 else "io",
                         n_places=4, n_trans=4, wmax=1, seed=seed)
        m0 = random_marking(net, 5, rng)
        g = reach_graph(net, m0, node_budget=50_000)
        assert set(g.nodes) == _recursive_reach(net, m0)
        for v, out in enumerate(labelled_edges(g)):
            for t, w in out:
                assert fire(net, g.nodes[v], t) == g.nodes[w]


def test_reach_graph_budget_and_trivial(fragile_net):
    net, m0 = fragile_net
    g = reach_graph(net, m0)
    assert g.root == m0 and len(g.nodes) >= 1
    with pytest.raises(BudgetExceeded):
        reach_graph(net, m0, node_budget=2)
    stuck = Net("stuck", ["p"], ["t"], {("p", "t"): 2})
    g = reach_graph(stuck, (1,))
    assert len(g.nodes) == 1


def test_dead_at_siphon_example(siphon_net):
    net, _ = siphon_net
    # after the full run the siphon {p2,p3,p4} is empty, so t1 is dead even
    # though the p6 loop keeps feeding p5 forever
    assert dead_at(net, (4, 0, 0, 0, 0, 1), "t1") is True
    assert dead_at(net, (1, 1, 1, 1, 1, 1), "t1") is False


def test_dead_at_enabled_is_not_dead(fragile_net):
    net, m0 = fragile_net
    assert dead_at(net, m0, "t3") is False


def test_dead_at_agrees_with_graph_scan():
    rng = random.Random(37)
    for seed in range(60):
        net = random_net("io", n_places=4, n_trans=4, wmax=1, seed=seed)
        m0 = random_marking(net, 4, rng)
        g = reach_graph(net, m0, node_budget=20_000)
        for t in net.transitions:
            scan = not any(enabled(net, m, t) for m in g.nodes)
            assert dead_at(net, m0, t) == scan


def test_cover_basis_is_minimal_and_sound():
    rng = random.Random(38)
    for seed in range(30):
        net = random_net("io", n_places=4, n_trans=3, wmax=1, seed=seed)
        t = net.transitions[0]
        basis = cover_basis(net, pre_mset(net, t))
        for b in basis:
            assert not any(mleq(o, b) and o != b for o in basis)
        # soundness spot check against explicit exploration
        for _ in range(5):
            m = random_marking(net, 4, rng)
            g = reach_graph(net, m, node_budget=20_000)
            covered = any(mleq(pre_mset(net, t), node) for node in g.nodes)
            assert covered == any(mleq(b, m) for b in basis)


@pytest.mark.parametrize("target", [(1,), (-1,) * 6], ids=["short", "negative"])
def test_cover_basis_rejects_bad_targets(siphon_net, target):
    net, _ = siphon_net
    assert len(net.places) == 6
    with pytest.raises(NetError):
        cover_basis(net, target)


def test_is_live_exact_fragile_pair(fragile_net):
    net, m0 = fragile_net
    assert is_live_exact(net, m0) is True
    bumped = list(m0)
    bumped[net.place_index["p2"]] += 1
    assert is_live_exact(net, tuple(bumped)) is False


def test_is_live_exact_no_transitions():
    assert is_live_exact(Net("bare", ["p"], [], {}), (3,)) is True


def test_find_dl_marking_witness_net(witness_net):
    net, m0 = witness_net
    res = find_dl_marking(net, m0)
    assert res is not None
    m_dl, dead, live = res
    assert set(dead) | set(live) == set(net.transitions)
    assert not set(dead) & set(live)
    assert dead
    for t in dead:
        assert dead_at(net, m_dl, t) is True
    assert is_live_exact(net, m_dl) is False
    # the live part alone is live at the found marking
    keep = [t for t in net.transitions if t in live]
    flow = {k: w for k, w in net.flow.items() if k[0] in keep or k[1] in keep}
    assert is_live_exact(Net("live", net.places, keep, flow), m_dl) is True


def test_find_dl_marking_budget_is_per_call():
    """A call that runs out of budget reports the search that ran out and
    leaves nothing behind: the next call, with the default budget, answers
    as on a fresh net."""
    net, m0 = load_net("bimo_witness")
    with pytest.raises(BudgetExceeded) as small:
        find_dl_marking(net, m0, node_budget=3)
    assert small.value.explored == 4
    fresh, _ = load_net("bimo_witness")
    res = find_dl_marking(net, m0)
    assert res == find_dl_marking(fresh, m0)
    assert res[0] == (0, 1, 0, 1, 0, 4, 4)


def test_find_dl_marking_raises_when_a_liveness_check_runs_out():
    """A restricted net's liveness check that runs out raises; it is not
    read as non-live, so the marking found does not depend on the budget."""
    net = Net("dl-budget", ["p1", "p2", "p3", "p4", "p5"], ["t1", "t2", "t3"],
              {("p3", "t1"): 1, ("t1", "p4"): 1, ("p4", "t2"): 1, ("t2", "p1"): 1,
               ("t2", "p3"): 1, ("p2", "t3"): 2, ("t3", "p2"): 1})
    m0 = (1, 1, 1, 2, 1)
    with pytest.raises(BudgetExceeded) as info:
        find_dl_marking(net, m0, node_budget=10)
    assert info.value.explored == 11
    want = (m0, ("t3",), ("t1", "t2"))
    assert find_dl_marking(net, m0, node_budget=20) == want
    assert find_dl_marking(net, m0) == want


def _token_chain():
    """Six tokens on p0 that move on along p0 -> p1 -> p2 -> p3; `x` only
    reads p0."""
    net = Net("chain", ["p0", "p1", "p2", "p3"], ["t0", "t1", "t2", "x"],
              {("p0", "t0"): 1, ("t0", "p1"): 1, ("p1", "t1"): 1, ("t1", "p2"): 1,
               ("p2", "t2"): 1, ("t2", "p3"): 1, ("p0", "x"): 1, ("x", "p0"): 1})
    return net, (6, 0, 0, 0)


def test_find_dl_marking_breadth_first_search_runs_out():
    """The only dl-marking puts every token on p3, the last of the 84
    reachable markings in breadth-first order, while deciding m0 takes 74
    configurations; so at 80 the walk itself runs out."""
    with pytest.raises(BudgetExceeded) as info:
        find_dl_marking(*_token_chain(), node_budget=80)
    assert info.value.explored == 81
    assert info.traceback[-1].name == "find_dl_marking"
    assert find_dl_marking(*_token_chain(), node_budget=84) == (
        (0, 0, 0, 6), ("t0", "t1", "t2", "x"), ())


def test_find_dl_marking_without_a_dl_marking_is_an_internal_error(monkeypatch, fragile_net):
    """A live marking read as non-live walks its whole finite reachable set
    without a dl-marking: an internal error, not a budget result."""
    net, m0 = fragile_net
    assert find_dl_marking(net, m0) is None
    monkeypatch.setattr(slp, "_decided_live", lambda net, m, node_budget: False)
    with pytest.raises(NetError, match="internal error: a non-live marking reaches no"):
        find_dl_marking(net, m0)


def _budget_outcome(search, net, m0):
    try:
        out = search(net, m0)
    except BudgetExceeded as exc:
        return "raised", exc.explored
    assert isinstance(out, BudgetExceeded), out
    return "returned", out.explored


_CHECKED_WITNESS = Witness(m_wit=(0, 1, 0, 1, 0, 4, 4), p_cruc=("p1", "p2", "p3", "p4", "p5"),
                           t_dead=("t1", "t6", "t7"))


@pytest.mark.parametrize("search,outcome", [
    pytest.param(lambda net, m0: reach_graph(net, m0, node_budget=2), ("raised", 2),
                 id="reach_graph"),
    pytest.param(lambda net, m0: cover_basis(net, pre_mset(net, "t1"), node_budget=2),
                 ("raised", 3), id="cover_basis"),
    pytest.param(lambda net, m0: dead_at(net, m0, "t1", node_budget=2), ("raised", 3),
                 id="dead_at"),
    pytest.param(lambda net, m0: find_dl_marking(net, m0, node_budget=2), ("raised", 3),
                 id="find_dl_marking"),
    pytest.param(lambda net, m0: check_witness(load_net("bimo_witness")[0], _CHECKED_WITNESS,
                                               node_budget=3),
                 ("raised", 4), id="check_witness"),
    pytest.param(lambda net, m0: is_self_coverable(net, m0, node_budget=2), ("raised", 3),
                 id="is_self_coverable"),
    pytest.param(lambda net, m0: is_carrier_maximal(net, m0, node_budget=2), ("raised", 3),
                 id="is_carrier_maximal"),
    pytest.param(lambda net, m0: simulate_lba(load_lba("loop_2"), "aa"),
                 ("raised", STEP_BUDGET), id="simulate_lba"),
    pytest.param(lambda net, m0: is_live_exact(net, m0, node_budget=2), ("returned", 2),
                 id="is_live_exact"),
])
def test_bounded_searches_raise_budget_exceeded(search, outcome):
    """Every bounded search raises BudgetExceeded when it runs out, with the
    states it explored; `is_live_exact` alone returns it as its answer.  The
    net is parsed afresh, since answers memoised on a net cost no budget."""
    net, m0 = load_net("io_fragile")
    assert _budget_outcome(search, net, m0) == outcome


def test_find_dl_marking_none_for_live(fragile_net):
    net, m0 = fragile_net
    assert find_dl_marking(net, m0) is None


def _ref_is_self_coverable(net, marking, node_budget=200_000):
    """`is_self_coverable` with its own queue, seen set and parent chain."""
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


def _ref_is_carrier_maximal(net, marking, node_budget=200_000):
    """`is_carrier_maximal` with its own queue and seen set."""
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


def _ref_find_dl_marking(net, m0, node_budget=200_000):
    """`find_dl_marking` with its own queue and seen set."""
    net.check_marking(m0)
    if slp._decided_live(net, m0, node_budget):
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
            if not sub.transitions or slp._decided_live(sub, m, node_budget):
                return m, dead, tuple(t for t in net.transitions if t not in dead)
        for _, nm in successors(net, m):
            if nm not in seen:
                seen.add(nm)
                queue.append(nm)
    raise NetError("internal error: a non-live marking reaches no dl-marking")


def _walk_cases():
    """(net, marking) on seeded nets of all eight rows and on the fixtures,
    at their stored marking or a seeded one."""
    rng = random.Random(281)
    rows = ("ord-io", "ord-imo", "io", "imo", "ord-bio", "ord-bimo", "bio", "bimo")
    for k in range(32):
        net = random_net_in_row(rows[k % 8], n_places=3 + k % 3, n_trans=1 + k % 4,
                                seed=281_000 + k)
        yield net, random_marking(net, 1 + k % 5, rng)
    for path in sorted(FIXTURES.glob("*.net")):
        net, m = parse_net(path.read_text())
        yield net, m or random_marking(net, 3, rng)


def test_breadth_first_searches_match_reference():
    """`is_self_coverable`, `is_carrier_maximal` and `find_dl_marking`, on
    the shared breadth-first walk, answer as their hand-rolled loops did,
    or run out with the same explored count, at node budgets 1 to 50 and
    at the default.  Each call gets a fresh net, so no call warms the
    caches of another."""
    seen = Counter()
    pairs = ((_ref_is_self_coverable, is_self_coverable),
             (_ref_is_carrier_maximal, is_carrier_maximal),
             (_ref_find_dl_marking, find_dl_marking))
    for net, m in _walk_cases():
        for budget in (*range(1, 51), 200_000):
            for ref, search in pairs:
                outcomes = []
                for run in (ref, search):
                    fresh = Net(net.name, net.places, net.transitions, net.flow)
                    try:
                        outcomes.append(run(fresh, m, node_budget=budget))
                    except BudgetExceeded as exc:
                        outcomes.append(("budget", exc.explored))
                want, got = outcomes
                assert got == want, (search.__name__, net.name, m, budget)
                if isinstance(want, tuple) and want[0] == "budget":
                    seen[search.__name__, "run-out"] += 1
                elif isinstance(want, SearchResult):
                    seen[search.__name__, want.status] += 1
                else:
                    seen[search.__name__, "live" if want is None else "dl"] += 1
    assert len(seen) == 9 and min(seen.values()) >= 10, seen


def test_check_witness_three_conditions(witness_net):
    net, m0 = witness_net
    m_wit = replay(net, m0, ["t3", "t4", "t2", "t1", "t1", "t6", "t6", "t6"]).final
    w = Witness(m_wit=m_wit, p_cruc=("p1", "p2", "p3", "p4", "p5"),
                t_dead=("t1", "t6", "t7"))
    rep = check_witness(net, w, variant="ordinary")
    assert rep.cond1 and rep.cond2 and rep.cond3 and rep.sound


def test_check_witness_siphon_variant(siphon_net):
    net, _ = siphon_net
    w = Witness(m_wit=(4, 0, 0, 0, 0, 1), p_cruc=("p2", "p3", "p4"),
                t_dead=("t1", "t2", "t3", "t4"))
    rep = check_witness(net, w, variant="ordinary")
    assert rep.sound and rep.cond1


def test_check_witness_enabled_dead_fails(witness_net):
    net, m0 = witness_net
    w = Witness(m_wit=m0, p_cruc=net.places, t_dead=("t3",))
    rep = check_witness(net, w, variant="ordinary")
    assert not rep.cond3 and not rep.sound


def test_check_witness_weighted_variant(weighted_net):
    net, _ = weighted_net
    w = Witness(m_wit=(2, 0), p_cruc=("p1",), t_dead=("t",))
    rep = check_witness(net, w, variant="weighted")
    assert rep.cond1  # within the weight bound
    assert not rep.cond3  # two tokens enable the transition


def test_find_witness_examples(witness_net, siphon_net):
    net, m0 = witness_net
    m_wit = replay(net, m0, ["t3", "t4", "t2", "t1", "t1", "t6", "t6", "t6"]).final
    w = find_witness(net, m_wit)
    assert w is not None
    assert {"t1", "t6", "t7"} <= set(w.t_dead)
    rep = check_witness(net, w, variant="ordinary")
    assert rep.sound

    net1, _ = siphon_net
    w = find_witness(net1, (4, 0, 0, 0, 0, 1))
    assert w is not None
    assert check_witness(net1, w, variant="ordinary").sound
    for t in w.t_dead:
        assert dead_at(net1, (4, 0, 0, 0, 0, 1), t) is True


def test_find_witness_none_at_live_markings(fragile_net):
    net, m0 = fragile_net
    g = reach_graph(net, m0)
    assert is_live_exact(net, m0) is True
    for m in g.nodes:
        assert find_witness(net, m) is None


def test_find_witness_subset_cap():
    net = random_net("io", n_places=17, n_trans=3, wmax=1, seed=2)
    with pytest.raises(SubsetCapExceeded, match="subset cap 16"):
        find_witness(net, (0,) * 17)
    net = random_net("io", n_places=5, n_trans=3, wmax=1, seed=2)
    assert find_witness(net, (0,) * 5) is not None


def test_witness_soundness_invariant():
    # whenever the checker validates a found witness, every listed transition
    # really is dead at the witness marking
    rng = random.Random(41)
    hits = 0
    for seed in range(150):
        net = random_net("io" if seed % 2 else "imo",
                         n_places=4, n_trans=4, wmax=1, seed=seed)
        m = random_marking(net, 4, rng)
        w = find_witness(net, m)
        if w is None:
            continue
        hits += 1
        assert check_witness(net, w, variant="ordinary").sound
        for t in w.t_dead:
            assert dead_at(net, m, t) is True
    assert hits >= 10


def test_witness_agrees_with_exact_liveness():
    # on conservative nets: some reachable marking carries a witness iff the
    # initial marking is non-live
    rng = random.Random(43)
    for seed in range(120):
        net = random_net("imo", n_places=4, n_trans=4, wmax=1, seed=seed)
        m0 = random_marking(net, 4, rng)
        g = reach_graph(net, m0, node_budget=20_000)
        has = any(find_witness(net, m) is not None for m in g.nodes)
        assert has == (is_live_exact(net, m0) is False)


def test_dl_characterization_on_finite_cases():
    # non-live exactly when some reachable marking splits into dead and live
    rng = random.Random(103)
    for seed in range(60):
        net = random_net("imo", n_places=3, n_trans=3, wmax=1, seed=seed)
        m0 = random_marking(net, 4, rng)
        res = find_dl_marking(net, m0, node_budget=100_000)
        live = is_live_exact(net, m0, node_budget=100_000)
        if live is True:
            assert res is None
        else:
            assert res is not None and not isinstance(res, BudgetExceeded)
            m_dl, dead, live_part = res
            assert dead and set(dead) | set(live_part) == set(net.transitions)


# ---------------------------------------------------------------------------
# Reference kernels: one backward closure per transition on the reach graph,
# and the siphon fixpoint on sets of place indices.

def _ref_pred(graph):
    pred = [[] for _ in graph.nodes]
    for v, out in enumerate(labelled_edges(graph)):
        for _, w in out:
            pred[w].append(v)
    return pred


def _ref_back_closure(pred, seeds):
    inside = bytearray(len(pred))
    queue = deque()
    for v in seeds:
        if not inside[v]:
            inside[v] = 1
            queue.append(v)
    while queue:
        v = queue.popleft()
        for u in pred[v]:
            if not inside[u]:
                inside[u] = 1
                queue.append(u)
    return inside


def _ref_enabled_nodes(graph, ti):
    sup = graph.net._pre[ti]
    return [v for v, m in enumerate(graph.nodes) if all(m[i] >= w for i, w in sup)]


def _ref_is_live(graph):
    pred = _ref_pred(graph)
    return all(all(_ref_back_closure(pred, _ref_enabled_nodes(graph, ti)))
               for ti in range(len(graph.net.transitions)))


def _ref_dl_node(graph):
    net = graph.net
    n, n_t = len(graph.nodes), len(net.transitions)
    pred = _ref_pred(graph)
    bad, nlv = [], []   # [ti][v]: ti is dead / non-live at node v
    for ti in range(n_t):
        can = _ref_back_closure(pred, _ref_enabled_nodes(graph, ti))
        b = bytearray(1 - x for x in can)
        bad.append(b)
        nlv.append(_ref_back_closure(pred, [v for v in range(n) if b[v]]))
    for v in range(n):
        some_dead = any(bad[ti][v] for ti in range(n_t))
        ok = all(bad[ti][v] or not nlv[ti][v] for ti in range(n_t))
        if some_dead and ok:
            dead = tuple(net.transitions[ti] for ti in range(n_t) if bad[ti][v])
            live = tuple(net.transitions[ti] for ti in range(n_t) if not nlv[ti][v])
            return v, dead, live, _ref_sink(graph, v)
    return None


def _ref_dl_node_masked(graph):
    """`_ref_dl_node` in `_dl_node`'s shape, (node, dead transition bitmask,
    sink), after checking that the live transitions there are the others."""
    res = _ref_dl_node(graph)
    if res is None:
        return None
    v, dead, live, sink = res
    names = graph.net.transitions
    assert live == tuple(t for t in names if t not in dead), (graph.net, v)
    return v, sum(1 << ti for ti, t in enumerate(names) if t in dead), sink


def _ref_sink(graph, v0):
    """The first component Tarjan gives on the subgraph reachable from v0,
    renumbered in BFS order from v0, mapped back and sorted."""
    reach = [v0]
    local = {v0: 0}
    for v in reach:
        for w in graph.succ[v]:
            if w not in local:
                local[w] = len(reach)
                reach.append(w)
    succ = [[local[w] for w in graph.succ[v]] for v in reach]
    return sorted(reach[v] for v in liveness._tarjan(len(reach), succ)[0])


def _ref_unmarked_siphon(net, marking, minimize=False):
    def prune(start):
        s = set(start)
        changed = True
        while changed and s:
            changed = False
            for pre, post in dense_arcs(net):
                if any(pre[i] for i in s):
                    continue
                hit = [i for i in s if post[i]]
                if hit:
                    s.difference_update(hit)
                    changed = True
        return s

    base = prune(i for i, x in enumerate(marking) if x == 0)
    if not base:
        return None
    if minimize:
        for i in sorted(base):
            if i in base:
                smaller = prune(base - {i})
                if smaller:
                    base = smaller
    return tuple(net.places[i] for i in sorted(base))


def _kernel_cases():
    rng = random.Random(57)
    for k in range(90):
        cls = ("io", "imo", "bimo")[k % 3]
        net = random_net(cls, n_places=2 + k % 5, n_trans=1 + k % 5,
                         wmax=1 + k % 2, seed=80_000 + k)
        yield net, random_marking(net, 1 + k % 6, rng)
    # live, but the root is transient: (0, 4) reaches (1, 3) and never returns
    yield random_net("io", n_places=2, n_trans=4, wmax=2, seed=1845), (0, 4)
    # twenty compiled machines, the instances of the acceptance test among them
    two = ("aa", "ab", "ba", "bb")
    for name, words in (("accept_all_2", two), ("reject_all_2", two), ("even_a_2", two),
                        ("flip_2", two), ("first_a_3", ("aaa", "abb", "bab", "bbb"))):
        spec = load_lba(name)
        for word in words:
            yield build_stage(spec, word, "Nbar")


def test_kernels_match_reference(monkeypatch):
    graphs = live = nonlive = 0
    for net, m in _kernel_cases():
        assert unmarked_siphon(net, m) == _ref_unmarked_siphon(net, m), (net, m)
        unmarked = sum(1 << i for i, x in enumerate(m) if x == 0)
        small = _shrink_siphon_mask(place_masks(net), unmarked, (1 << len(net.places)) - 1)
        assert (tuple(p for i, p in enumerate(net.places) if small >> i & 1) or None
                ) == _ref_unmarked_siphon(net, m, minimize=True), (net, m)
        try:
            g = reach_graph(net, m, node_budget=20_000)
        except BudgetExceeded:
            continue
        graphs += 1
        exact = is_live_exact(net, m, node_budget=20_000)
        assert exact is _ref_is_live(g), (net, m)
        live += exact
        nonlive += not exact
        assert liveness._dl_node(g) == _ref_dl_node_masked(g), (net, m)
        witness = constructed_witness(net, g)
        with monkeypatch.context() as patch:
            patch.setattr(liveness, "_dl_node", _ref_dl_node_masked)
            assert witness == constructed_witness(net, g), (net, m)
    assert graphs >= 80 and live >= 10 and nonlive >= 10


def _constructed_witness_transcribed(net, graph):
    """`constructed_witness` with its crucial places found as first written:
    the live-restriction `Net`, its relaxed net, that net's components and
    their rich/poor status at the marking lifted by the dummy's token, and
    the dummy place filtered out of the poor ones."""
    res = liveness._dl_node(graph)
    if res is None:
        return None
    v0, dead_mask, _ = res
    dead = tuple(t for ti, t in enumerate(net.transitions) if dead_mask >> ti & 1)
    live = tuple(t for t in net.transitions if t not in dead)
    live_set = set(live)
    nodes = _ref_sink(graph, v0)
    v_star = max(nodes, key=lambda v: (len(carrier(graph.nodes[v])), -v))
    m_star = graph.nodes[v_star]
    flow = {k: w for k, w in net.flow.items()
            if (k[0] in live_set) or (k[1] in live_set)}
    live_net = Net(net.name + ".live", net.places, tuple(live), flow)
    rlx = relaxed_net(live_net)
    comps2 = sccs(rlx)
    m_ext = m_star if len(rlx.places) == len(net.places) else m_star + (1,)
    status = rich_poor(rlx, m_ext, comps2)
    cruc = []
    for comp in comps2:
        if status[comp] == "poor":
            cruc.extend(p for p in comp.places if p != DUMMY_PLACE)
    cruc = tuple(sorted(cruc, key=net.place_index.get))
    return Witness(m_wit=m_star, p_cruc=cruc, t_dead=tuple(dead),
                   path=graph.path_to(v_star))


def test_constructed_witness_matches_transcription():
    """The poor components of the place graph are the crucial places the
    relaxed live-restriction gave, on the kernel cases and on a conservative
    net whose transition without arcs brings the dummy place into the
    relaxed net."""
    flow = {("p", "move"): 1, ("move", "q"): 1, ("r1", "turn"): 1, ("turn", "r2"): 1,
            ("r2", "back"): 1, ("back", "r1"): 1}
    idle = Net("idle", ["p", "q", "r1", "r2"], ["move", "idle", "turn", "back"], flow)
    witnesses = 0
    for net, m in [*_kernel_cases(), (idle, (1, 0, 1, 0))]:
        try:
            g = reach_graph(net, m, node_budget=20_000)
        except BudgetExceeded:
            continue
        want = _constructed_witness_transcribed(net, g)
        assert constructed_witness(net, g) == want, (net, m)
        witnesses += want is not None
    assert witnesses >= 10
    assert DUMMY_PLACE in relaxed_net(idle).places
    w = constructed_witness(idle, reach_graph(idle, (1, 0, 1, 0)))
    assert (w.m_wit, w.p_cruc, w.t_dead) == ((0, 1, 1, 0), ("p", "r1", "r2"), ("move",))
    assert check_witness(idle, w).sound


def _dense_successors(net, m):
    """`successors` by its definition: every transition in declaration
    order, enabled iff m >= pre, leading to m - pre + post."""
    return [(ti, tuple(x - p + q for x, p, q in zip(m, pre, post)))
            for ti, (pre, post) in enumerate(dense_arcs(net))
            if all(map(operator.ge, m, pre))]


def _dense_reach_graph(net, m0, limit):
    """Breadth-first closure over the dense successors, numbered in
    discovery order: (nodes, succ, parent, successor list per expanded
    node, whether it closed within `limit` nodes)."""
    nodes, succ, parent, lists = [tuple(m0)], [[]], [None], []
    index = {nodes[0]: 0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        lists.append(_dense_successors(net, nodes[v]))
        for ti, nm in lists[-1]:
            t = net.transitions[ti]
            j = index.get(nm)
            if j is None:
                if len(nodes) >= limit:
                    return nodes, succ, parent, lists, False
                j = index[nm] = len(nodes)
                nodes.append(nm)
                succ.append([])
                parent.append((v, t))
                queue.append(j)
            succ[v].append((t, j))
    return nodes, succ, parent, lists, True


def _successor_cases():
    rng = random.Random(91)
    for k in range(100):
        row = ("ord-io", "ord-imo", "io", "imo", "ord-bimo")[k % 5]
        net = random_net_in_row(row, n_places=3 + k % 3, n_trans=1 + k % 4,
                                seed=91_000 + k)
        if k % 2:
            net = with_spawns(net, seed=k)
        yield net, random_marking(net, 1 + k % 6, rng)
    for k in range(60):
        net = random_flow_net(92_000 + k, n_places=1 + k % 4, n_trans=1 + k % 5)
        yield net, random_marking(net, 1 + k % 5, rng)
    yield from _kernel_cases()


def test_successors_match_dense_definition():
    """The move-table kernel lists the same firings in the same order as the
    definition at every expanded node, and `reach_graph` numbers nodes,
    edges and parents as the dense loop does (or runs out where it does)."""
    closed = spawning = 0
    for net, m in _successor_cases():
        nodes, succ, parent, lists, done = _dense_reach_graph(net, m, limit=1_000)
        for node, ref in zip(nodes, lists):
            assert successors(net, node) == ref, (net, node)
        if done:
            g = reach_graph(net, m, node_budget=1_000)
            assert (list(g.nodes), labelled_edges(g), g.parent) == (nodes, succ, parent), \
                (net, m)
            closed += 1
        else:
            with pytest.raises(BudgetExceeded) as info:
                reach_graph(net, m, node_budget=1_000)
            assert info.value.explored == len(nodes), (net, m)
        spawning += not all(net._pre)
    assert closed >= 150 and spawning >= 60


def _tuple_reach_graph(net, m0, node_budget):
    """`reach_graph` on marking tuples, as it was before the packed codes:
    (nodes, succ, parent) of the breadth-first closure over `successors`."""
    nodes, succ, parent = [tuple(m0)], [[]], [None]
    index = {nodes[0]: 0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for ti, nm in successors(net, nodes[v]):
            t = net.transitions[ti]
            j = index.get(nm)
            if j is None:
                if len(nodes) >= node_budget:
                    raise BudgetExceeded(len(nodes))
                j = index[nm] = len(nodes)
                nodes.append(nm)
                succ.append([])
                parent.append((v, t))
                queue.append(j)
            succ[v].append((t, j))
    return nodes, succ, parent


def _packed_reach_graph(net, m0, node_budget):
    g = reach_graph(net, m0, node_budget)
    return list(g.nodes), labelled_edges(g), g.parent


def _width_cases():
    """Seeded nets of all eight rows, with and without pre-free
    transitions; nets of no class with weights up to 3; a producer whose
    counts climb to the non-conservative bound max(m0) + budget * weight
    (2 + 2 * 3 = 8); two nets whose counts outgrow their roots' (the
    doubler's (3, 0) from (1, 1), the grower's 8 from 2); nets without
    places; a compiled machine; and markings whose counts need fields of
    two, four, eight and more than eight bytes, on a net moving p to q and
    on the grower."""
    rng = random.Random(97)
    rows = ("ord-io", "ord-imo", "io", "imo", "ord-bio", "ord-bimo", "bio", "bimo")
    for k in range(160):
        net = random_net_in_row(rows[k % 8], n_places=3 + k % 3, n_trans=1 + k % 4,
                                seed=97_000 + k)
        if k % 2:
            net = with_spawns(net, seed=k)
        yield net, random_marking(net, 2 * len(net.places), rng)
    for k in range(60):
        net = random_flow_net(98_000 + k, n_places=1 + k % 4, n_trans=1 + k % 5)
        yield net, random_marking(net, 1 + k % 5, rng)
    producer = Net("producer", ["p", "q"], ["make", "keep"],
                   {("make", "p"): 3, ("q", "keep"): 1, ("keep", "q"): 1})
    yield producer, (2, 1)
    yield Net("doubler", ["p", "q"], ["t"], {("q", "t"): 1, ("t", "p"): 2}), (1, 1)
    yield Net("grower", ["p"], ["t"], {("p", "t"): 1, ("t", "p"): 3}), (2,)
    yield Net("placeless", [], ["t"], {}), ()
    yield Net("placeless2", [], ["t", "u"], {}), ()
    yield build_stage(load_lba("first_a_3"), "abb", "Nbar")
    mover = Net("mover", ["p", "q"], ["t"], {("p", "t"): 1, ("t", "q"): 1})
    for big in (300, 70_000, 2**40, 2**64 - 4, 2**70):
        yield mover, (3, big)
    yield Net("grower", ["p"], ["t"], {("p", "t"): 1, ("t", "p"): 3}), (2**70,)


def _outcome(build, net, m, budget):
    try:
        return build(net, m, budget)
    except BudgetExceeded as exc:
        return "budget", exc.explored


def test_packed_reach_graph_matches_tuple_bfs():
    """Packed codes number nodes, edges and parents as the tuple BFS does,
    and run out of budget at the same count, at budgets 1 to 2 000."""
    closed = ran_out = 0
    formats = set()
    for net, m in _width_cases():
        for budget in (1, 2, 5, 20, 2_000):
            want = _outcome(_tuple_reach_graph, net, m, budget)
            assert _outcome(_packed_reach_graph, net, m, budget) == want, (net, m, budget)
            closed += want[0] != "budget"
            ran_out += want[0] == "budget"
            bound = liveness._bound(net, m, budget)
            formats.add(liveness.Markings((), bound, len(net.places)).fmt)
    assert closed >= 300 and ran_out >= 300
    assert formats == {"B", "H", "I", "Q", None}
    producer, m0 = next(c for c in _width_cases() if c[0].name == "producer")
    assert [liveness._bound(producer, m0, b) for b in (1, 2, 5)] == [5, 8, 17]


def test_reach_graph_either_byte_order(monkeypatch):
    """`Markings` puts place 0 in the lowest field on a little-endian
    machine and in the highest on a big-endian one, so that a code's
    native `to_bytes` lists the fields in place order either way.  With
    `sys.byteorder` set to each, `reach_graph` gives the tuple BFS's nodes,
    edges and parents from different codes, on a net of byte fields and on
    one whose fields are wider than eight bytes.  Fields of two, four and
    eight bytes are not tested this way: `memoryview.cast` reads them in
    the machine's own byte order, whatever `sys.byteorder` says."""
    swap = Net("swap", ["p", "q", "r"], ["t", "u"],
               {("p", "t"): 1, ("t", "q"): 1, ("q", "u"): 1, ("u", "p"): 1})
    join = Net("join", ["p", "c", "q"], ["t"], {("p", "t"): 1, ("c", "t"): 1, ("t", "q"): 1})
    for net, m0, fmt in ((swap, (3, 1, 0), "B"), (join, (2**70, 1, 5), None)):
        want = _tuple_reach_graph(net, m0, 2_000)
        codes = {}
        for order in ("little", "big"):
            monkeypatch.setattr(liveness.sys, "byteorder", order)
            g = reach_graph(net, m0, 2_000)
            assert g.nodes.fmt == fmt
            assert (list(g.nodes), labelled_edges(g), g.parent) == want, (net.name, order)
            codes[order] = g.codes
        assert codes["little"] != codes["big"], net.name


def test_reach_graph_node_view():
    """`nodes` unpacks each code on access, a slice to a list of markings,
    `pack` inverts it, and no two nodes share a code."""
    net, m0 = load_net("io_fragile")
    g = reach_graph(net, m0)
    assert len(g.nodes) == len(g.codes) == len(g.succ) > 1
    assert g.nodes[0] == g.root == tuple(m0)
    assert g.nodes[-1] == g.nodes.unpack(g.codes[-1])
    assert g.nodes[0:2] == [g.nodes[0], g.nodes[1]]
    assert g.nodes[::-1] == list(g.nodes)[::-1]
    for v, m in enumerate(g.nodes):
        assert g.codes[v] == g.nodes.pack(m)
    assert len(set(g.codes)) == len(g.codes)
    with pytest.raises(IndexError):
        g.nodes[len(g.codes)]


def _ref_check_witness(net, witness, variant="ordinary", node_budget=200_000):
    """`check_witness` as it was, with its own dense exploration of the
    restriction: each transition's pre- and post-vectors restricted to the
    crucial places, cond2 by `is_imo_msets`, and cond3 by a BFS on marking
    tuples that fires every non-dead transition moving tokens there."""
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

    cond3 = _ref_restricted_never_covers(vectors, r, alive_idx, dead_idx, node_budget)
    return WitnessReport(variant=variant, cond1=cond1, cond2=cond2, cond3=cond3)


def _ref_restricted_never_covers(vectors, r, fire_idx, watch_idx, node_budget):
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


def _checked_witnesses():
    """(net, witness, variant) on seeded nets of all eight rows, half with
    spawning transitions: the witnesses `find_witness` finds, the same with
    a token added or taken somewhere, and random crucial sets (the empty one
    among them) and dead sets at random markings."""
    rng = random.Random(127)
    rows = ("ord-io", "ord-imo", "io", "imo", "ord-bio", "ord-bimo", "bio", "bimo")
    for k in range(96):
        net = random_net_in_row(rows[k % 8], n_places=2 + k % 4, n_trans=1 + k % 4,
                                seed=127_000 + k)
        if k % 2:
            net = with_spawns(net, k)
        variant = ("ordinary", "weighted")[k // 8 % 2]
        n_p, n_t = len(net.places), len(net.transitions)
        for _ in range(3):
            m = random_marking(net, 2 * n_p, rng)
            w = find_witness(net, m)
            if w is not None:
                yield net, w, variant
                i = rng.randrange(n_p)
                bumped = list(m)
                bumped[i] += 1 if not m[i] or rng.random() < 0.5 else -1
                yield net, dataclasses.replace(w, m_wit=tuple(bumped)), variant
            places = rng.sample(net.places, rng.randint(0, n_p))
            dead = rng.sample(net.transitions, rng.randint(1, n_t))
            yield net, Witness(m_wit=m, p_cruc=tuple(places), t_dead=tuple(dead)), variant
        yield net, Witness(m_wit=m, p_cruc=(), t_dead=net.transitions[:1]), variant


def test_check_witness_matches_dense_reference(monkeypatch):
    """`check_witness` gives the report, or the run-out with its explored
    count, of the dense checker it replaced, at budgets 1, 3, 20 and the
    default, and builds no dense vector.  The sample holds found witnesses,
    perturbed ones, empty crucial sets, and witnesses failing cond2
    (spawning transitions among the non-dead ones) whose cond3 the dense
    checker still decided."""
    def dense(*args):
        raise AssertionError("dense vector built")

    for module in (liveness, nets):
        monkeypatch.setattr(module, "pre_mset", dense)
        monkeypatch.setattr(module, "post_mset", dense)
    seen = Counter()
    for net, w, variant in _checked_witnesses():
        for budget in (1, 3, 20, 200_000):
            outcomes = []
            for check in (_ref_check_witness, check_witness):
                try:
                    outcomes.append(check(net, w, variant=variant, node_budget=budget))
                except BudgetExceeded as exc:
                    outcomes.append(("budget", exc.explored))
            want, got = outcomes
            assert got == want, (net.name, w, variant, budget)
            if budget == 200_000 and isinstance(want, WitnessReport):
                seen["sound" if want.sound else "unsound"] += 1
                seen["empty"] += not w.p_cruc
                seen["cond2 false, cond3"] += not want.cond2 and want.cond3
                seen["spawning"] += not want.cond2 and any(
                    not net._pre[net.trans_index[t]] and t not in w.t_dead
                    for t in net.transitions)
            else:
                seen["run-out"] += not isinstance(want, WitnessReport)
    assert min(seen.values()) >= 10 and len(seen) == 6, seen


def _pump_witness(**change):
    net, _ = load_net("bimo_pump")
    witness = find_witness(net, (1, 0, 0, 0, 0))
    assert witness is not None and check_witness(net, witness).sound
    return net, dataclasses.replace(witness, **change)


@pytest.mark.parametrize("change,variant,error,fragment", [
    ({}, "dense", NetError, "unknown witness variant"),
    ({"p_cruc": ("nowhere",)}, "ordinary", UnknownNode, "unknown place"),
    ({"t_dead": ("never",)}, "ordinary", UnknownNode, "unknown transition"),
    ({"t_dead": ()}, "ordinary", NetError, "nonempty dead set"),
    ({"p_cruc": ("p1", "p1", "p2", "p3", "p4", "p5")}, "ordinary", NetError,
     "place or transition twice"),
    ({"t_dead": ("t4", "t5", "t6", "t7", "t4")}, "ordinary", NetError,
     "place or transition twice"),
])
def test_check_witness_rejections(change, variant, error, fragment):
    net, witness = _pump_witness(**change)
    with pytest.raises(error, match=fragment):
        check_witness(net, witness, variant=variant)


def test_check_witness_defaults_to_the_nets_variant():
    """Without a variant, `check_witness` judges an ordinary net as
    "ordinary" and a weighted one as "weighted"."""
    pump, pump_witness = _pump_witness()
    single, _ = load_net("weighted_single")
    lone = Witness(m_wit=(1, 0), p_cruc=("p1",), t_dead=("t",))
    for net, witness, variant in ((pump, pump_witness, "ordinary"),
                                  (single, lone, "weighted")):
        report = check_witness(net, witness)
        assert report == check_witness(net, witness, variant=variant)
        assert report.variant == variant and report.sound
    # cond1 tells the two variants apart on the weighted net
    assert not check_witness(single, lone, variant="ordinary").cond1
    assert check_witness(single, lone).cond1
