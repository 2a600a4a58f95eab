import dataclasses
import gc
import itertools
import random
import re
from collections import Counter, deque

import pytest
from hypothesis import given, settings, strategies as st

from ionet import (
    DUMMY_PLACE, CappedConfig, Net, NotBimo, bounds_for, build_stage, cap_value,
    post_mset, pre_mset, capped_config, capped_successors, check_witness, classify,
    dead_at, decide_slp, enabled, fire, is_live_exact, is_nonlive, is_siphon, mleq,
    parse_net, replay, truncate,
)
from ionet.classify import is_imo_msets
from ionet.generate import random_net, random_marking, random_net_in_row
from ionet import liveness, nets, slp
from ionet.liveness import _sub, witness_index
from ionet.slp import (
    SlpVerdict, _box_iter, _capped_closure,
    _search_box, _siphon_witness,
)
from tests.conftest import (
    FIXTURES, accepting_machines, dense_arcs, load_lba, load_net, ring17, with_spawns,
)

ROWS = ("ord-io", "ord-imo", "io", "imo", "ord-bio", "ord-bimo", "bio", "bimo")


def test_bounds_table(fragile_net, weighted_net):
    nc = classify(fragile_net[0])  # ord-io
    b = bounds_for(nc, 5, 1)
    assert (b.first, b.second) == (1, 10)

    # weighted branching row
    nc = classify(weighted_net[0])
    b = bounds_for(nc, 4, 3)
    assert (b.first, b.second) == (12, 24)

    # single-observation single-destination weighted row coincides with the
    # general weighted single-move row at weight 2
    net = Net("w2", ["p", "q"], ["t"], {("p", "t"): 2, ("t", "p"): 1, ("t", "q"): 1})
    nc = classify(net)
    assert nc.io and not nc.ordinary and nc.max_weight == 2
    b = bounds_for(nc, 3, 2)
    assert (b.first, b.second) == (2, 12)

    nc = classify(random_net("imo", n_places=3, n_trans=2, wmax=3, seed=3))
    if not nc.ordinary and nc.imo and not nc.io:
        b = bounds_for(nc, 5, nc.max_weight)
        assert (b.first, b.second) == (nc.max_weight, 10 * nc.max_weight)


def test_bounds_ordinary_branching_rows(pump_net):
    nc = classify(pump_net[0])  # ord-bimo
    b = bounds_for(nc, 5, 1)
    assert (b.first, b.second) == (5, 10)


def test_truncation_bound_is_the_cap():
    """The truncation bound that `ionet bounds` prints is the cap that
    `truncate` and the capped search use: 2w|P| on every row (a weighted io
    net has w = 2, so its 4|P| is 2w|P| too)."""
    cases = [load_net(path.stem)[0] for path in sorted(FIXTURES.glob("*.net"))]
    for k in range(240):
        net = random_net_in_row(ROWS[k % 8], n_places=3 + k % 3, n_trans=1 + k % 4,
                                seed=8_000 + k, wmax=2 + k // 8 % 2)
        cases += [net, with_spawns(net, seed=k)]
    rows = set()
    for net in cases:
        nc = classify(net)
        if nc.bimo:
            rows.add(nc.finest())
            bound = bounds_for(nc, len(net.places), nc.max_weight).second
            assert bound == cap_value(net), net
    assert rows == set(ROWS)


def test_truncate_arithmetic(fragile_net):
    net, _ = fragile_net  # |P| = 6, w = 1, cap = 12
    assert cap_value(net) == 12
    m = (9, 0, 1, 2, 0, 13)
    assert truncate(net, m) == (9, 0, 1, 2, 0, 12)
    below = (1, 2, 3, 0, 0, 4)
    assert truncate(net, below) == below


def test_truncate_preserves_exact_liveness():
    rng = random.Random(47)
    for seed in range(60):
        net = random_net("imo", n_places=3, n_trans=3, wmax=1, seed=seed)
        cap = cap_value(net)
        m = tuple(rng.randrange(cap + 4) for _ in net.places)
        a = is_live_exact(net, m, node_budget=300_000)
        b = is_live_exact(net, truncate(net, m), node_budget=300_000)
        assert a == b


def _successors_transcribed(net, cfg):
    """Literal transcription of the nondeterministic step cases: fire one
    enabled transition then re-cap, or regain one token on a saturated place
    below the cap."""
    cap = cap_value(net)
    flow = net.flow
    out = []
    for t in net.transitions:
        if all(cfg.counts[i] >= w for i, w in
               ((net.place_index[p], w) for (p, tt), w in flow.items()
                if tt == t and p in net.place_index)):
            counts = list(cfg.counts)
            for i, p in enumerate(net.places):
                counts[i] += flow.get((t, p), 0) - flow.get((p, t), 0)
            sat = cfg.saturated
            for i in range(len(counts)):
                if counts[i] > cap:
                    counts[i] = cap
                    sat |= 1 << i
            out.append((t, CappedConfig(tuple(counts), sat)))
    for i, p in enumerate(net.places):
        if cfg.saturated >> i & 1 and cfg.counts[i] < cap:
            counts = list(cfg.counts)
            counts[i] += 1
            out.append((f"+{p}", CappedConfig(tuple(counts), cfg.saturated)))
    return out


def test_capped_successors_against_transcription():
    """On bimo nets, and on the same nets with transitions that have no
    pre-places."""
    rng = random.Random(53)
    checked = 0
    for seed in range(25):
        net = random_net("bimo", n_places=4, n_trans=3, wmax=2, seed=seed)
        for net in (net, with_spawns(net, seed=seed)):
            cap = cap_value(net)
            for _ in range(2):
                counts = tuple(rng.randrange(cap + 1) for _ in net.places)
                sat = sum(1 << i for i in range(len(net.places))
                          if rng.random() < 0.3 or counts[i] == cap)
                cfg = CappedConfig(counts, sat)
                assert capped_successors(net, cfg) == _successors_transcribed(net, cfg)
                checked += 1
    assert checked == 100


def test_capped_successors_trivial_cases():
    net = Net("stuck", ["p"], ["t"], {("p", "t"): 2})
    cfg = CappedConfig((1,), 0)
    assert capped_successors(net, cfg) == []
    cfg = CappedConfig((1,), 0b1)
    succs = capped_successors(net, cfg)
    assert succs == [("+p", CappedConfig((2,), 0b1))]


def test_capped_config_saturates():
    net = Net("gen", ["p", "q"], ["t"], {("p", "t"): 1, ("t", "p"): 1, ("t", "q"): 2})
    cap = cap_value(net)
    m = (1, cap + 5)
    cfg = capped_config(net, m)
    assert cfg.counts == (1, cap) and cfg.saturated == 0b10
    # pushing a place over the cap inside a step sets its flag
    near = CappedConfig((1, cap - 1), 0)
    _, succ = capped_successors(net, near)[0]
    assert succ.counts[1] == cap and succ.saturated >> 1 & 1


def test_flags_are_part_of_identity():
    a = CappedConfig((1, 0), 0)
    b = CappedConfig((1, 0), 0b1)
    assert a != b and hash(a) != hash(b)


def test_is_nonlive_requires_family():
    net = Net("join", ["a", "b", "c"], ["t"],
              {("a", "t"): 1, ("b", "t"): 1, ("t", "c"): 1})
    with pytest.raises(NotBimo):
        is_nonlive(net, (1, 1, 0))


def test_is_nonlive_agrees_with_exact_on_conservative():
    rng = random.Random(59)
    for seed in range(150):
        net = random_net("io" if seed % 2 else "imo",
                         n_places=4, n_trans=4, wmax=1, seed=seed)
        m = random_marking(net, 5, rng)
        v = is_nonlive(net, m)
        exact = is_live_exact(net, m, node_budget=300_000)
        assert v.status == ("live" if exact else "nonlive"), (seed, m)
        if v.is_nonlive:
            assert check_witness(net, v.witness, variant="ordinary").sound


@st.composite
def _conservative_cases(draw):
    net = random_net(draw(st.sampled_from(("io", "imo"))),
                     n_places=draw(st.integers(2, 6)), n_trans=draw(st.integers(1, 5)),
                     wmax=1, seed=draw(st.integers(0, 10**6)))
    n = len(net.places)
    return net, tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))


@pytest.mark.slow
@settings(max_examples=4000)
@given(_conservative_cases())
def test_is_nonlive_matches_exact_property(case):
    net, m = case
    exact = is_live_exact(net, m, node_budget=500_000)
    assert is_nonlive(net, m, node_budget=1_000_000).status == (
        "live" if exact else "nonlive")


def test_is_nonlive_truncation_invariant():
    rng = random.Random(61)
    for seed in range(40):
        net = random_net("bimo", n_places=3, n_trans=3, wmax=2, seed=seed)
        cap = cap_value(net)
        m = tuple(rng.randrange(cap + cap // 2 + 1) for _ in net.places)
        a = is_nonlive(net, m, node_budget=800_000)
        b = is_nonlive(net, truncate(net, m), node_budget=800_000)
        assert a.status == b.status


@st.composite
def _over_cap_cases(draw):
    net = random_net(draw(st.sampled_from(("io", "imo", "bio", "bimo"))),
                     n_places=draw(st.integers(1, 3)), n_trans=draw(st.integers(1, 3)),
                     wmax=draw(st.integers(1, 3)), seed=draw(st.integers(0, 10**6)))
    top = cap_value(net) * 3 // 2
    n = len(net.places)
    return net, tuple(draw(st.lists(st.integers(0, top), min_size=n, max_size=n)))


@settings(max_examples=300)
@given(_over_cap_cases())
def test_truncation_invariant_property(case):
    net, m = case
    assert is_nonlive(net, m).status == is_nonlive(net, truncate(net, m)).status


def test_witness_path_replays_in_capped_space(pump_net):
    net, _ = pump_net
    v = is_nonlive(net, (3, 0, 0, 0, 0))
    assert v.is_nonlive and v.witness.path is not None
    cfg = capped_config(net, (3, 0, 0, 0, 0))
    for step in v.witness.path:
        if step.startswith("+"):
            succ = [c for _, c in capped_successors(net, cfg)
                    if c.saturated == cfg.saturated
                    and c.counts == tuple(
                        x + (1 if p == step[1:] else 0)
                        for x, p in zip(cfg.counts, net.places))]
            cfg = succ[0]
        else:
            matches = [c for _, c in capped_successors(net, cfg)]
            raw = [a - p + q for a, p, q in zip(cfg.counts, pre_mset(net, step),
                                                post_mset(net, step))]
            cap = cap_value(net)
            sat = cfg.saturated
            for i, x in enumerate(raw):
                if x > cap:
                    raw[i] = cap
                    sat |= 1 << i
            cfg = CappedConfig(tuple(raw), sat)
            assert cfg in matches
    assert cfg.counts == v.witness.m_wit


def test_decide_slp_tiny_exhaustive():
    # on 2-3 place nets the verdict must match brute force over the whole box
    from ionet.slp import _box_iter
    rng = random.Random(67)
    for seed in range(40):
        net = random_net("imo", n_places=2 + seed % 2, n_trans=2, wmax=1, seed=seed)
        nc = classify(net)
        bound = bounds_for(nc, len(net.places), nc.max_weight).first
        verdict = decide_slp(net)
        brute = None
        for cand in _box_iter(len(net.places), bound):
            if is_live_exact(net, cand, node_budget=100_000) is True:
                brute = cand
                break
        if brute is None:
            assert verdict.status == "not_structurally_live"
        else:
            assert verdict.status == "structurally_live"
            assert verdict.certificate == brute  # same enumeration order


def test_decide_slp_pump(pump_net):
    net, _ = pump_net
    v = decide_slp(net)
    assert v.status == "structurally_live"
    assert is_nonlive(net, v.certificate).is_live
    # key regression: a bigger marking of a live net can be dead, so the
    # certificate search must not prune monotonically
    assert is_nonlive(net, (1, 0, 0, 0, 0)).is_nonlive
    assert is_nonlive(net, (2, 0, 0, 0, 0)).is_live
    assert is_nonlive(net, (3, 0, 0, 0, 0)).is_nonlive


def test_decide_slp_candidate_budget(pump_net):
    net, _ = pump_net
    v = decide_slp(net, candidate_budget=1)
    assert v.status == "budget_exceeded"


def test_decide_slp_node_budget():
    # the second candidate's liveness decision runs out of nodes; a fresh
    # net, because the probe's memo on a decided one would answer it
    v = decide_slp(load_net("bimo_pump")[0], node_budget=3)
    assert v.status == "budget_exceeded"
    assert (v.candidates_tested, v.configs_explored, v.siphon_settled) == (2, 4, 1)


def test_node_budget_bounds_each_search():
    """Every candidate's `is_nonlive` gets the whole `node_budget`, and each
    of its searches does too, so the configurations a call explores in all
    can exceed it many times over."""
    v = decide_slp(load_net("bio_dense")[0], candidate_budget=3000, node_budget=10_000)
    assert (v.status, v.candidates_tested, v.configs_explored) == (
        "structurally_live", 1_067, 71_394)


def test_warm_net_answers_within_the_budget():
    """`node_budget` bounds each search of a call; answers memoised on the
    net by earlier calls are free, so a budget that runs out on a fresh net
    is enough once the net has been decided."""
    net, _ = load_net("bimo_pump")

    def counts(v):
        return (v.status, v.certificate, v.candidates_tested, v.configs_explored,
                v.siphon_settled)
    assert counts(decide_slp(net, node_budget=3)) == ("budget_exceeded", None, 2, 4, 1)
    assert counts(decide_slp(net)) == (
        "structurally_live", (0, 0, 0, 0, 1), 2, 766, 1)
    assert counts(decide_slp(net, node_budget=3)) == (
        "structurally_live", (0, 0, 0, 0, 1), 2, 0, 1)


def _ring(n, **extra):
    """Single-token ring p0 -> p1 -> ... -> p0 through t0..t(n-1), plus the
    transitions of `extra`: name -> flow of that transition."""
    places = [f"p{i}" for i in range(n)]
    trans = [f"t{i}" for i in range(n)]
    flow = {}
    for i in range(n):
        flow[(places[i], trans[i])] = 1
        flow[(trans[i], places[(i + 1) % n])] = 1
    for t, arcs in extra.items():
        trans.append(t)
        flow.update(arcs)
    return Net(f"ring{n}", places, trans, flow)


def test_ring17_decided_on_the_reachability_graph():
    net = ring17()
    one = (1,) + (0,) * 16
    v = is_nonlive(net, one)
    assert (v.status, v.method, v.configs_explored) == ("nonlive", "reach-graph", 17)
    assert v.witness.t_dead == ("x",)
    assert check_witness(net, v.witness).sound
    assert replay(net, one, v.witness.path).final == v.witness.m_wit
    assert is_live_exact(net, one) is False
    v = is_nonlive(net, one, node_budget=5)
    assert (v.status, v.method, v.configs_explored) == (
        "budget_exceeded", "reach-graph", 5)
    v = is_nonlive(net, (1, 1) + (0,) * 15)
    assert (v.status, v.method, v.configs_explored) == ("live", "reach-graph", 153)


def test_reach_graph_witness_check_shares_the_budget(monkeypatch):
    """The reach-graph decision checks its constructed witness within the
    caller's `node_budget`, and a run-out there is a `budget_exceeded`
    verdict, not an exception."""
    one = (1,) + (0,) * 16
    budgets = []
    check = slp.check_witness

    def recording(net, witness, variant="ordinary", node_budget=200_000):
        budgets.append(node_budget)
        return check(net, witness, variant=variant, node_budget=node_budget)

    monkeypatch.setattr(slp, "check_witness", recording)
    assert is_nonlive(ring17(), one, node_budget=1_234).status == "nonlive"
    assert budgets == [1_234]

    def exhausted(*args, **kwargs):
        raise liveness.BudgetExceeded(7)

    monkeypatch.setattr(slp, "check_witness", exhausted)
    v = is_nonlive(ring17(), one)
    # the 17 nodes of the reachability graph plus the check's 7 states
    assert (v.status, v.method, v.configs_explored) == ("budget_exceeded", "reach-graph", 24)


_OBSERVER = {"x": {("p0", "x"): 1, ("p1", "x"): 1, ("x", "p1"): 1, ("x", "p2"): 1}}


@pytest.mark.parametrize("n,marked,want", [
    (16, 1, ("nonlive", "capped-search", 1)),
    (16, 2, ("live", "abstract", 136)),
    (17, 1, ("nonlive", "reach-graph", 17)),
    (17, 2, ("live", "reach-graph", 153)),
])
def test_net_size_picks_the_path(n, marked, want):
    """At most `SUBSET_CAP` places the witness search decides; a conservative
    net above it is decided on its reachability graph."""
    assert liveness.SUBSET_CAP == 16
    v = is_nonlive(_ring(n, **_OBSERVER), (1,) * marked + (0,) * (n - marked))
    assert (v.status, v.method, v.configs_explored) == want


def test_non_conservative_net_above_the_cap_is_refused():
    """Refused when the witness index is asked for, before a move table or
    a witness index is cached on the net."""
    net = random_net("bimo", n_places=17, n_trans=5, wmax=2, seed=1)
    assert not classify(net).conservative
    for decide in (lambda: is_nonlive(net, (3,) * 17), lambda: decide_slp(net),
                   lambda: liveness.find_witness(net, (3,) * 17)):
        with pytest.raises(liveness.SubsetCapExceeded, match="subset cap"):
            decide()
    assert not {"move_table", "witness_index"} & net._analysis.keys()


def test_nonlive_paths_replay_in_their_space(monkeypatch):
    """Every non-live verdict's path leads to `m_wit` in the space its method
    searched: none for the siphon shortcut, capped steps (drains included)
    for the capped search, firings from the truncated marking on the
    reachability graph."""
    real_drains, drained = slp._try_drains, []

    def try_drains(*args):
        witness = real_drains(*args)
        drained.append(witness is not None)
        return witness
    monkeypatch.setattr(slp, "_try_drains", try_drains)
    rng = random.Random(83)
    cases = []
    for k in range(400):
        net = random_net_in_row(ROWS[k % 8], n_places=3 + k % 3, n_trans=1 + k % 4,
                                seed=40_000 + k)
        cap = cap_value(net)
        cases += [(net, tuple(rng.choice((0, 1, 2, rng.randrange(2 * cap + 1)))
                              for _ in net.places)) for _ in range(2)]
    for i in range(17):  # a token on p_i, and one on p_i and p_(i+1)
        cases += [(ring17(), tuple(int(j == i) for j in range(17))),
                  (ring17(), tuple(int(j in (i, (i + 1) % 17)) for j in range(17)))]
    methods = Counter()
    for net, m in cases:
        v = is_nonlive(net, m)
        if not v.is_nonlive:
            continue
        methods[v.method] += 1
        path = v.witness.path
        if v.method == "siphon":
            assert path == () and v.witness.m_wit == truncate(net, m)
        elif v.method == "capped-search":
            cfg = capped_config(net, m)
            for step in path:
                cfg = dict(capped_successors(net, cfg))[step]
            assert cfg.counts == v.witness.m_wit, (net, m)
        else:
            assert v.method == "reach-graph"
            assert replay(net, truncate(net, m), path).final == v.witness.m_wit
    assert min(methods.values()) >= 10 and len(methods) == 3
    drains = drained.count(True)  # the other capped-search paths are the closure's
    assert drains >= 100 and methods["capped-search"] - drains >= 100


def test_capped_search_budget():
    def net():  # fresh per query: the probe's memo would shrink the counts
        return Net("loops", ["p1", "p2", "p3", "p4", "p5"], ["t1", "t2", "t3"],
                   {("p3", "t1"): 1, ("t1", "p3"): 1, ("p5", "t2"): 1, ("t2", "p5"): 1,
                    ("p2", "t3"): 2, ("p4", "t3"): 1, ("t3", "p2"): 3})
    m = (20, 36, 38, 43, 31)
    v = is_nonlive(net(), m, node_budget=10)
    assert (v.status, v.method, v.configs_explored) == (
        "budget_exceeded", "capped-search", 17)
    v = is_nonlive(net(), m, node_budget=31)
    assert (v.status, v.method, v.configs_explored) == ("nonlive", "capped-search", 37)


def _rename_place(net, old, new):
    def rename(v):
        return new if v == old else v
    return Net(net.name, [rename(p) for p in net.places], net.transitions,
               {(rename(a), rename(b)): w for (a, b), w in net.flow.items()})


def test_place_named_like_the_dummy_is_decided():
    """A place may be named like the dummy place although some transition
    has no pre-places: the decision adds no dummy place, so it answers as
    on the net with the place's first name."""
    rows = ("ord-io", "ord-imo", "io", "imo", "ord-bio", "ord-bimo", "bio", "bimo")
    rng = random.Random(5)
    methods = Counter()
    for k in range(200):
        net = with_spawns(random_net_in_row(rows[k % 8], n_places=3 + k % 3,
                                            n_trans=1 + k % 4, seed=76_000 + k), seed=k)
        first = net.places[0]
        clash = _rename_place(net, first, DUMMY_PLACE)
        cap = cap_value(net)
        for _ in range(3):
            m = tuple(rng.randrange(cap + cap // 2 + 1) for _ in net.places)
            want = is_nonlive(net, m, node_budget=20_000)
            got = is_nonlive(clash, m, node_budget=20_000)
            assert (got.status, got.method, got.configs_explored) == (
                want.status, want.method, want.configs_explored), (net, m)
            witness = want.witness
            if witness is not None:
                witness = dataclasses.replace(witness, p_cruc=tuple(
                    DUMMY_PLACE if p == first else p for p in witness.p_cruc))
            assert got.witness == witness, (net, m)
            methods[got.method] += 1
    assert methods["capped-search"] >= 200, methods


def test_slp_01_ring_is_live():
    # a single-token ring state machine is live from any one-hot marking
    for n in (2, 3, 4):
        net = _ring(n)
        v = decide_slp(net)
        assert v.status == "structurally_live"
        assert sum(v.certificate) == 1
        assert is_live_exact(net, v.certificate) is True


def test_slp_01_matches_decide_slp():
    """On ordinary imo nets `decide_slp` searches the 0/1 box; the 0..2 box
    gives the same status."""
    for seed in range(60):
        net = random_net("imo", n_places=3, n_trans=3, wmax=1, seed=200 + seed)
        a = decide_slp(net)
        b = _search_box(net, 2, 200_000, 500_000)
        assert a.status == b.status
        if a.certificate is not None:
            assert all(x <= 1 for x in a.certificate)


def test_slp_01_empty_net():
    v = decide_slp(Net("none", [], [], {}))
    assert v.status == "structurally_live" and v.certificate == ()


def test_nonlive_verdict_reports(pump_net):
    net, _ = pump_net
    v = is_nonlive(net, (1, 0, 0, 0, 0))
    d = v.to_dict()
    assert d["verdict"] == "nonlive"
    assert d["witness"]["t_dead"]
    assert is_nonlive(net, (0, 0, 0, 0, 1)).to_dict()["verdict"] == "live"


@given(st.lists(st.integers(min_value=0, max_value=40), min_size=5, max_size=5))
def test_truncate_idempotent_and_bounded(counts):
    net = random_net("bimo", n_places=5, n_trans=3, wmax=2, seed=1)
    m = tuple(counts)
    t = truncate(net, m)
    assert truncate(net, t) == t
    assert mleq_all(t, m) and max(t) <= cap_value(net)


def mleq_all(a, b):
    return all(x <= y for x, y in zip(a, b))


@pytest.mark.parametrize("name", ("bio_dense", "io_fragile"))
def test_repeat_query_explores_nothing(name):
    """A marking answered from the probe memo reports no abstract work."""
    net, m0 = load_net(name)
    first, second = is_nonlive(net, m0), is_nonlive(net, m0)
    assert first.configs_explored > 0 and second.configs_explored == 0
    assert (second.status, second.method) == (first.status, first.method) == (
        "live", "abstract")


def test_witness_existence_implies_nonlive():
    from ionet import find_witness
    rng = random.Random(111)
    hits = 0
    for seed in range(200):
        net = random_net("bimo", n_places=4, n_trans=3, wmax=1, seed=seed)
        m = random_marking(net, 4, rng)
        w = find_witness(net, m)
        v = is_nonlive(net, m, node_budget=500_000)
        if w is not None:
            hits += 1
            assert v.is_nonlive, (seed, m)
        if v.is_live:
            assert w is None
    assert hits >= 30


def test_dense_net_invariants_are_inductive(dense_net):
    # the stored marking satisfies a family of token conditions that firing
    # preserves; spot-check preservation along random walks
    net, m0 = dense_net
    idx = net.place_index

    def conditions(m):
        control = sum(m[idx[f"p{i}"]] for i in range(7, 13))
        c = [control == 1]
        if m[idx["p7"]] + m[idx["p8"]] + m[idx["p9"]] == 1:
            c.append(m[idx["p5"]] >= 2)
        if m[idx["p10"]] + m[idx["p11"]] + m[idx["p12"]] == 1:
            c.append(m[idx["p2"]] >= 2)
        if m[idx["p7"]] == 1:
            c.append(m[idx["p1"]] + m[idx["p2"]] >= 2 or m[idx["p3"]] >= 1)
        if m[idx["p10"]] == 1:
            c.append(m[idx["p4"]] + m[idx["p5"]] >= 2 or m[idx["p6"]] >= 1)
        if m[idx["p8"]] + m[idx["p9"]] == 1:
            c.append(m[idx["p3"]] >= 1)
        if m[idx["p11"]] + m[idx["p12"]] == 1:
            c.append(m[idx["p6"]] >= 1)
        if m[idx["p9"]] == 1:
            c.append(m[idx["p2"]] >= 1)
        if m[idx["p12"]] == 1:
            c.append(m[idx["p5"]] >= 1)
        return all(c)

    # one condition set differs from the stored marking's: p5 >= 2 holds with
    # the control token on the p8 side
    assert conditions(m0)
    rng = random.Random(113)
    for _ in range(40):
        m = m0
        for _ in range(30):
            opts = [t for t in net.transitions if enabled(net, m, t)]
            if not opts:
                break
            m = fire(net, m, rng.choice(opts))
            assert conditions(m)


# Non-live markings of the fixtures, with witness paths of length 0 to 9.
FIXTURE_NONLIVE = (
    ("bimo_siphon", (4, 0, 0, 0, 0, 1)),
    ("bimo_witness", (1, 1, 1, 1, 1, 1, 1)),
    ("bimo_pump", (1, 0, 0, 0, 0)),
    ("bimo_pump", (3, 0, 0, 0, 0)),
    ("io_fragile", (1, 1, 1, 0, 0, 1)),
    ("weighted_single", (1, 0)),
    ("bio_dense", (1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0)),
)


def _probe_targets(net, marking):
    targets, _ = witness_index(net).probe(truncate(net, marking), 500_000)
    return targets


@pytest.mark.parametrize("name,marking", FIXTURE_NONLIVE)
def test_closure_search_path_replays(name, marking):
    """Breadth first (no targets) and best first (the probe's targets)."""
    net, _ = load_net(name)
    assert is_nonlive(net, marking).is_nonlive
    targets = _probe_targets(net, marking)
    assert targets
    variant = "ordinary" if classify(net).ordinary else "weighted"
    for order in ((), targets):
        cfg = capped_config(net, marking)
        witness, _ = _capped_closure(net, cfg, order, 500_000, witness_index(net))
        assert witness is not None and witness.path is not None
        for step in witness.path:
            cfg = dict(capped_successors(net, cfg))[step]
        assert cfg.counts == witness.m_wit
        assert check_witness(net, witness, variant=variant).sound


def test_dense_two_token_marking_is_pinned():
    """A marking of bio_dense with at most two tokens per place: the probe
    flags it at once and the capped search explores 34 911 configurations
    before it reaches a witness."""
    net, _ = load_net("bio_dense")
    m = (2, 1, 1, 2, 1, 2, 1, 2, 2, 1, 2, 0)
    v = is_nonlive(net, m)
    assert (v.status, v.method, v.configs_explored) == ("nonlive", "capped-search", 34_911)
    assert check_witness(net, v.witness).sound
    assert replay(net, m, v.witness.path).final == v.witness.m_wit


def test_capped_closure_exhausts_live_markings():
    """Guided toward another marking's witness candidates, the search still
    visits the whole capped space of a live marking and finds nothing."""
    box = list(itertools.product(range(3), repeat=3))
    cases = 0
    for seed in range(100):
        net = random_net("io" if seed % 2 else "imo",
                         n_places=3, n_trans=3, wmax=1, seed=seed)
        exact = [is_live_exact(net, m, node_budget=300_000) for m in box]
        nonlive = [m for m, e in zip(box, exact) if e is False]
        if not nonlive:
            continue
        targets = _probe_targets(net, nonlive[0])
        assert targets
        for m, e in zip(box, exact):
            if e is True:
                cases += 1
                witness, explored = _capped_closure(
                    net, capped_config(net, m), targets, 500_000, witness_index(net))
                assert witness is None and explored > 0, (seed, m)
    assert cases >= 150


def test_is_nonlive_live_after_positive_probe(monkeypatch):
    """A probe that flags a live marking (over-approximation) leaves the
    answer to the capped search, which must come back live."""
    net, m0 = load_net("io_fragile")
    assert is_live_exact(net, m0) is True
    targets = _probe_targets(net, (1, 1, 1, 0, 0, 1))
    monkeypatch.setattr(liveness.WitnessIndex, "probe",
                        lambda self, marking, node_budget: (targets, 0))
    v = is_nonlive(net, m0)
    assert (v.status, v.method) == ("live", "capped-search")
    assert v.witness is None and v.configs_explored > 0


def _abstract_successors_transcribed(net, idx, state):
    """The abstract step on `net` by its definition, over every transition
    in declaration order: fire when enabled, keep TOP places TOP, cap exact
    counts at TOP, and branch a drained TOP place to exactly m-1."""
    m = idx.m
    out = []
    for pre, post in dense_arcs(net):
        if any(x < w for x, w in zip(state, pre)):
            continue
        base = list(state)
        drain = None
        for i, (p, q) in enumerate(zip(pre, post)):
            d = q - p
            if d == 0:
                continue
            if state[i] == m:
                if d < 0:
                    drain = i
            else:
                base[i] = min(state[i] + d, m)
        out.append(tuple(base))
        if drain is not None:
            alt = list(base)
            alt[drain] = m - 1
            out.append(tuple(alt))
    return out


def test_abstract_successors_against_transcription():
    """The move-table walk lists the abstract successors in the order of the
    dense definition, on nets of every row, with and without transitions
    that have no pre-places, at states mixing exact and TOP places."""
    rng = random.Random(61)
    rows = ("ord-io", "ord-imo", "io", "imo", "ord-bio", "ord-bimo", "bio", "bimo")
    checked = mixed = 0
    for k in range(48):
        net = random_net_in_row(rows[k % 8], n_places=2 + k % 4, n_trans=1 + k % 5,
                                seed=61_000 + k)
        for net in (net, with_spawns(net, seed=k)):
            idx = liveness.WitnessIndex(net)
            top = idx.m
            for _ in range(6):
                state = tuple(rng.choice((top, rng.randrange(top)))
                              for _ in net.places)
                mixed += 0 < state.count(top) < len(state)
                assert [nxt for nxt, _ in idx.abstract_successors(state)] == \
                    _abstract_successors_transcribed(net, idx, state), (net, state)
                checked += 1
    assert checked == 576 and mixed >= 100


def test_abstract_successors_drain_top():
    """Taking a token from a TOP place leaves it TOP or exactly m-1."""
    net = Net("move", ["p", "q"], ["t"], {("p", "t"): 1, ("t", "q"): 1})
    idx = liveness.WitnessIndex(net)
    top = idx.m

    def states(state):
        return [nxt for nxt, _ in idx.abstract_successors(state)]

    assert sorted(states((top, 0))) == [(top - 1, 1), (top, 1)]
    assert sorted(states((top, top))) == [(top - 1, top), (top, top)]
    assert states((top - 1, 0)) == [(top - 2, 1)]


def _fresh(net):
    return Net(net.name, net.places, net.transitions, net.flow)


@pytest.mark.parametrize("row", ("ord-io", "ord-imo", "io", "imo", "ord-bimo"))
def test_shared_net_matches_fresh_nets(row):
    """Per-net caches (the probe memo above all) fill up as markings are
    decided; the verdicts must not depend on what was decided before."""
    rng = random.Random(71)
    statuses = set()
    for k in range(12):
        net = random_net_in_row(row, n_places=3, n_trans=2 + k % 4, seed=700 + k)
        cap = cap_value(net)
        markings = list(itertools.product((0, 1), repeat=3))
        markings += [tuple(rng.randrange(cap + cap // 2 + 1) for _ in range(3))
                     for _ in range(8)]
        want = [(v.status, v.method)
                for v in (is_nonlive(_fresh(net), m) for m in markings)]
        for order in (markings, markings[::-1]):
            shared = _fresh(net)
            got = {m: is_nonlive(shared, m) for m in order}
            assert [(got[m].status, got[m].method) for m in markings] == want, (row, k)
        statuses.update(status for status, _ in want)
    assert statuses == {"live", "nonlive"}


def _first_exact_witness(idx, state, top):
    """Reference for `witness_at(state, mask)`: the first subset whose every
    place, tested one by one, has an exact count (below `top`) and which has
    a dead set there."""
    for data in idx.entries:
        for i in data.indices:
            if state[i] >= top:
                break
        else:
            dead = idx.dead_set(data, tuple(state[i] for i in data.indices))
            if dead:
                return data.indices, dead
    return None


def _probed_nets():
    """(name, net) after deciding some markings: every fixture, on its first
    32 0/1 markings and its stored marking, and seeded nets of each A-06
    row, on six 0/1 markings and six up to 1.5 times the cap."""
    for path in sorted(FIXTURES.glob("*.net")):
        net, stored = parse_net(path.read_text())
        markings = itertools.islice(itertools.product((0, 1), repeat=len(net.places)), 32)
        for m in [*markings, *([stored] if stored else [])]:
            is_nonlive(net, m)
        yield path.stem, net
    for row in ("ord-io", "ord-imo", "io", "imo", "ord-bimo"):
        rng = random.Random(73)
        for k in range(8):
            net = random_net_in_row(row, n_places=3 + k % 3, n_trans=1 + k % 4,
                                    seed=800 + k)
            cap = cap_value(net)
            for top in [2] * 6 + [cap + cap // 2 + 1] * 6:
                is_nonlive(net, tuple(rng.randrange(top) for _ in net.places))
            yield f"{row}/{k}", net


def test_abstract_successors_flag_domination():
    """On every abstract state the probe memoised, mixing exact and TOP
    values, a successor is flagged as dominating exactly when it is at least
    the state on every place, TOP being the largest value.  Where the lookup
    at the state answers None, a fresh index, with its memos and clean lists
    emptied before each lookup, answers None at every flagged successor with
    that successor's TOP mask: the probe skips those lookups."""
    pairs = flagged = mixed = 0
    for name, net in _probed_nets():
        idx = net._analysis.get("witness_index")
        if idx is None:
            continue
        top = idx.m
        fresh = liveness.WitnessIndex(net)

        def many(state):
            return sum(1 << i for i, x in enumerate(state) if x >= top)

        for s in idx.reach:
            mixed += 0 < s.count(top) < len(s)
            clean = None
            for nxt, dominates in idx.abstract_successors(s):
                pairs += 1
                assert dominates == all(a <= b for a, b in zip(s, nxt)), (name, s, nxt)
                if not dominates:
                    continue
                if clean is None:
                    clean = idx.witness_at(s, many(s)) is None
                if clean:
                    fresh.memo.clear()
                    fresh.at_memo.clear()
                    for data in fresh.entries:
                        data.clean = ()
                    assert fresh.witness_at(nxt, many(nxt)) is None, (name, s, nxt)
                    flagged += 1
    assert pairs > 40_000 and flagged > 10_000 and mixed > 5_000


def test_probe_skips_lookups_on_dominating_states(monkeypatch):
    """The stored bio_dense marking is live by the abstract probe, which pops
    7 795 states but asks the witness index about only 5 411 of them: the
    rest dominate a state whose lookup answered None."""
    lookups = []
    witness_at = liveness.WitnessIndex.witness_at

    def counted(self, *args, **kwargs):
        lookups.append(args[0])
        return witness_at(self, *args, **kwargs)

    monkeypatch.setattr(liveness.WitnessIndex, "witness_at", counted)
    net, stored = load_net("bio_dense")
    v = is_nonlive(net, stored)
    assert (v.status, v.method, v.configs_explored) == ("live", "abstract", 7_795)
    assert len(lookups) == 5_411 < v.configs_explored


def test_witness_at_mask_matches_exactness_loop():
    """On every abstract state the probe memoised, the masked lookup answers
    as testing exactness place by place does.  The plain lookup of the same
    state must still give the first witness; it is checked on nets of up to
    seven places, since on bio_dense's twelve it explores for many seconds."""
    told_apart = 0
    for name, net in _probed_nets():
        idx = net._analysis.get("witness_index")
        if idx is None:
            continue
        top = idx.m
        for s in idx.reach:
            mask = sum(1 << i for i, x in enumerate(s) if x >= top)
            want = _first_exact_witness(idx, s, top)
            assert idx.witness_at(s, mask) == want, (name, s)
            if mask and len(net.places) <= 7:
                plain = idx.witness_at(s)
                assert plain == _first_exact_witness(idx, s, float("inf")), (name, s)
                told_apart += plain != want
    # states where skipping the inexact subsets changes the answer
    assert told_apart


def _covered_outside_t_i(data, r):
    """Reference for the start rejection: some transition outside T_I has
    its restricted pre-mset covered by `r`, so `dead_set` fails at once."""
    return any(data.blockers >> ti & 1 and all(w <= r[k] for k, w in pre)
               for ti, pre in enumerate(data.covers))


def _viable_reference(net, indices):
    """The test the index used to keep a subset: every transition with an
    empty restricted pre-mset moves a single token on it."""
    return all(any(pre[i] for i in indices)
               or is_imo_msets(_sub(pre, indices), _sub(post, indices))
               for pre, post in dense_arcs(net))


def _siphon_nets():
    for path in sorted(FIXTURES.glob("*.net")):
        yield path.stem, parse_net(path.read_text())[0]
    for row in ("ord-io", "ord-imo", "io", "imo", "ord-bimo", "bimo"):
        for k in range(12):
            yield f"{row}/{k}", random_net_in_row(
                row, n_places=3 + k % 4, n_trans=1 + k % 5, seed=1_000 + k)


def test_witness_index_enumerates_siphons(monkeypatch):
    """The index keeps exactly the nonempty siphons, in (size, indices)
    order; they are the subsets the old per-subset test kept.  Only they
    get a `_SubsetData`: bio_dense builds 440 of its 4 095 subsets."""
    weighted = 0
    for name, net in _siphon_nets():
        weighted += net.max_weight > 1
        n = len(net.places)
        subsets = [c for k in range(1, n + 1) for c in itertools.combinations(range(n), k)]
        got = [data.indices for data in witness_index(net).entries]
        assert got == [s for s in subsets
                       if is_siphon(net, {net.places[i] for i in s})], name
        assert got == [s for s in subsets if _viable_reference(net, s)], name
    assert weighted

    built = []
    init = liveness._SubsetData.__init__

    def counting_init(self, net, mask):
        built.append(mask)
        init(self, net, mask)

    monkeypatch.setattr(liveness._SubsetData, "__init__", counting_init)
    net, _ = load_net("bio_dense")
    assert len(witness_index(net).entries) == len(built) == 440


def test_decided_nets_are_freed_by_reference_counting():
    """No per-net cache points back at its net, so a decided net, its caches
    and its verdicts are freed as soon as they are dropped: with the cyclic
    collector off, deciding fresh bio_dense and seeded row nets leaves it
    nothing to collect."""
    text = (FIXTURES / "bio_dense.net").read_text()
    rng = random.Random(97)
    gc.collect()
    gc.disable()
    try:
        net, stored = parse_net(text)
        verdicts = [is_nonlive(net, stored), decide_slp(net)]
        assert {"witness_index"} <= set(net._analysis)
        del net, verdicts
        for row in ("ord-io", "ord-imo", "io", "imo", "ord-bimo"):
            for k in range(6):
                net = random_net_in_row(row, n_places=3 + k % 3, n_trans=1 + k % 4,
                                        seed=10_000 + 13 * k)
                cap = cap_value(net)
                m = tuple(rng.randrange(cap + cap // 2 + 1) for _ in net.places)
                verdicts = [is_nonlive(net, m), decide_slp(net)]
                del net, verdicts
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_siphon_verdicts_build_no_move_table():
    """A verdict that the siphon shortcut reaches reads the per-transition
    place bitmasks alone: on a fresh net it caches "place_masks" and builds
    no move table.  Checked on every such 0/1 marking of bio_dense and on a
    rejecting compiled machine."""
    text = (FIXTURES / "bio_dense.net").read_text()
    dense = parse_net(text)[0]

    def fresh_cases():
        for m in itertools.product((0, 1), repeat=len(dense.places)):
            if _siphon_witness(dense, m):
                yield parse_net(text)[0], m
        yield build_stage(load_lba("reject_all_2"), "ab", "Nbar")

    decided = 0
    for net, m in fresh_cases():
        assert is_nonlive(net, m).method == "siphon", m
        assert "place_masks" in net._analysis and "move_table" not in net._analysis, m
        decided += 1
    assert decided > 1000


def test_cache_keys_match_the_nets_docstring():
    """The `net._analysis` keys that deciding fills are exactly the quoted
    keys that the `ionet.nets` docstring lists."""
    listed = set(re.findall(r'"(\w+)"', nets.__doc__))
    net, stored = load_net("bio_dense")
    live = is_nonlive(net, stored)
    capped = is_nonlive(net, (0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1))
    assert (live.status, capped.method) == ("live", "capped-search")
    machine, m0 = build_stage(load_lba("accept_all_2"), "ab", "Nbar")
    assert is_nonlive(machine, m0, node_budget=1_000_000).method == "reach-graph"
    assert decide_slp(machine, candidate_budget=2_000_000,
                      node_budget=1_000_000).status == "structurally_live"
    assert set(net._analysis) | set(machine._analysis) == listed


def _subset_data_reference(net, indices):
    """(blockers, covers, fire) of a `_SubsetData` by the dense build: each
    transition's count vectors restricted to `indices`, T_I by
    `is_imo_msets`."""
    blockers, covers, fire = 0, [], []
    for ti, (pre, post) in enumerate(dense_arcs(net)):
        pre, post = _sub(pre, indices), _sub(post, indices)
        support = tuple((k, w) for k, w in enumerate(pre) if w)
        covers.append(support)
        if not is_imo_msets(pre, post):
            blockers |= 1 << ti
        elif support:
            fire.append((support, tuple(q - p for p, q in zip(pre, post))))
    return blockers, tuple(covers), tuple(fire)


def _general_nets():
    """Seeded nets outside the immediate-observation family: each transition
    takes and gives up to three weighted arcs on any places."""
    for k in range(12):
        rng = random.Random(1_200 + k)
        places = [f"p{i}" for i in range(3 + k % 3)]
        transitions = [f"t{i}" for i in range(2 + k % 4)]
        flow = {}
        for t in transitions:
            for _ in range(rng.randint(0, 3)):
                flow[rng.choice(places), t] = rng.randint(1, 2)
            for _ in range(rng.randint(0, 3)):
                flow[t, rng.choice(places)] = rng.randint(1, 2)
        yield f"general/{k}", Net(f"g{k}", places, transitions, flow)


def test_witness_index_build_matches_dense_reference(monkeypatch):
    """Every entry's `blockers`, `covers` and `fire`, built from the stored
    arc pairs and the move table's sparse deltas, are the dense build's, and
    so are those of records built on every subset of nets of up to eight
    places, siphon or not.  The sample holds transitions that T_I must
    exclude although the deltas on the subset sum to 0 (two tokens leave and
    two enter), and, on non-siphons only, transitions with an empty
    restricted pre-set and a nonempty restricted post-set.  The build reads
    no dense vector."""
    entries = spawning = two_out = 0
    for name, net in itertools.chain(_siphon_nets(), _general_nets()):
        for data in witness_index(net).entries:
            entries += 1
            assert (data.blockers, data.covers, data.fire) == \
                _subset_data_reference(net, data.indices), (name, data.indices)
        if len(net.places) > 8:
            continue
        table = nets._move_table(net)
        for mask in range(1, 1 << len(net.places)):
            data = liveness._SubsetData(table, mask)
            want = _subset_data_reference(net, data.indices)
            assert (data.blockers, data.covers, data.fire) == want, (name, data.indices)
            for ti, (pre, post) in enumerate(dense_arcs(net)):
                pre, post = _sub(pre, data.indices), _sub(post, data.indices)
                if not any(pre) and any(post):
                    spawning += 1
                elif sum(pre) == sum(post) and sum(nets.msub(pre, post)) > 1:
                    two_out += 1
                else:
                    continue
                assert data.blockers >> ti & 1, (name, data.indices, ti)
    assert entries and spawning and two_out

    def dense(*args):
        raise AssertionError("dense vector built")

    for module in (liveness, nets):
        monkeypatch.setattr(module, "pre_mset", dense)
        monkeypatch.setattr(module, "post_mset", dense)
    net = load_net("bio_dense")[0]
    assert len(liveness.WitnessIndex(net).entries) == 440


def test_witness_index_entry_bitmasks():
    """`contains[i]` and `blocked[ti]` transpose the entries: bit e is set
    iff place i is among entry e's `indices`, or bit ti of its `blockers`
    is set."""
    names = []
    for name, net in _siphon_nets():
        names.append(name)
        idx = witness_index(net)
        assert len(idx.contains) == len(net.places), name
        assert len(idx.blocked) == len(net.transitions), name
        for i, bits in enumerate(idx.contains):
            assert bits == sum(1 << e for e, data in enumerate(idx.entries)
                               if i in data.indices), (name, i)
        for ti, bits in enumerate(idx.blocked):
            assert bits == sum(1 << e for e, data in enumerate(idx.entries)
                               if data.blockers >> ti & 1), (name, ti)
    assert "bio_dense" in names


def _boundary_markings(net):
    """Markings one token below, at and above each pre arc weight: each
    transition's pre-mset with one of its places moved by -1, 0 or +1, and
    the uniform markings around every weight of the net."""
    n = len(net.places)
    weights = {w for support in net._pre for _, w in support}
    out = {(w + d,) * n for w in weights for d in (-1, 0, 1)}
    for (pre, _), support in zip(dense_arcs(net), net._pre):
        for i, w in support:
            for d in (-1, 0, 1):
                out.add(pre[:i] + (w + d,) + pre[i + 1:])
    return sorted(out)


def _start_nets():
    yield "bio_dense", load_net("bio_dense")[0]
    for row in ("ord-io", "ord-imo", "io", "imo", "ord-bimo", "bimo"):
        for k in range(6):
            yield f"{row}/{k}", random_net_in_row(
                row, n_places=3 + k % 3, n_trans=1 + k % 4, seed=900 + k)


def test_witness_at_start_rejection():
    """`witness_at` runs `dead_set` on exactly the subsets, up to the one it
    returns, that the start test does not reject; a rejected pair has no
    dead set.  On nets of up to seven places the answer is the first
    witness over all subsets."""
    rejected = weighted = 0
    for name, net in _start_nets():
        weighted += net.max_weight == 3
        idx = witness_index(net)
        for m in _boundary_markings(net):
            idx.memo.clear()
            idx.at_memo.clear()
            got = idx.witness_at(m)
            searched = (idx.entries if got is None else
                        idx.entries[:[d.indices for d in idx.entries].index(got[0]) + 1])
            assert set(idx.memo) == {
                (d.indices, _sub(m, d.indices)) for d in searched
                if not _covered_outside_t_i(d, _sub(m, d.indices))}, (name, m)
            for data in idx.entries:
                r = _sub(m, data.indices)
                if _covered_outside_t_i(data, r):
                    rejected += 1
                    assert idx.dead_set(data, r) is None, (name, m, data.indices)
            if len(net.places) <= 7:
                assert got == _first_exact_witness(idx, m, float("inf")), (name, m)
    assert rejected and weighted


def test_witness_at_start_rejection_with_inexact_places():
    """On every abstract state the probe memoised, with its "many" mask,
    `witness_at` runs `dead_set` on exactly the subsets, up to the one it
    returns, that touch no inexact place and pass the start test."""
    masked = 0
    for name, net in _probed_nets():
        idx = net._analysis.get("witness_index")
        if idx is None:
            continue
        top = idx.m
        place_bits = [sum(1 << i for i in data.indices) for data in idx.entries]
        for s in idx.reach:
            mask = sum(1 << i for i, x in enumerate(s) if x >= top)
            masked += mask != 0
            idx.memo.clear()
            idx.at_memo.clear()
            got = idx.witness_at(s, mask)
            searched = (len(idx.entries) if got is None else
                        [d.indices for d in idx.entries].index(got[0]) + 1)
            assert set(idx.memo) == {
                (d.indices, _sub(s, d.indices))
                for d, bits in zip(idx.entries[:searched], place_bits)
                if not bits & mask and not _covered_outside_t_i(d, _sub(s, d.indices))
            }, (name, s, mask)
    assert masked


def test_dense_memo_holds_no_rejected_pair():
    """Deciding markings of bio_dense leaves no pair in the `dead_set` memo
    that the start test rejects: those never reach a BFS."""
    net, stored = parse_net((FIXTURES / "bio_dense.net").read_text())
    for m in [stored, *itertools.islice(itertools.product((0, 1), repeat=12), 32)]:
        is_nonlive(net, m, node_budget=2_000_000)
    idx = witness_index(net)
    by_indices = {data.indices: data for data in idx.entries}
    assert idx.memo
    for indices, r in idx.memo:
        assert not _covered_outside_t_i(by_indices[indices], r), (indices, r)


def test_witness_at_memo_answers_repeated_lookups(monkeypatch):
    """`decide_slp(bio_dense)`'s candidates share capped configurations, so
    most of its `witness_at` lookups repeat an earlier one and the memo
    answers them without a `dead_set` call.  The memo-less cost charges each
    repeat the `dead_set` calls its first lookup made (at the time of
    writing: 71 394 lookups of 8 559 keys, 47 341 `dead_set` calls against
    347 600 without the memo)."""
    lookups, first_cost = {}, {}
    dead_calls = hits = 0
    witness_at, dead_set = liveness.WitnessIndex.witness_at, liveness.WitnessIndex.dead_set

    def counted_dead_set(self, *args, **kwargs):
        nonlocal dead_calls
        dead_calls += 1
        return dead_set(self, *args, **kwargs)

    def counted_witness_at(self, marking, inexact=0, node_budget=1_000_000):
        nonlocal hits
        key = (marking, inexact)
        lookups[key] = lookups.get(key, 0) + 1
        hits += key in self.at_memo
        before = dead_calls
        found = witness_at(self, marking, inexact, node_budget)
        first_cost.setdefault(key, dead_calls - before)
        return found

    monkeypatch.setattr(liveness.WitnessIndex, "dead_set", counted_dead_set)
    monkeypatch.setattr(liveness.WitnessIndex, "witness_at", counted_witness_at)
    decide_slp(load_net("bio_dense")[0])
    total = sum(lookups.values())
    memoless = sum(n * first_cost[key] for key, n in lookups.items())
    assert hits == total - len(lookups) > total // 2
    assert dead_calls < memoless // 3, (dead_calls, memoless)


def _dead_set_reference(net, indices):
    """The restricted exploration on `indices` run to the end, as a function
    of the start: T minus the transitions whose restricted pre-mset gets
    covered, or None when that is empty or a covered transition is outside
    T_I."""
    n_t = len(net.transitions)
    arcs = dense_arcs(net)
    pres = [_sub(pre, indices) for pre, _ in arcs]
    posts = [post for _, post in arcs]
    t_i = [is_imo_msets(pre, _sub(post, indices)) for pre, post in zip(pres, posts)]
    moves = [(pre, tuple(q - p for p, q in zip(pre, _sub(post, indices))))
             for pre, post, imo in zip(pres, posts, t_i) if imo]

    def explore(r):
        covered = [False] * n_t
        seen = {r}
        queue = deque([r])
        while queue:
            m = queue.popleft()
            for ti in range(n_t):
                if not covered[ti] and mleq(pres[ti], m):
                    covered[ti] = True
            for pre, delta in moves:
                if mleq(pre, m):
                    nm = tuple(a + d for a, d in zip(m, delta))
                    if nm not in seen:
                        seen.add(nm)
                        queue.append(nm)
        if all(covered) or any(c and not imo for c, imo in zip(covered, t_i)):
            return None
        return frozenset(ti for ti in range(n_t) if not covered[ti])

    return explore


def test_dead_set_matches_exhaustive_reference():
    """`dead_set`, which stops once every transition is covered, answers as
    the exploration run to the end, on every viable subset at the
    restrictions of the markings around each arc weight.  Restrictions of
    more than 12 tokens are left out: on bio_dense's subsets of eight and
    more places, two tokens each, the reference runs for over a minute."""
    settled = dead = 0
    for name, net in _start_nets():
        idx = witness_index(net)
        markings = _boundary_markings(net)
        for data in idx.entries:
            reference = _dead_set_reference(net, data.indices)
            for r in sorted({_sub(m, data.indices) for m in markings}):
                if sum(r) > 12:
                    continue
                want = reference(r)
                assert idx.dead_set(data, r) == want, (name, data.indices, r)
                dead += want is not None
                settled += want is None
    assert dead and settled


def test_dead_set_answers_do_not_depend_on_lookup_order():
    """A restriction that dominates a clean point of its subset is answered
    None without exploring, so the answers must not depend on which
    restrictions were looked up before.  On every net of `_start_nets()`,
    the restrictions of the markings around each arc weight (at most 12
    tokens) are looked up in ascending, descending and shuffled order, each
    on a fresh index, and every answer is the exhaustive reference's."""
    rng = random.Random(83)
    settled, weighted = set(), set()
    for name, net in _start_nets():
        if net.max_weight > 1:
            weighted.add(name)
        markings = _boundary_markings(net)
        want = {}
        for e, data in enumerate(witness_index(net).entries):
            reference = _dead_set_reference(net, data.indices)
            for r in {_sub(m, data.indices) for m in markings}:
                if sum(r) <= 12:
                    want[e, r] = reference(r)
        ascending = sorted(want)
        shuffled = ascending[:]
        rng.shuffle(shuffled)
        for order in (ascending, ascending[::-1], shuffled):
            idx = liveness.WitnessIndex(net)
            for e, r in order:
                data = idx.entries[e]
                fresh, points = (data.indices, r) not in idx.memo, len(data.clean)
                got = idx.dead_set(data, r)
                assert got == want[e, r], (name, data.indices, r)
                if fresh and got is None and len(data.clean) == points:
                    settled.add(name)
    assert "bio_dense" in settled and settled & weighted


def test_reference_none_is_closed_upward():
    """The premise of the clean points: when the exhaustive reference
    answers None at r on a subset, it answers None at every r' >= r.  Checked
    on seeded io, imo, bio and bimo nets of at most four places, ordinary and
    weighted, on every subset, at restrictions sampled below two tokens over
    the largest arc weight and at one-token raises of them."""
    rng = random.Random(89)
    compared = weighted = 0
    for row in ("ord-io", "io", "ord-imo", "imo", "ord-bio", "bio", "ord-bimo", "bimo"):
        for k in range(6):
            net = random_net_in_row(row, n_places=3 + k % 2, n_trans=1 + k % 4,
                                    seed=1_100 + k)
            weighted += net.max_weight > 1
            n = len(net.places)
            for size in range(1, n + 1):
                for indices in itertools.combinations(range(n), size):
                    reference = _dead_set_reference(net, indices)
                    sample = {tuple(rng.randrange(net.max_weight + 2) for _ in indices)
                              for _ in range(12)}
                    sample |= {tuple(x + rng.randrange(2) for x in r) for r in sample}
                    answers = {r: reference(r) for r in sample}
                    for r, low in answers.items():
                        for up, high in answers.items():
                            if low is None and up != r and mleq(r, up):
                                compared += 1
                                assert high is None, (row, k, indices, r, up)
    assert weighted and compared > 1_000


def test_dead_set_stops_once_every_transition_is_covered():
    """At (5, ..., 5) on a ring every transition is covered at the first
    state, so the answer is settled before a second state is visited."""
    net = _ring(6)
    idx = witness_index(net)
    full = next(data for data in idx.entries if len(data.indices) == 6)
    assert idx.dead_set(full, (5,) * 6, node_budget=1) is None


def test_node_budget_bounds_the_restricted_exploration():
    """The abstract probe's lookup at (30, 0, ...) explores the ring's
    324 k restricted states on the full subset (u, needing 40 tokens on p0,
    is never covered).  A small `node_budget` bounds that exploration too."""
    net = _ring(6, u={("p0", "u"): 40, ("u", "p0"): 40})
    v = is_nonlive(net, (30, 0, 0, 0, 0, 0), node_budget=10)
    assert (v.status, v.method, v.configs_explored) == ("budget_exceeded", "abstract", 11)


def _ref_search_box(net, bound, candidate_budget, node_budget=500_000):
    """The box loop with `is_nonlive` on every candidate; siphon verdicts
    are the candidates the siphon test alone settles."""
    tested = explored = settled = 0

    def verdict(status, certificate=None):
        return SlpVerdict(status, certificate=certificate, candidates_tested=tested,
                          configs_explored=explored, siphon_settled=settled)

    for cand in _box_iter(len(net.places), bound):
        if tested >= candidate_budget:
            return verdict("budget_exceeded")
        tested += 1
        v = is_nonlive(net, cand, node_budget=node_budget)
        explored += v.configs_explored
        settled += v.method == "siphon"
        if v.status == "budget_exceeded":
            return verdict("budget_exceeded")
        if v.is_live:
            return verdict("structurally_live", cand)
    return verdict("not_structurally_live")


def _first_bound(net):
    return bounds_for(classify(net), len(net.places), net.max_weight).first


def _box_cases():
    """(fresh-net factory, bound, candidate budget)."""
    machines = list(accepting_machines())
    assert len(machines) == 8
    for make in machines:
        yield make, _first_bound(make()), 2_000_000
    for k in range(60):
        row = ("ord-io", "ord-imo", "io", "imo", "ord-bimo", "bimo")[k % 6]
        net = random_net_in_row(row, n_places=2 + k % 3, n_trans=1 + k % 4,
                                seed=76_000 + k, wmax=2)
        if k % 4 == 1:
            net = with_spawns(net, seed=k)
        yield (lambda net=net: _fresh(net)), _first_bound(net), 400
    # budgets that run out at every candidate of a small box
    for budget in range(1, 28):
        yield (lambda: load_net("io_fragile")[0]), 1, budget
    for budget in (1, 2, 7, 50):
        yield machines[0], _first_bound(machines[0]()), budget


def _compositions(n, total, bound):
    """Reference: the n-tuples over [0, bound] summing to `total`, in lex
    order, by recursion on the first component."""
    if n == 0:
        if total == 0:
            yield ()
        return
    for head in range(0, min(bound, total) + 1):
        for rest in _compositions(n - 1, total - head, bound):
            yield (head,) + rest


def test_box_iter_matches_recursive_definition():
    for n in range(7):
        for bound in range(4):
            want = [c for total in range(bound * n + 1)
                    for c in _compositions(n, total, bound)]
            assert list(_box_iter(n, bound)) == want, (n, bound)
    assert list(_box_iter(0, 2)) == [()]


def test_box_loop_matches_per_candidate_reference():
    settled_at_budget = 0
    for make, bound, budget in _box_cases():
        got = _search_box(make(), bound, budget, 500_000)
        assert got == _ref_search_box(make(), bound, budget), (make(), bound, budget)
        if got.status == "budget_exceeded" and budget > 1 and budget <= 50:
            # did the budget run out on a candidate the siphon test settled?
            before = _search_box(make(), bound, budget - 1, 500_000)
            settled_at_budget += got.siphon_settled > before.siphon_settled
    assert settled_at_budget >= 10


def test_box_loop_matches_per_candidate_reference_on_fixtures():
    for path in sorted(FIXTURES.glob("*.net")):
        net = load_net(path.stem)[0]
        bound = _first_bound(net)
        got = _search_box(net, bound, 3_000, 500_000)
        assert got == _ref_search_box(load_net(path.stem)[0], bound, 3_000), path.name


def test_tracer_boundaries_resolve():
    """Every name the benchmark tracer wraps still exists where its callers
    look it up, so `perfbench/run.py --trace 1` keeps recording spans."""
    import importlib.util

    path = FIXTURES.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert len(tracing.BOUNDARIES) >= 10
    for name, owner, attribute, _ in tracing.BOUNDARIES:
        assert callable(getattr(owner, attribute, None)), name
