import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ionet import (
    CappedConfig, Net, NotBimo, NotOrdImo, bounds_for, cap_value,
    capped_config, capped_successors, check_witness, classify, dead_at,
    decide_slp, enabled, fire, is_live_exact, is_nonlive, slp_01_shortcut,
    truncate,
)
from ionet.generate import random_net, random_marking, random_net_in_row
from ionet.liveness import witness_index
from ionet.slp import _AbstractEngine, _abstract_engine, _capped_closure
from tests.conftest import load_net


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
    out = []
    for t in net.transitions:
        if all(cfg.counts[i] >= w for i, w in
               ((net.place_index[p], w) for (p, tt), w in net.flow.items()
                if tt == t and p in net.place_index)):
            counts = list(cfg.counts)
            for i, p in enumerate(net.places):
                counts[i] += net.flow.get((t, p), 0) - net.flow.get((p, t), 0)
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
    rng = random.Random(53)
    checked = 0
    for seed in range(25):
        net = random_net("bimo", n_places=4, n_trans=3, wmax=2, seed=seed)
        cap = cap_value(net)
        for _ in range(2):
            counts = tuple(rng.randrange(cap + 1) for _ in net.places)
            sat = sum(1 << i for i in range(len(net.places))
                      if rng.random() < 0.3 or counts[i] == cap)
            cfg = CappedConfig(counts, sat)
            assert capped_successors(net, cfg) == _successors_transcribed(net, cfg)
            checked += 1
    assert checked == 50


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
            ti = net.trans_index[step]
            raw = [a + d for a, d in zip(cfg.counts, net._delta[ti])]
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


def test_slp_01_ring_is_live():
    # a single-token ring state machine is live from any one-hot marking
    for n in (2, 3, 4):
        places = [f"p{i}" for i in range(n)]
        flow = {}
        trans = []
        for i in range(n):
            t = f"t{i}"
            trans.append(t)
            flow[(places[i], t)] = 1
            flow[(t, places[(i + 1) % n])] = 1
        net = Net(f"ring{n}", places, trans, flow)
        v = slp_01_shortcut(net)
        assert v.status == "structurally_live"
        assert sum(v.certificate) == 1
        assert is_live_exact(net, v.certificate) is True


def test_slp_01_matches_decide_slp():
    for seed in range(60):
        net = random_net("imo", n_places=3, n_trans=3, wmax=1, seed=200 + seed)
        a = slp_01_shortcut(net)
        b = decide_slp(net)
        assert a.status == b.status
        if a.certificate is not None:
            assert a.certificate == b.certificate  # same box for this class


def test_slp_01_requires_class(pump_net):
    with pytest.raises(NotOrdImo):
        slp_01_shortcut(pump_net[0])


def test_slp_01_empty_net():
    v = slp_01_shortcut(Net("none", [], [], {}))
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
    maybe, targets, _ = _abstract_engine(net, 16).probe(truncate(net, marking), 500_000)
    return maybe, targets


@pytest.mark.parametrize("name,marking", FIXTURE_NONLIVE)
def test_closure_search_path_replays(name, marking):
    """Breadth first (no targets) and best first (the probe's targets)."""
    net, _ = load_net(name)
    assert is_nonlive(net, marking).is_nonlive
    maybe, targets = _probe_targets(net, marking)
    assert maybe and targets
    variant = "ordinary" if classify(net).ordinary else "weighted"
    for order in ((), targets):
        cfg = capped_config(net, marking)
        witness, _ = _capped_closure(net, cfg, order, 500_000, witness_index(net))
        assert witness is not None and witness.path is not None
        for step in witness.path:
            cfg = dict(capped_successors(net, cfg))[step]
        assert cfg.counts == witness.m_wit
        assert check_witness(net, witness, variant=variant).sound


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
        _, targets = _probe_targets(net, nonlive[0])
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
    _, targets = _probe_targets(net, (1, 1, 1, 0, 0, 1))
    monkeypatch.setattr(_AbstractEngine, "probe",
                        lambda self, marking, node_budget: (True, targets, 0))
    v = is_nonlive(net, m0)
    assert (v.status, v.method) == ("live", "capped-search")
    assert v.witness is None and v.configs_explored > 0


def test_abstract_successors_drain_top():
    """Taking a token from a TOP place leaves it TOP or exactly m-1."""
    net = Net("move", ["p", "q"], ["t"], {("p", "t"): 1, ("t", "q"): 1})
    engine = _AbstractEngine(net, 16)
    top = engine.m
    assert sorted(engine.successors((top, 0))) == [(top - 1, 1), (top, 1)]
    assert sorted(engine.successors((top, top))) == [(top - 1, top), (top, top)]
    assert engine.successors((top - 1, 0)) == [(top - 2, 1)]


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
