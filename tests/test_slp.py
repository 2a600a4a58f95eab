import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from ionet import (
    CappedConfig, Net, NotBimo, NotOrdImo, bounds_for, cap_value, post_mset, pre_mset,
    capped_config, capped_successors, check_witness, classify, dead_at,
    decide_slp, enabled, fire, is_live_exact, is_nonlive, is_siphon, mleq,
    build_stage, parse_net, replay, simulate_lba, slp_01_shortcut, truncate,
)
from ionet.classify import is_imo_msets
from ionet.generate import random_net, random_marking, random_net_in_row
from ionet import liveness
from ionet.liveness import _sub, witness_index
from ionet.slp import (
    SlpVerdict, _AbstractEngine, _abstract_engine, _box_iter, _capped_closure,
    _search_box,
)
from tests.conftest import FIXTURES, dense_arcs, load_lba, load_net, with_spawns


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


def test_slp_01_ring_is_live():
    # a single-token ring state machine is live from any one-hot marking
    for n in (2, 3, 4):
        net = _ring(n)
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
    targets, _ = _abstract_engine(net, 16).probe(truncate(net, marking), 500_000)
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
    monkeypatch.setattr(_AbstractEngine, "probe",
                        lambda self, marking, node_budget: (targets, 0))
    v = is_nonlive(net, m0)
    assert (v.status, v.method) == ("live", "capped-search")
    assert v.witness is None and v.configs_explored > 0


def _abstract_successors_transcribed(engine, state):
    """The abstract step by its definition, over every transition in
    declaration order: fire when enabled, keep TOP places TOP, cap exact
    counts at TOP, and branch a drained TOP place to exactly m-1."""
    net, m = engine.net, engine.m
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
            engine = _AbstractEngine(net, 16)
            top = engine.m
            for _ in range(6):
                state = tuple(rng.choice((top, rng.randrange(top)))
                              for _ in net.places)
                mixed += 0 < state.count(top) < len(state)
                assert engine.successors(state) == \
                    _abstract_successors_transcribed(engine, state), (net, state)
                checked += 1
    assert checked == 576 and mixed >= 100


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


def test_witness_at_mask_matches_exactness_loop():
    """On every abstract state the probe memoised, the masked lookup answers
    as testing exactness place by place does.  The plain lookup of the same
    state must still give the first witness; it is checked on nets of up to
    seven places, since on bio_dense's twelve it explores for many seconds."""
    told_apart = 0
    for name, net in _probed_nets():
        engine = net._analysis.get("abstract_engine")
        if engine is None:
            continue
        idx, top = engine.idx, engine.m
        for s in engine.reach:
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
        engine = net._analysis.get("abstract_engine")
        if engine is None:
            continue
        idx, top = engine.idx, engine.m
        place_bits = [sum(1 << i for i in data.indices) for data in idx.entries]
        for s in engine.reach:
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


def _ref_search_box(net, bound, candidate_budget, node_budget=500_000, subset_cap=16):
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
        v = is_nonlive(net, cand, node_budget=node_budget, subset_cap=subset_cap)
        explored += v.configs_explored
        settled += v.method == "siphon"
        if v.status == "budget_exceeded":
            return verdict("budget_exceeded")
        if v.is_live:
            return verdict("structurally_live", cand)
    return verdict("not_structurally_live")


def _first_bound(net):
    return bounds_for(classify(net), len(net.places), net.max_weight).first


def _accepting_machines():
    """The eight accepting two-letter compiled machines."""
    for name in ("accept_all_2", "reject_all_2", "even_a_2", "flip_2"):
        spec = load_lba(name)
        for word in ("aa", "ab", "ba", "bb"):
            if simulate_lba(spec, word) == "accept":
                yield lambda spec=spec, word=word: build_stage(spec, word, "Nbar")[0]


def _box_cases():
    """(fresh-net factory, bound, candidate budget)."""
    machines = list(_accepting_machines())
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
        got = _search_box(make(), bound, budget, 500_000, 16)
        assert got == _ref_search_box(make(), bound, budget), (make(), bound, budget)
        if got.status == "budget_exceeded" and budget > 1 and budget <= 50:
            # did the budget run out on a candidate the siphon test settled?
            before = _search_box(make(), bound, budget - 1, 500_000, 16)
            settled_at_budget += got.siphon_settled > before.siphon_settled
    assert settled_at_budget >= 10


def test_box_loop_matches_per_candidate_reference_on_fixtures():
    for path in sorted(FIXTURES.glob("*.net")):
        net = load_net(path.stem)[0]
        bound = _first_bound(net)
        got = _search_box(net, bound, 3_000, 500_000, 16)
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
