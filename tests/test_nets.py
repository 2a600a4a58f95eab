import random

import pytest
from hypothesis import given, settings, strategies as st

from ionet import (
    Net, NetError, NotEnabled, ParseError, UnknownNode,
    carrier, enabled, fire, madd, mleq, mmin, msize, msub,
    parse_net, post_mset, pre_mset, replay, serialize_net,
)
from ionet.generate import random_net, random_marking
from ionet.nets import MAX_WEIGHT
from tests.conftest import with_spawns

counts = st.lists(st.integers(min_value=0, max_value=9), min_size=4, max_size=4)


@given(counts, counts)
def test_multiset_algebra(a, b):
    a, b = tuple(a), tuple(b)
    assert madd(a, b) == tuple(x + y for x, y in zip(a, b))
    assert all(x >= 0 for x in msub(a, b))
    assert mleq(msub(a, b), a)
    assert mmin(a, b) == msub(a, msub(a, b))
    assert msize(madd(a, b)) == msize(a) + msize(b)


def test_carrier_filter_oracle():
    rng = random.Random(5)
    for _ in range(50):
        m = tuple(rng.randrange(3) for _ in range(6))
        assert carrier(m) == frozenset(i for i in range(6) if m[i] >= 1)
    assert carrier((0, 0, 0)) == frozenset()


def test_siphon_net_msets(siphon_net):
    net, m0 = siphon_net
    assert m0 == (4, 0, 0, 0, 0, 1)
    assert pre_mset(net, "t1") == (1, 0, 1, 1, 0, 0)
    assert post_mset(net, "t2") == (0, 0, 1, 0, 1, 0)
    assert post_mset(net, "t5") == (0, 0, 0, 0, 0, 0)
    with pytest.raises(UnknownNode):
        pre_mset(net, "nope")


def test_mset_read_back_oracle():
    rng = random.Random(11)
    spawning = 0
    for seed in range(30):
        net = random_net("bimo", n_places=5, n_trans=4, wmax=3, seed=seed)
        for net in (net, with_spawns(net, seed=seed)):
            for t in net.transitions:
                pv, qv = pre_mset(net, t), post_mset(net, t)
                assert len(pv) == len(qv) == len(net.places)
                for i, p in enumerate(net.places):
                    assert pv[i] == net.flow.get((p, t), 0)
                    assert qv[i] == net.flow.get((t, p), 0)
                spawning += not any(pv)
    assert spawning >= 30


def test_enabled_matches_naive_loop(siphon_net):
    net, _ = siphon_net
    rng = random.Random(3)
    for _ in range(200):
        m = tuple(rng.randrange(3) for _ in net.places)
        for t in net.transitions:
            naive = all(m[i] >= net.flow.get((p, t), 0)
                        for i, p in enumerate(net.places))
            assert enabled(net, m, t) == naive


def test_fire_single_step(siphon_net):
    net, _ = siphon_net
    assert fire(net, (1, 1, 1, 1, 1, 1), "t2") == (1, 0, 2, 1, 2, 1)
    with pytest.raises(NotEnabled):
        fire(net, (0, 0, 0, 0, 0, 0), "t2")


def test_identity_firing():
    net = Net("loop", ["p"], ["t"], {("p", "t"): 1, ("t", "p"): 1})
    assert fire(net, (2,), "t") == (2,)


def test_replay_full_sequence(siphon_net):
    net, _ = siphon_net
    ex = replay(net, (1, 1, 1, 1, 1, 1),
                ["t2", "t3", "t3", "t4", "t4", "t4", "t5", "t5"])
    want = [
        (1, 0, 2, 1, 2, 1), (1, 0, 1, 2, 2, 1), (1, 0, 0, 3, 2, 1),
        (2, 0, 0, 2, 2, 1), (3, 0, 0, 1, 2, 1), (4, 0, 0, 0, 2, 1),
        (4, 0, 0, 0, 1, 1), (4, 0, 0, 0, 0, 1),
    ]
    assert [m for _, m in ex.steps] == want
    assert ex.final == (4, 0, 0, 0, 0, 1)
    assert net.carrier_names(ex.final) == ("p1", "p6")


def test_replay_empty_and_error(siphon_net):
    net, _ = siphon_net
    ex = replay(net, (4, 0, 0, 0, 0, 1), [])
    assert ex.final == (4, 0, 0, 0, 0, 1) and ex.steps == ()
    with pytest.raises(NotEnabled) as err:
        replay(net, (1, 1, 1, 1, 1, 1), ["t2", "t2"])
    assert err.value.step == 1


def test_replay_witness_net(witness_net):
    net, m0 = witness_net
    assert m0 == (1, 1, 1, 1, 1, 1, 1)
    ex = replay(net, m0, ["t3", "t4", "t2", "t1", "t1", "t6", "t6", "t6"])
    assert ex.final == (0, 1, 1, 0, 0, 4, 4)


def test_firing_preserves_nonnegativity():
    rng = random.Random(21)
    for seed in range(40):
        net = random_net("bimo", n_places=4, n_trans=4, wmax=2, seed=seed)
        m = random_marking(net, 6, rng)
        for t in net.transitions:
            if enabled(net, m, t):
                assert all(x >= 0 for x in fire(net, m, t))


def test_conservative_firing_keeps_token_count():
    rng = random.Random(22)
    for seed in range(40):
        net = random_net("imo", n_places=4, n_trans=4, wmax=2, seed=seed)
        ok = all(msize(pre_mset(net, t)) == msize(post_mset(net, t))
                 for t in net.transitions)
        assert ok  # single-destination shapes are conservative by construction
        m = random_marking(net, 6, rng)
        for t in net.transitions:
            if enabled(net, m, t):
                assert msize(fire(net, m, t)) == msize(m)


def test_execution_monotonicity():
    # appending tokens keeps a replay valid and shifts its end by the same amount
    rng = random.Random(23)
    for seed in range(40):
        net = random_net("bimo", n_places=4, n_trans=4, wmax=2, seed=seed)
        m1 = random_marking(net, 5, rng)
        seq = []
        m = m1
        for _ in range(8):
            opts = [t for t in net.transitions if enabled(net, m, t)]
            if not opts:
                break
            t = rng.choice(opts)
            m = fire(net, m, t)
            seq.append(t)
        extra = random_marking(net, 4, rng)
        lifted = replay(net, madd(m1, extra), seq)
        assert lifted.final == madd(m, extra)


def test_unmarked_siphon_stays_unmarked():
    from ionet import is_siphon, reach_graph
    rng = random.Random(24)
    checked = 0
    for seed in range(60):
        net = random_net("imo", n_places=4, n_trans=3, wmax=1, seed=seed)
        m = random_marking(net, 4, rng)
        zero = [p for i, p in enumerate(net.places) if m[i] == 0]
        if not zero or not is_siphon(net, zero):
            continue
        g = reach_graph(net, m, node_budget=5_000)
        idx = [net.place_index[p] for p in zero]
        for node in g.nodes:
            assert all(node[i] == 0 for i in idx)
        checked += 1
    assert checked >= 5


# --- textual format ---------------------------------------------------------

def test_round_trip_fixtures():
    from tests.conftest import FIXTURES
    for path in sorted(FIXTURES.glob("*.net")):
        net, marking = parse_net(path.read_text())
        text = serialize_net(net, marking)
        net2, marking2 = parse_net(text)
        assert serialize_net(net2, marking2) == text
        assert net2.places == net.places
        assert net2.transitions == net.transitions
        assert net2.flow == net.flow
        assert marking2 == marking


def test_round_trip_random():
    for seed in range(40):
        net = random_net("bimo", n_places=5, n_trans=5, wmax=3, seed=seed)
        text = serialize_net(net)
        again, _ = parse_net(text)
        assert serialize_net(again) == text


def test_empty_net_round_trips():
    net, marking = parse_net("net empty\n")
    assert net.places == () and net.transitions == () and marking is None
    assert parse_net(serialize_net(net))[0].places == ()


@pytest.mark.parametrize("text,fragment", [
    ("place p1\nplace p1\n", "duplicate"),
    ("place p1\ntrans t pre p2\n", "undeclared"),
    ("place p1\ntrans t pre p1:0\n", "weight"),
    ("place p1\ntrans p1 pre p1\n", "duplicate"),
    ("plaze p1\n", "unknown directive"),
    ("place p1 tokens=-1\n", "token count"),
])
def test_parse_errors(text, fragment):
    with pytest.raises((ParseError, NetError)) as err:
        parse_net(text)
    assert fragment in str(err.value)


def test_comments_and_weights():
    net, marking = parse_net(
        "# header\nnet x\nplace a tokens=2  # two\nplace b\n"
        "trans t pre a:2 post b b\n")
    assert marking == (2, 0)
    assert net.flow[("a", "t")] == 2
    assert net.flow[("t", "b")] == 2  # repeated mentions accumulate


@pytest.mark.parametrize("ident", [
    "", "a b", "a\tb", "line\nbreak", "nb sp", "a#b", "#", "a:2", ":",
    "pre", "post", "tokens=1", "tokens=", 3,
])
def test_net_rejects_unwritable_identifiers(ident):
    with pytest.raises(NetError):
        Net("n", [ident], ["t"], {})
    with pytest.raises(NetError):
        Net("n", ["p"], [ident], {})


@pytest.mark.parametrize("name", ["", "two words", "a#b"])
def test_net_rejects_unwritable_names(name):
    with pytest.raises(NetError):
        Net(name, ["p"], ["t"], {})


def test_generated_identifiers_stay_valid():
    Net("a:b-aa-Nbar.ord.relaxed", ["p.1", "p.rot1", "p_q_1", "__dummy", "pre.1",
                                     "posts", "tokens", "x=1"],
        ["t_ins1_2_begin", "t_c1_a_b", "prefix"], {})


# Identifiers without whitespace, '#' or ':' (almost all accepted); and any
# text, those, or keywords and generated names at the edge of the format.
_writable = st.text(st.characters(exclude_categories=("Z", "Cc"), exclude_characters="#:"),
                    min_size=1, max_size=4)
_identifiers = st.one_of(
    st.text(max_size=4), _writable,
    st.sampled_from(["pre", "post", "tokens=3", "a:2", "p.1", "p.rot1", "__dummy",
                     "prefix", "tokens"]))


@st.composite
def _nets_and_markings(draw):
    ident = draw(st.sampled_from((_writable, _identifiers)))
    names = draw(st.lists(ident, max_size=7, unique=True))
    k = draw(st.integers(0, len(names)))
    places, trans = names[:k], names[k:]
    flow = {}
    if places and trans:
        p, t = st.sampled_from(places), st.sampled_from(trans)
        flow = draw(st.dictionaries(st.one_of(st.tuples(p, t), st.tuples(t, p)),
                                    st.integers(0, MAX_WEIGHT), max_size=8))
    marking = None
    if places:
        marking = draw(st.none() | st.tuples(*[st.integers(0, 10**12)] * len(places)))
    return draw(ident), places, trans, flow, marking


@settings(max_examples=300)
@given(_nets_and_markings())
def test_round_trip_every_accepted_net(case):
    name, places, trans, flow, marking = case
    try:
        net = Net(name, places, trans, flow)
    except NetError:
        return
    again, marking2 = parse_net(serialize_net(net, marking))
    assert (again.name, again.places, again.transitions, again.flow) == (
        net.name, net.places, net.transitions, net.flow)
    assert marking2 == marking
    # the stored arc pairs read back as the flow, in ascending place order
    for t, pre, post in zip(net.transitions, net._pre, net._post):
        assert pre_mset(net, t) == tuple(net.flow.get((p, t), 0) for p in net.places)
        assert post_mset(net, t) == tuple(net.flow.get((t, p), 0) for p in net.places)
        for arcs in (pre, post):
            assert [i for i, _ in arcs] == sorted({i for i, _ in arcs})
            assert all(1 <= w <= MAX_WEIGHT for _, w in arcs)
