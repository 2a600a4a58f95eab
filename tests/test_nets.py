import ast
import itertools
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import ionet
from ionet import (
    Net, NetError, NotEnabled, ParseError, UnknownNode, build_stage,
    carrier, enabled, fire, madd, mleq, mmin, msize, msub,
    parse_net, post_mset, pre_mset, reach_graph, replay, serialize_net,
)
from ionet.generate import random_net, random_marking, random_net_in_row
from ionet.nets import MAX_WEIGHT, MoveTable, _IDENTIFIER, _NET_NAME, _move_table, _walk, place_masks
from tests.conftest import dense_arcs, load_lba, random_flow_net, with_spawns

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
            flow = net.flow
            for t in net.transitions:
                pv, qv = pre_mset(net, t), post_mset(net, t)
                assert len(pv) == len(qv) == len(net.places)
                for i, p in enumerate(net.places):
                    assert pv[i] == flow.get((p, t), 0)
                    assert qv[i] == flow.get((t, p), 0)
                spawning += not any(pv)
    assert spawning >= 30


def test_enabled_matches_naive_loop(siphon_net):
    net, _ = siphon_net
    rng = random.Random(3)
    flow = net.flow
    for _ in range(200):
        m = tuple(rng.randrange(3) for _ in net.places)
        for t in net.transitions:
            naive = all(m[i] >= flow.get((p, t), 0)
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


def _moves_reference(arcs, m):
    """Every (transition index, sparse delta) by the dense definition, on the
    net's `dense_arcs`: the transitions whose pre-set the marking covers, in
    ascending index."""
    out = []
    for ti, (pre, post) in enumerate(arcs):
        if all(x >= w for x, w in zip(m, pre)):
            out.append((ti, tuple((i, q - p) for i, (p, q) in enumerate(zip(pre, post))
                                  if q != p)))
    return out


def _wide_net(seed):
    """Transitions reading three or four places with weights 1 or 2, and
    writing up to two."""
    rng = random.Random(seed)
    places = [f"p{i}" for i in range(5)]
    trans = [f"t{k}" for k in range(4)]
    flow = {}
    for t in trans:
        for p in rng.sample(places, rng.randint(3, 4)):
            flow[(p, t)] = rng.randint(1, 2)
        for p in rng.sample(places, rng.randint(0, 2)):
            flow[(t, p)] = rng.randint(1, 2)
    return Net(f"wide-{seed}", places, trans, flow)


def _moves_cases():
    """(net, markings): seeded nets of all eight rows with and without
    pre-free transitions, weighted nets of no class, nets reading three or
    more places, on every marking with at most three tokens per place (or
    sampled ones), and the reach-graph nodes of a compiled machine."""
    rng = random.Random(31)
    rows = ("ord-io", "ord-imo", "io", "imo", "ord-bio", "ord-bimo", "bio", "bimo")
    nets = []
    for k in range(32):
        net = random_net_in_row(rows[k % 8], n_places=3 + k % 3, n_trans=2 + k % 4,
                                seed=3_100 + k)
        nets += [net, with_spawns(net, seed=k)]
    nets += [random_flow_net(3_200 + k, n_places=3, n_trans=5) for k in range(12)]
    nets += [_wide_net(3_300 + k) for k in range(12)]
    for net in nets:
        if len(net.places) <= 4:
            yield net, itertools.product(range(4), repeat=len(net.places))
        else:
            yield net, [tuple(rng.randrange(4) for _ in net.places) for _ in range(300)]
    machine, m0 = build_stage(load_lba("first_a_3"), "abb", "Nbar")
    yield machine, reach_graph(machine, m0).nodes


def _move_table_reference(net):
    """The move table built with a dict of deltas per transition and
    `sorted`, kept as the reference for the single-merge builder."""
    first = [0] * len(net.places)
    last = [0] * len(net.places)
    free = 0
    deltas = []
    rest = []
    for ti, (pre, post) in enumerate(zip(net._pre, net._post)):
        if pre:
            first[pre[0][0]] |= 1 << ti
            last[pre[-1][0]] |= 1 << ti
        else:
            free |= 1 << ti
        rest.append(tuple(arc for k, arc in enumerate(pre)
                          if arc[1] > 1 or 0 < k < len(pre) - 1))
        delta = dict(post)
        for i, w in pre:
            delta[i] = delta.get(i, 0) - w
        deltas.append(tuple(sorted((i, d) for i, d in delta.items() if d)))
    return MoveTable(tuple(deltas), tuple(first), free, net._pre, tuple(last), tuple(rest))


def test_moves_match_dense_definition():
    """`nets._walk` on the net's move table lists exactly the enabled
    transitions with their sparse deltas, in ascending index: on transitions
    without pre-places, with end arcs of weight 2 or more, and reading three
    or more places, where the two watched pre-places do not settle the
    answer alone.  The place masks match the dense arcs, and the whole move
    table matches the dict-and-sort reference."""
    free = heavy_ends = wide = markings = enabled_moves = 0
    for net, ms in _moves_cases():
        for pre in net._pre:
            free += not pre
            heavy_ends += bool(pre) and max(pre[0][1], pre[-1][1]) > 1
            wide += len(pre) >= 3
        arcs = dense_arcs(net)
        assert place_masks(net) == tuple(
            (sum(1 << i for i, w in enumerate(pre) if w),
             sum(1 << i for i, w in enumerate(post) if w)) for pre, post in arcs), net
        assert _move_table(net) == _move_table_reference(net), net
        for m in ms:
            got = _walk(_move_table(net), itertools.compress(itertools.count(), m),
                        m.__getitem__)
            assert got == _moves_reference(arcs, m), (net, m)
            markings += 1
            enabled_moves += len(got)
    assert free and heavy_ends and wide
    assert markings > 10_000 and enabled_moves > markings


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
    assert ex.sequence == ("t2", "t3", "t3", "t4", "t4", "t4", "t5", "t5")
    assert ex.final == (4, 0, 0, 0, 0, 1)
    assert net.carrier_names(ex.final) == ("p1", "p6")


def test_replay_empty_and_error(siphon_net):
    net, _ = siphon_net
    ex = replay(net, (4, 0, 0, 0, 0, 1), [])
    assert ex.final == (4, 0, 0, 0, 0, 1) and ex.steps == () and ex.sequence == ()
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
    assert repr(net) == "Net('empty', |P|=0, |T|=0)"
    assert repr(Net("one", ["p", "q"], ["t"], {})) == "Net('one', |P|=2, |T|=1)"
    assert parse_net(serialize_net(net))[0].places == ()


@pytest.mark.parametrize("text,fragment", [
    ("place p1\nplace p1\n", "duplicate"),
    ("place p1\ntrans t pre p2\n", "undeclared"),
    ("place p1\ntrans t pre p1:0\n", "weight"),
    ("place p1\ntrans p1 pre p1\n", "duplicate"),
    ("plaze p1\n", "unknown directive"),
    ("place p1 tokens=-1\n", "token count"),
    ("place p1\ntrans t pre :2\n", "bad weighted entry"),
    ("place p1\ntrans t pre p1:x\n", "bad weight"),
    (f"place p1\ntrans t pre p1:{MAX_WEIGHT + 1}\n", "weight too large"),
    (f"place p1\ntrans t pre p1:{MAX_WEIGHT} p1\n", "accumulated weight too large"),
    ("net\n", "expected: net <name>"),
    ("net a b\n", "expected: net <name>"),
    ("place\n", "expected: place <id>"),
    ("trans\n", "expected: trans <id>"),
    ("place p1 tokens=x\n", "bad token count"),
    ("place p1 x\n", "unexpected token"),
    ("place p1\ntrans t p1\n", "expected 'pre' or 'post'"),
    ("net a\nplace p1\nnet b\n", "line 3: repeated net line"),
    ("place p1 tokens=1 tokens=2\n", "line 1: repeated tokens= for 'p1'"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_net(text)
    assert fragment in str(err.value)


# Each case builds with the constructor it is given: `Net`, or the reference.
_NET_REJECTIONS = [
    (lambda net: net("n", ["p", "p"], ["t"], {}), NetError, "duplicate place"),
    (lambda net: net("n", ["p"], ["t", "t"], {}), NetError, "duplicate transition"),
    (lambda net: net("n", ["x"], ["x"], {}), NetError, "disjoint"),
    (lambda net: net("n", ["p"], ["t"], {("p", "t"): 1.0}), NetError, "integer"),
    (lambda net: net("n", ["p"], ["t"], {("p", "t"): True}), NetError, "integer"),
    (lambda net: net("n", ["p"], ["t"], {("t", "p"): MAX_WEIGHT + 1}), NetError, "out of range"),
    (lambda net: net("n", ["p"], ["t"], {("p", "u"): 1}), UnknownNode, "declared nodes"),
    (lambda net: net("n", ["p"], ["t"], {}).check_marking((-1,)), NetError, "negative"),
]


@pytest.mark.parametrize("build,error,fragment", _NET_REJECTIONS + [
    # a weight-0 pair adds no arc, but must still name declared nodes
    (lambda net: net("n", ["p"], ["t"], {("ghost", "spook"): 0}), UnknownNode, "ghost"),
])
def test_net_rejections(build, error, fragment):
    """What `parse_net` never passes on: `Net(...)` called directly."""
    with pytest.raises(error, match=fragment):
        build(Net)


class _ReferenceNet(Net):
    """`Net` with the constructor that built its arc tuples from set
    copies, `in` tests and `max` over all arcs, kept as the reference for
    the single-pass one; its weight-0 pairs skip the node lookup."""

    def __init__(self, name, places, transitions, flow):
        places = tuple(places)
        transitions = tuple(transitions)
        if not isinstance(name, str) or not _NET_NAME.fullmatch(name):
            raise NetError(f"net name {name!r} is not a single token without '#'")
        for ident in places + transitions:
            if not isinstance(ident, str) or not _IDENTIFIER.fullmatch(ident):
                raise NetError(f"identifier {ident!r} cannot be written in the text format")
        if len(set(places)) != len(places):
            raise NetError("duplicate place identifier")
        if len(set(transitions)) != len(transitions):
            raise NetError("duplicate transition identifier")
        if set(places) & set(transitions):
            raise NetError("place and transition identifiers must be disjoint")
        self.name = name
        self.places = places
        self.transitions = transitions
        self.place_index = {p: i for i, p in enumerate(places)}
        self.trans_index = {t: i for i, t in enumerate(transitions)}
        pre = [[] for _ in transitions]
        post = [[] for _ in transitions]
        for (a, b), w in flow.items():
            if not isinstance(w, int) or isinstance(w, bool):
                raise NetError(f"weight for ({a}, {b}) must be an integer")
            if w == 0:
                continue
            if w < 1 or w > MAX_WEIGHT:
                raise NetError(f"weight {w} for ({a}, {b}) out of range")
            if a in self.place_index and b in self.trans_index:
                pre[self.trans_index[b]].append((self.place_index[a], w))
            elif a in self.trans_index and b in self.place_index:
                post[self.trans_index[a]].append((self.place_index[b], w))
            else:
                raise UnknownNode(f"flow pair ({a!r}, {b!r}) does not match declared nodes")
        self._pre = tuple(tuple(sorted(arcs)) for arcs in pre)
        self._post = tuple(tuple(sorted(arcs)) for arcs in post)
        self.max_weight = max((w for arcs in pre + post for _, w in arcs), default=1)
        self._analysis = {}


def _outcome(build, net_class):
    """What `build(net_class)` gives: the net's arcs, weight and indices, or
    the type and message of what it raised."""
    try:
        net = build(net_class)
    except NetError as err:
        return type(err), str(err)
    return net._pre, net._post, net.max_weight, net.place_index, net.trans_index


def _constructor_cases():
    """Builders of seeded flows of all eight rows, with and without
    transitions lacking pre-places, in shuffled order, with weight-0 pairs
    added on declared nodes and, now and then, one bad weight or pair; then
    the rejection cases."""
    rng = random.Random(29)
    rows = ("ord-io", "ord-imo", "io", "imo", "ord-bio", "ord-bimo", "bio", "bimo")
    for k in range(160):
        net = random_net_in_row(rows[k % 8], n_places=3 + k % 4, n_trans=1 + k % 6,
                                seed=2_900 + k)
        if k % 2:
            net = with_spawns(net, seed=k)
        items = list(net.flow.items())
        for _ in range(rng.randrange(3)):
            p, t = rng.choice(net.places), rng.choice(net.transitions)
            if (p, t) not in net.flow and (t, p) not in net.flow:
                items.append(((p, t) if rng.random() < 0.5 else (t, p), 0))
        rng.shuffle(items)
        if k % 5 == 4:
            bad = rng.choice([((net.places[0], "nowhere"), 1), (("nowhere", net.places[0]), 1),
                              ((net.places[0], net.transitions[0]), -2),
                              ((net.transitions[0], net.places[0]), 2.5)])
            items.insert(rng.randrange(len(items) + 1), bad)
        flow = dict(items)
        yield lambda net_class, net=net, flow=flow: net_class(
            net.name, net.places, net.transitions, flow)
    for build, _, _ in _NET_REJECTIONS:
        yield build


def test_constructor_matches_reference():
    """`Net(...)` gives the same arcs, maximum weight and indices as the
    reference constructor, or raises the same error with the same message."""
    kinds = set()
    for build in _constructor_cases():
        got = _outcome(build, Net)
        assert got == _outcome(build, _ReferenceNet), got
        kinds.add(got[0] if isinstance(got[0], type) else "net")
    assert kinds == {"net", NetError, UnknownNode}


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
    # the view is the constructor's flow without its zero weights, and a copy
    want = {k: w for k, w in flow.items() if w}
    view = net.flow
    assert view == want
    view.clear()
    view[("x", "y")] = 1
    assert net.flow == want
    again, marking2 = parse_net(serialize_net(net, marking))
    assert (again.name, again.places, again.transitions, again.flow) == (
        net.name, net.places, net.transitions, net.flow)
    assert marking2 == marking
    # the stored arc pairs read back as the flow, in ascending place order
    for t, pre, post in zip(net.transitions, net._pre, net._post):
        assert pre_mset(net, t) == tuple(want.get((p, t), 0) for p in net.places)
        assert post_mset(net, t) == tuple(want.get((t, p), 0) for p in net.places)
        for arcs in (pre, post):
            assert [i for i, _ in arcs] == sorted({i for i, _ in arcs})
            assert all(1 <= w <= MAX_WEIGHT for _, w in arcs)


def test_no_import_inside_a_function():
    """Every module imports at its top, so the import graph is what the
    module headers say and has no cycle hidden in a function body."""
    src = pathlib.Path(ionet.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [(path.name, node.lineno) for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert len(list(src.glob("*.py"))) >= 10
    assert found == []
