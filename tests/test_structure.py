import itertools
import random

import pytest

from ionet import (
    DUMMY_PLACE, BudgetExceeded, Net, NetError, NotBimo, UnknownNode, bounds_for, classify,
    dummy_augment, is_carrier_maximal, is_self_coverable, is_siphon, presentation,
    reach_graph, relaxed_net, replay, rich_poor, sccs, unmarked_siphon, carrier, mleq,
    post_mset, pre_mset,
)
from ionet.generate import random_net, random_marking, random_net_in_row
from ionet.nets import place_masks
from ionet.structure import (
    _is_siphon_mask, _largest_siphon_mask, _shrink_siphon_mask, relaxed_arcs,
)
from tests.conftest import (
    FIXTURES, accepting_machines, dense_arcs, load_net, random_flow_net, with_spawns,
)


def test_relaxed_witness_net_single_component(witness_net):
    net, _ = witness_net
    rlx = relaxed_net(net)
    comps = sccs(rlx)
    assert len(comps) == 1
    assert set(comps[0].vertices) == set(net.places) | set(net.transitions)


def test_relaxed_pump_net_components(pump_net):
    net, _ = pump_net
    comps = sccs(relaxed_net(net))
    assert len(comps) == 4
    trivial = sorted(c.vertices[0] for c in comps if c.trivial)
    assert trivial == ["p4", "t4", "t5"]


def test_relaxed_fragile_net_two_components(fragile_net):
    net, _ = fragile_net
    comps = sccs(relaxed_net(net))
    assert len(comps) == 2
    assert all(not c.trivial for c in comps)
    assert all(c.is_top and c.is_bottom for c in comps)  # mutually isolated


def test_relaxed_single_moves_on_fragile(fragile_net):
    # every transition keeps one pre and one post edge after relaxing
    net, _ = fragile_net
    rlx = relaxed_net(net)
    for t in net.transitions:
        assert sum(pre_mset(rlx, t)) == 1 and sum(post_mset(rlx, t)) == 1


def test_relaxed_net_trivial_cases():
    lone = Net("lone", ["p"], [], {})
    rlx = relaxed_net(lone)
    assert rlx.places == ("p",) and rlx.transitions == ()
    comps = sccs(rlx)
    assert len(comps) == 1 and comps[0].is_top and comps[0].is_bottom


def _ref_relaxed_net(net):
    """The relaxed net built on the dummy-augmented net, one presentation
    per transition."""
    base = dummy_augment(net)
    flow = {}
    for t in base.transitions:
        pres = presentation(base, t)
        flow[(pres.source, t)] = 1
        for d in set(pres.destinations):
            flow[(t, d)] = 1
    return Net(net.name + ".relaxed", base.places, base.transitions, flow)


def _ref_relaxed_arcs(net):
    """(source, destinations) indices read off the relaxed net's vectors,
    the dummy place's index mapping to None."""
    rlx = _ref_relaxed_net(net)
    dummy = len(net.places)
    return tuple((None if src == dummy else src,
                  tuple(i for i, w in enumerate(post) if w and i != dummy))
                 for ((src, _),), (_, post) in zip(rlx._pre, dense_arcs(rlx)))


def _relaxed_cases():
    for path in sorted(FIXTURES.glob("*.net")):
        yield load_net(path.stem)[0]
    rows = ("ord-io", "ord-imo", "io", "imo", "ord-bio", "ord-bimo", "bio", "bimo")
    for k in range(240):
        net = random_net_in_row(rows[k % 8], n_places=3 + k % 3, n_trans=1 + k % 4,
                                seed=73_000 + k)
        yield with_spawns(net, seed=k, count=1 + k % 2) if k % 2 else net
    for k in range(200):
        yield random_flow_net(74_000 + k, n_places=1 + k % 4, n_trans=1 + k % 5)


def test_relaxed_arcs_match_augmented_presentations():
    checked = empty_pre = 0
    for net in _relaxed_cases():
        if not classify(net).bimo:
            continue
        ref = _ref_relaxed_net(net)
        rlx = relaxed_net(net)
        assert (rlx.name, rlx.places, rlx.transitions) == (ref.name, ref.places,
                                                            ref.transitions)
        assert rlx.flow == ref.flow, net
        assert relaxed_arcs(net) == _ref_relaxed_arcs(net), net
        checked += 1
        empty_pre += not all(net._pre)
    assert checked >= 300 and empty_pre >= 120


def test_relaxed_net_reserved_dummy_name():
    flow = {("t", DUMMY_PLACE): 1, ("p", "u"): 1, ("u", "p"): 1}
    clash = Net("clash", ["p", DUMMY_PLACE], ["t", "u"], flow)
    with pytest.raises(NetError, match="reserved"):
        relaxed_net(clash)
    # the relaxed arcs name no place, so only the dummy place's name clashes
    assert relaxed_arcs(clash) == ((None, (1,)), (0, (0,)))
    # without an empty pre-set the name is an ordinary place
    plain = Net("plain", ["p", DUMMY_PLACE], ["u"], {("p", "u"): 1, ("u", DUMMY_PLACE): 1})
    assert relaxed_arcs(plain) == ((0, (1,)),)
    assert relaxed_net(plain).flow == _ref_relaxed_net(plain).flow


def test_sccs_ring_chain_oracle():
    # a chain of K rings condenses to exactly K components in order
    rng = random.Random(9)
    for _ in range(10):
        k = rng.randint(1, 4)
        size = rng.randint(1, 3)
        places, trans, flow = [], [], {}
        for r in range(k):
            ring = [f"r{r}p{j}" for j in range(size)]
            places.extend(ring)
            for j in range(size):
                t = f"r{r}t{j}"
                trans.append(t)
                flow[(ring[j], t)] = 1
                flow[(t, ring[(j + 1) % size])] = 1
            if r:
                bridge = f"b{r}"
                trans.append(bridge)
                flow[(f"r{r-1}p0", bridge)] = 1
                flow[(bridge, f"r{r}p0")] = 1
        net = Net("rings", places, trans, flow)
        comps = sccs(net)
        ring_comps = [c for c in comps if not c.trivial]
        assert len(ring_comps) == k
        assert ring_comps[0].is_top and ring_comps[-1].is_bottom


def test_edgeless_components_all_top_bottom():
    net = Net("edgeless", ["a", "b"], ["t"], {})
    comps = sccs(net)
    assert len(comps) == 3
    assert all(c.trivial and c.is_top and c.is_bottom for c in comps)


def test_rich_poor_witness_net(witness_net):
    net, m0 = witness_net
    rlx = relaxed_net(net)
    comps = sccs(rlx)
    assert rich_poor(rlx, m0, comps)[comps[0]] == "rich"
    m_wit = replay(net, m0, ["t3", "t4", "t2", "t1", "t1", "t6", "t6", "t6"]).final
    assert rich_poor(rlx, m_wit, comps)[comps[0]] == "rich"


def test_rich_poor_live_restriction(witness_net):
    net, m0 = witness_net
    m_wit = replay(net, m0, ["t3", "t4", "t2", "t1", "t1", "t6", "t6", "t6"]).final
    keep = [t for t in net.transitions if t not in ("t1", "t6", "t7")]
    flow = {k: w for k, w in net.flow.items() if k[0] in keep or k[1] in keep}
    live_part = Net("live", net.places, keep, flow)
    rlx = relaxed_net(live_part)
    comps = sccs(rlx)
    status = sorted(rich_poor(rlx, m_wit, comps).values())
    assert status == ["poor", "poor", "rich"]
    poor_places = sorted(
        p for c, s in rich_poor(rlx, m_wit, comps).items() if s == "poor"
        for p in c.places)
    assert poor_places == ["p1", "p2", "p3", "p4", "p5"]


def test_rich_everywhere_marked():
    for seed in range(10):
        net = random_net("bimo", n_places=4, n_trans=3, wmax=1, seed=seed)
        rlx = relaxed_net(net)
        comps = sccs(rlx)
        ones = tuple(1 for _ in rlx.places)
        assert set(rich_poor(rlx, ones, comps).values()) <= {"rich"}


def test_is_siphon_fixture(siphon_net):
    net, _ = siphon_net
    assert is_siphon(net, {"p2", "p3", "p4"})
    assert is_siphon(net, set())
    assert not is_siphon(net, {"p5"})  # t2 feeds p5 without reading it


def test_is_siphon_definition_oracle():
    rng = random.Random(13)
    for seed in range(40):
        net = random_net("bimo", n_places=5, n_trans=4, wmax=2, seed=seed)
        names = list(net.places)
        for _ in range(8):
            s = {p for p in names if rng.random() < 0.4}
            idx = {net.place_index[p] for p in s}
            naive = all(
                any(pre[i] for i in idx)
                for pre, post in dense_arcs(net)
                if any(post[i] for i in idx))
            assert is_siphon(net, s) == naive


def test_unmarked_siphon(siphon_net):
    net, _ = siphon_net
    found = unmarked_siphon(net, (4, 0, 0, 0, 0, 1))
    assert found is not None and is_siphon(net, found)
    assert set(found) <= {"p2", "p3", "p4", "p5"}
    assert unmarked_siphon(net, (1, 1, 1, 1, 1, 1)) is None
    # unmarked places p2..p5, any place kept
    mask = _shrink_siphon_mask(place_masks(net), 0b011110, 0b111111)
    small = tuple(p for i, p in enumerate(net.places) if mask >> i & 1)
    assert small and is_siphon(net, small)
    assert set(small) <= set(found)


def _shrink_cases():
    """(net, read places): the accepting machines and seeded nets of every
    bounds-table row, half of them with spawning transitions."""
    nets = [make() for make in accepting_machines()]
    rows = ("ord-io", "ord-imo", "io", "imo", "ord-bio", "ord-bimo", "bio", "bimo")
    for k in range(64):
        net = random_net_in_row(rows[k % 8], n_places=3 + k % 4, n_trans=2 + k % 3,
                                seed=91_000 + k, wmax=2)
        nets.append(with_spawns(net, seed=k) if k // 8 % 2 else net)
    for net in nets:
        read = 0
        for pre, _ in place_masks(net):
            read |= pre
        yield net, read


def test_shrink_siphon_mask():
    rng = random.Random(29)
    unread = refused = 0
    for net, read in _shrink_cases():
        masks = place_masks(net)
        full = (1 << len(net.places)) - 1
        unread += read != full
        for _ in range(12):
            s = rng.getrandbits(len(net.places)) | rng.getrandbits(len(net.places))
            for keep in (read, full, rng.getrandbits(len(net.places))):
                got = _shrink_siphon_mask(masks, s, keep)
                if not _largest_siphon_mask(masks, s) & keep:
                    assert got == 0, (net, s, keep)
                    refused += 1
                    continue
                assert got and got & ~s == 0, (net, s, keep)
                assert _is_siphon_mask(masks, got) and got & keep, (net, s, keep)
                for i in range(len(net.places)):
                    if got >> i & 1:
                        assert not _largest_siphon_mask(masks, got & ~(1 << i)) & keep, \
                            (net, s, keep, i)
    assert unread >= 10 and refused >= 100


def test_self_coverable_witness_restriction(witness_net):
    # the reached marking is optimal for the net without its dead transitions
    net, m0 = witness_net
    m_wit = replay(net, m0, ["t3", "t4", "t2", "t1", "t1", "t6", "t6", "t6"]).final
    keep = [t for t in net.transitions if t not in ("t1", "t6", "t7")]
    flow = {k: w for k, w in net.flow.items() if k[0] in keep or k[1] in keep}
    live_part = Net("live", net.places, keep, flow)
    cover = is_self_coverable(live_part, m_wit)
    assert cover.status == "yes"
    assert set(cover.sequence) == set(keep)
    end = replay(live_part, m_wit, cover.sequence).final
    assert mleq(m_wit, end)
    assert is_carrier_maximal(live_part, m_wit).status == "yes"


def test_self_coverable_trivial_cases():
    net = Net("two", ["p", "q"], ["t"], {("p", "t"): 1, ("t", "q"): 1})
    zero = (0, 0)
    assert is_self_coverable(net, zero).status == "no"
    assert is_carrier_maximal(net, zero).status == "yes"
    assert is_carrier_maximal(net, (1, 1)).status == "yes"
    # moving the token keeps the carrier size, so (1,0) stays maximal
    assert is_carrier_maximal(net, (1, 0)).status == "yes"


def test_carrier_maximal_counterexample():
    net = Net("split", ["p", "q", "r"], ["t"],
              {("p", "t"): 1, ("t", "q"): 1, ("t", "r"): 1})
    res = is_carrier_maximal(net, (1, 0, 0))
    assert res.status == "no" and res.marking == (0, 1, 1)


def test_bounded_searches_report_budget(fragile_net):
    net, m0 = fragile_net
    with pytest.raises(BudgetExceeded):
        is_self_coverable(net, m0, node_budget=2)
    with pytest.raises(BudgetExceeded):
        is_carrier_maximal(net, m0, node_budget=2)


def test_bounded_searches_against_full_graph():
    # exhaustive reachability oracle on small conservative nets
    rng = random.Random(17)
    for seed in range(25):
        net = random_net("imo", n_places=4, n_trans=3, wmax=1, seed=seed)
        m0 = random_marking(net, 4, rng)
        g = reach_graph(net, m0, node_budget=10_000)
        best = max(len(carrier(m)) for m in g.index)
        res = is_carrier_maximal(net, m0)
        assert (res.status == "yes") == (best == len(carrier(m0)))

        cov = is_self_coverable(net, m0, node_budget=20_000)
        if cov.status == "yes":
            ex = replay(net, m0, cov.sequence)
            assert mleq(m0, ex.final)
            assert set(cov.sequence) == set(net.transitions)
        else:
            # oracle: no full sequence exists within the (marking, fired-set)
            # product space explored exhaustively by the checker itself
            assert cov.status == "no"


def test_optimal_markings_spread_tokens():
    # where optimality is confirmed exactly: rich components fully marked,
    # poor components 0/1 on top components whose restriction is single-move
    from ionet.classify import is_imo_msets
    rng = random.Random(97)
    confirmed = 0
    poor_seen = 0
    for seed in range(80):
        net = _ring_composition(rng)
        m = tuple(rng.randrange(3) for _ in net.places)
        if is_self_coverable(net, m, node_budget=30_000).status != "yes":
            continue
        if is_carrier_maximal(net, m, node_budget=30_000).status != "yes":
            continue
        confirmed += 1
        rlx = relaxed_net(net)
        comps = sccs(rlx)
        lifted = m if len(rlx.places) == len(net.places) else m + (1,)
        for comp, status in rich_poor(rlx, lifted, comps).items():
            counts = [lifted[rlx.place_index[p]] for p in comp.places]
            if status == "rich":
                assert all(x >= 1 for x in counts)
            else:
                poor_seen += 1
                assert all(x <= 1 for x in counts)
                assert comp.is_top
                keep_idx = [net.place_index[p] for p in comp.places
                            if p in net.place_index]
                for pre, post in dense_arcs(net):
                    pre = tuple(pre[i] for i in keep_idx)
                    post = tuple(post[i] for i in keep_idx)
                    assert is_imo_msets(pre, post)
    assert confirmed >= 10 and poor_seen >= 5


def _ring_composition(rng):
    """Independent token rings with random observation coupling."""
    places, trans, flow = [], [], {}
    rings = rng.randint(2, 3)
    for r in range(rings):
        size = rng.randint(1, 3)
        ring = [f"r{r}p{j}" for j in range(size)]
        places.extend(ring)
        for j in range(size):
            t = f"r{r}t{j}"
            trans.append(t)
            flow[(ring[j], t)] = 1
            flow[(t, ring[(j + 1) % size])] = 1
    for _ in range(rng.randrange(3)):
        t = rng.choice(trans)
        p = rng.choice(places)
        if (p, t) not in flow and (t, p) not in flow:
            flow[(p, t)] = 1
            flow[(t, p)] = 1
    return Net("rings", places, trans, flow)


def test_isolated_components_conserve_tokens():
    # when no relaxed edge crosses components, each component keeps its tokens
    from ionet import enabled, fire
    rng = random.Random(101)
    for seed in range(60):
        net = random_net("imo", n_places=4, n_trans=3, wmax=1, seed=seed)
        rlx = relaxed_net(net)
        comps = sccs(rlx)
        if not all(c.is_top and c.is_bottom for c in comps):
            continue
        m = random_marking(net, 5, rng)
        groups = [[net.place_index[p] for p in c.places if p in net.place_index]
                  for c in comps]
        for _ in range(15):
            opts = [t for t in net.transitions if enabled(net, m, t)]
            if not opts:
                break
            nm = fire(net, m, rng.choice(opts))
            for g in groups:
                assert sum(nm[i] for i in g) == sum(m[i] for i in g)
            m = nm


def _not_bimo():
    """`t` takes two tokens and puts none back."""
    return Net("two", ["p", "q"], ["t"], {("p", "t"): 1, ("q", "t"): 1})


@pytest.mark.parametrize("reject,error,fragment", [
    (lambda: is_siphon(_not_bimo(), {"p", "nowhere"}), UnknownNode, "unknown place"),
    (lambda: relaxed_arcs(_not_bimo()), NotBimo, "branching-observation family"),
    (lambda: bounds_for(classify(_not_bimo()), 2, 1), NotBimo,
     "branching-observation family"),
])
def test_structure_rejections(reject, error, fragment):
    with pytest.raises(error, match=fragment):
        reject()
