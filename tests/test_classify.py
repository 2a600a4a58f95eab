import random

import pytest

from ionet import (
    DUMMY_PLACE, Net, NotBimo, augment_marking, build_stage, classify, dummy_augment,
    msize, msub, parse_net, post_mset, pre_mset, presentation, reach_graph,
)
from ionet.classify import is_bimo_msets, is_bio_msets, is_imo_msets
from ionet.generate import random_net, random_net_in_row
from tests.conftest import dense_arcs, load_lba, random_flow_net, with_spawns


def test_classify_fixture_flags(siphon_net, fragile_net, pump_net, dense_net,
                                weighted_net):
    nc = classify(siphon_net[0])
    # t1 observes two places, so the net is branching multi-observation only
    assert (nc.ordinary, nc.bimo, nc.bio, nc.imo, nc.io) == (True, True, False, False, False)
    assert not nc.conservative and nc.max_weight == 1

    nc = classify(fragile_net[0])
    assert nc.io and nc.imo and nc.bio and nc.bimo and nc.ordinary and nc.conservative
    assert nc.finest() == "ord-io"

    nc = classify(pump_net[0])
    assert nc.bimo and not nc.bio and not nc.imo and nc.ordinary

    nc = classify(dense_net[0])
    assert nc.bio and nc.bimo and not nc.imo and nc.ordinary

    nc = classify(weighted_net[0])
    assert nc.bio and not nc.ordinary and nc.max_weight == 3


def test_classify_empty_net():
    nc = classify(Net("empty", [], [], {}))
    assert nc.ordinary and nc.conservative and nc.io and nc.max_weight == 1


def test_classify_weighted_branch():
    net = Net("w2", ["p", "q"], ["t"], {("p", "t"): 1, ("t", "q"): 2})
    nc = classify(net)
    assert nc.bimo and nc.bio and not nc.imo and not nc.ordinary
    assert nc.max_weight == 2


def _naive_flags(net):
    """Definition-level recheck used as an oracle."""
    ordinary = all(w == 1 for w in net.flow.values())
    conservative = bimo = bio = imo = True
    for t in net.transitions:
        pre, post = pre_mset(net, t), post_mset(net, t)
        if msize(pre) != msize(post):
            conservative = False
        if msize(msub(pre, post)) > 1:
            bimo = bio = imo = False
            continue
        ps = msize(pre) if msize(pre) else 1
        qs = msize(post) + (1 if msize(pre) == 0 else 0)
        if ps - 1 > 1:
            bio = False
        if qs - ps + 1 != 1:
            imo = False
    return ordinary, conservative, bimo, bio, imo and bimo, bio and imo and bimo


def test_classify_vs_naive_recheck():
    rng = random.Random(0)
    for n in range(1000):
        cls = ("io", "imo", "bio", "bimo")[n % 4]
        net = random_net(cls, n_places=1 + n % 5, n_trans=1 + n % 4,
                         wmax=1 + n % 3, seed=1000 + n)
        nc = classify(net)
        assert (_naive_flags(net) ==
                (nc.ordinary, nc.conservative, nc.bimo, nc.bio, nc.imo, nc.io))
        assert getattr(nc, cls)


def _mset_flags(net):
    """`classify`'s flags transcribed from the per-transition multiset
    definitions."""
    pairs = dense_arcs(net)
    bimo = all(is_bimo_msets(pre, post) for pre, post in pairs)
    return (all(w == 1 for w in net.flow.values()),
            all(msize(pre) == msize(post) for pre, post in pairs),
            bimo,
            bimo and all(is_bio_msets(pre, post) for pre, post in pairs),
            bimo and all(is_imo_msets(pre, post) for pre, post in pairs),
            bimo and all(is_bio_msets(pre, post) and is_imo_msets(pre, post)
                         for pre, post in pairs))


def _classify_cases():
    rows = ("ord-io", "ord-imo", "io", "imo", "ord-bio", "ord-bimo", "bio", "bimo")
    for k in range(240):
        net = random_net_in_row(rows[k % 8], n_places=3 + k % 3, n_trans=1 + k % 4,
                                seed=71_000 + k)
        yield with_spawns(net, seed=k) if k % 3 == 0 else net
    for k in range(300):
        yield random_flow_net(72_000 + k, n_places=1 + k % 5, n_trans=1 + k % 6)
    for name, words in (("accept_all_2", ("aa", "ab")), ("even_a_2", ("ab", "bb")),
                        ("flip_2", ("ba",)), ("first_a_3", ("abb",))):
        spec = load_lba(name)
        for word in words:
            for stage in ("N", "Nbar"):
                yield build_stage(spec, word, stage)[0]


def test_classify_matches_mset_definitions():
    seen = set()
    empty_pre = 0
    for net in _classify_cases():
        nc = classify(net)
        flags = (nc.ordinary, nc.conservative, nc.bimo, nc.bio, nc.imo, nc.io)
        assert flags == _mset_flags(net), net
        assert nc.max_weight == max(net.flow.values(), default=1)
        seen.add(flags)
        empty_pre += not all(net._pre)
    assert empty_pre >= 100
    # ordinary and weighted, inside and outside each class
    for k in range(6):
        assert {f[k] for f in seen} == {False, True}, k


def test_presentation_weighted(weighted_net):
    pres = presentation(weighted_net[0], "t")
    assert pres.source == "p1"
    assert pres.observations == ("p1",)
    assert pres.destinations == ("p1", "p1", "p2")


def test_presentation_ring_fixture():
    from tests.conftest import load_net
    net, _ = load_net("weighted_single_ord")
    pres = presentation(net, "t")
    # the lowest-index marked pre-place wins when nothing is consumed net
    assert pres.source == "p1.1"
    assert pres.observations == ("p1.2",)
    assert pres.destinations == ("p1.1", "p1.3", "p2.1")


def test_presentation_reconstructs_msets():
    for seed in range(60):
        net = random_net("bimo", n_places=5, n_trans=4, wmax=3, seed=seed)
        for t in net.transitions:
            pres = presentation(net, t)
            pre = dict()
            for p in (pres.source,) + pres.observations:
                pre[p] = pre.get(p, 0) + 1
            post = dict()
            for p in pres.observations + pres.destinations:
                post[p] = post.get(p, 0) + 1
            for i, p in enumerate(net.places):
                assert pre.get(p, 0) == pre_mset(net, t)[i]
                assert post.get(p, 0) == post_mset(net, t)[i]


def test_presentation_disjointness_in_ordinary_nets():
    for seed in range(60):
        net = random_net("bimo", n_places=5, n_trans=4, wmax=1, seed=seed)
        for t in net.transitions:
            pres = presentation(net, t)
            obs, dest = set(pres.observations), set(pres.destinations)
            assert len(obs) == len(pres.observations)
            assert not obs & dest
            assert pres.source not in obs


def test_presentation_not_bimo():
    net = Net("bad", ["a", "b"], ["t"], {("a", "t"): 1, ("b", "t"): 1})
    with pytest.raises(NotBimo):
        presentation(net, "t")


def test_presentation_empty_pre_uses_dummy():
    net = Net("gen", ["p"], ["t"], {("t", "p"): 1})
    pres = presentation(net, "t")
    assert pres.source == DUMMY_PLACE
    assert pres.observations == ()
    assert set(pres.destinations) == {DUMMY_PLACE, "p"}


def test_dummy_augment_no_op(siphon_net):
    net, _ = siphon_net
    assert dummy_augment(net) is net


def test_dummy_augment_adds_loop():
    net = Net("gen", ["p"], ["t", "u"], {("t", "p"): 1, ("p", "u"): 1})
    aug = dummy_augment(net)
    assert aug.places == ("p", DUMMY_PLACE)
    assert aug.flow[(DUMMY_PLACE, "t")] == 1 and aug.flow[("t", DUMMY_PLACE)] == 1
    assert (DUMMY_PLACE, "u") not in aug.flow


def test_dummy_augment_name_clash():
    net = Net("clash", [DUMMY_PLACE, "p"], ["t"], {("t", "p"): 1})
    with pytest.raises(Exception):
        dummy_augment(net)


def _bounded_reach(net, m0, cap):
    """All reachable markings whose total token count stays <= cap."""
    from collections import deque
    from ionet import enabled, fire, msize
    seen = {tuple(m0)}
    queue = deque(seen)
    while queue:
        m = queue.popleft()
        for t in net.transitions:
            if enabled(net, m, t):
                nm = fire(net, m, t)
                if msize(nm) <= cap and nm not in seen:
                    seen.add(nm)
                    queue.append(nm)
    return seen


def test_dummy_augment_bisimilar_reachability():
    # the dummy never blocks anything: projected bounded reach sets coincide
    rng = random.Random(7)
    for case in range(5):
        base = random_net("bimo", n_places=3, n_trans=3, wmax=1, seed=40 + case)
        flow = dict(base.flow)
        flow[("tgen", base.places[case % 3])] = 1
        net = Net("gen", base.places, base.transitions + ("tgen",), flow)
        aug = dummy_augment(net)
        m0 = tuple(rng.randrange(2) for _ in net.places)
        plain = _bounded_reach(net, m0, 6)
        lifted = _bounded_reach(aug, augment_marking(m0), 7)
        assert plain == {m[:-1] for m in lifted}
