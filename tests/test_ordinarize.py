import random

import pytest
from hypothesis import given, settings, strategies as st

from ionet import (
    NetError, NotBimo, Net, classify, check_liveness_transfer, embed_marking, enabled,
    fire, is_nonlive, ordinarize, parse_net, project_marking, replay,
    serialize_net, TransferReport,
)
from ionet.generate import random_net, random_marking
from tests.conftest import load_net


def test_ordinarize_matches_hand_fixture(weighted_net):
    net, _ = weighted_net
    ordn, omap = ordinarize(net)
    fixture, _ = load_net("weighted_single_ord")
    assert serialize_net(ordn) == serialize_net(fixture)
    assert omap.ring_size == {"p1": 3, "p2": 1}
    nc = classify(ordn)
    assert nc.ordinary and nc.bio and not nc.imo  # class preserved, weights gone


def test_ordinarize_rotation_cycles(weighted_net):
    net, _ = weighted_net
    ordn, omap = ordinarize(net)
    for p, ring in omap.rings.items():
        rots = omap.rotations[p]
        assert len(rots) == (len(ring) if len(ring) > 1 else 0)
        for j, rot in enumerate(rots):
            assert ordn.flow[(ring[j], rot)] == 1
            assert ordn.flow[(rot, ring[(j + 1) % len(ring)])] == 1


def test_ordinarize_unit_rings_have_no_rotation():
    net = Net("ord", ["p", "q"], ["t"], {("p", "t"): 1, ("t", "q"): 1})
    ordn, omap = ordinarize(net)
    assert "p.rot1" not in ordn.trans_index
    assert omap.rotations == {"p": (), "q": ()}
    # behaviourally the unit rings change nothing
    assert classify(ordn).io
    # an isolated unmarked place: a self-rotation on it would be dead
    net = parse_net("net n\nplace p1 tokens=2\nplace p2\ntrans t1 pre p1:2 post p1:2\n")[0]
    assert check_liveness_transfer(net, (2, 0)).ring_status == "live"


def test_ordinarize_requires_family():
    net = Net("join", ["a", "b", "c"], ["t"],
              {("a", "t"): 1, ("b", "t"): 1, ("t", "c"): 1})
    with pytest.raises(NotBimo):
        ordinarize(net)


def test_class_preservation_all_shapes():
    for cls in ("io", "imo", "bio", "bimo"):
        for seed in range(25):
            net = random_net(cls, n_places=3, n_trans=3, wmax=3, seed=seed)
            ordn, _ = ordinarize(net)
            nc = classify(ordn)
            assert nc.ordinary
            assert getattr(nc, cls)


def test_embed_project_roundtrip(weighted_net):
    net, _ = weighted_net
    _, omap = ordinarize(net)
    assert embed_marking(omap, (3, 0)) == (3, 0, 0, 0)
    assert project_marking(omap, (3, 0, 0, 0)) == (3, 0)
    rng = random.Random(71)
    for _ in range(30):
        m = tuple(rng.randrange(5) for _ in net.places)
        assert project_marking(omap, embed_marking(omap, m)) == m


def test_rotations_preserve_projection():
    rng = random.Random(73)
    for seed in range(20):
        net = random_net("bimo", n_places=3, n_trans=3, wmax=3, seed=seed)
        ordn, omap = ordinarize(net)
        rotations = {t for rots in omap.rotations.values() for t in rots}
        m = embed_marking(omap, random_marking(net, 5, rng))
        for _ in range(25):
            opts = [t for t in rotations if enabled(ordn, m, t)]
            if not opts:
                break
            m = fire(ordn, m, rng.choice(opts))
        assert project_marking(omap, m) == project_marking(
            omap, embed_marking(omap, project_marking(omap, m)))


def test_step_correspondence():
    # (i) an original firing is matched by rotations plus the image firing;
    # (ii) rotations leave the projection alone; (iii) an image firing maps
    # back to an original firing.
    rng = random.Random(79)
    for seed in range(30):
        net = random_net("bimo", n_places=3, n_trans=3, wmax=3, seed=seed)
        ordn, omap = ordinarize(net)
        rotations = {t for rots in omap.rotations.values() for t in rots}
        m1 = random_marking(net, 5, rng)
        m2 = embed_marking(omap, m1)
        for t in net.transitions:
            if not enabled(net, m1, t):
                continue
            target = fire(net, m1, t)
            found = _search_rotations_then(ordn, rotations, m2, t)
            assert found is not None, (seed, t)
            assert project_marking(omap, found) == target
        # (iii): any enabled image firing projects to an enabled original one
        for t in net.transitions:
            if enabled(ordn, m2, t):
                assert enabled(net, m1, t)
                assert project_marking(omap, fire(ordn, m2, t)) == fire(net, m1, t)


def _search_rotations_then(ordn, rotations, start, t):
    """Breadth-first rotation walk until the image transition fires."""
    from collections import deque
    seen = {start}
    queue = deque([start])
    while queue:
        m = queue.popleft()
        if enabled(ordn, m, t):
            return fire(ordn, m, t)
        for rot in rotations:
            if enabled(ordn, m, rot):
                nm = fire(ordn, m, rot)
                if nm not in seen:
                    seen.add(nm)
                    queue.append(nm)
    return None


def test_enabledness_transfer_single(weighted_net):
    net, _ = weighted_net
    ordn, omap = ordinarize(net)
    # two tokens enable the weighted read only after rotating one token along
    m = embed_marking(omap, (2, 0))
    assert not enabled(ordn, m, "t")
    m = fire(ordn, m, "p1.rot1")
    assert enabled(ordn, m, "t")
    rep = check_liveness_transfer(net, (2, 0))
    assert rep.agree


def test_liveness_transfer_zero():
    net = random_net("bimo", n_places=3, n_trans=2, wmax=2, seed=5)
    rep = check_liveness_transfer(net, (0,) * 3)
    assert rep.agree
    assert rep.to_dict() == {"original": rep.original_status, "ring": rep.original_status,
                             "agree": True}
    assert TransferReport("live", "nonlive").to_dict() == {
        "original": "live", "ring": "nonlive", "agree": False}


def test_liveness_transfer_random():
    rng = random.Random(83)
    for seed in range(60):
        net = random_net("bimo", n_places=3, n_trans=3, wmax=3, seed=seed)
        m = random_marking(net, 5, rng)
        rep = check_liveness_transfer(net, m, node_budget=800_000)
        assert rep.original_status in ("live", "nonlive")
        assert rep.agree, (seed, m)


@st.composite
def _small_family_cases(draw):
    net = random_net(draw(st.sampled_from(("io", "imo", "bio", "bimo"))),
                     n_places=draw(st.integers(1, 3)), n_trans=draw(st.integers(1, 3)),
                     wmax=draw(st.integers(1, 3)), seed=draw(st.integers(0, 10**6)))
    n = len(net.places)
    return net, tuple(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))


@settings(max_examples=300)
@given(_small_family_cases())
def test_liveness_transfer_property(case):
    net, m = case
    assert check_liveness_transfer(net, m).agree


def _weighted():
    """A weight-2 place `p`, so its ring has two places and two rotations."""
    return Net("w", ["p", "q"], ["t"], {("p", "t"): 2, ("t", "q"): 1, ("t", "p"): 1})


@pytest.mark.parametrize("reject,fragment", [
    (lambda: embed_marking(ordinarize(_weighted())[1], (1,)), "source net"),
    (lambda: project_marking(ordinarize(_weighted())[1], (1, 0)), "ring net"),
    (lambda: ordinarize(Net("c", ["p"], ["p.1"], {("p", "p.1"): 1, ("p.1", "p"): 1})),
     "generated place name 'p.1' collides"),
    (lambda: ordinarize(Net("c", ["p", "q"], ["t", "p.rot2"],
                            {("p", "t"): 2, ("t", "q"): 1, ("t", "p"): 1})),
     "generated transition name 'p.rot2' collides"),
])
def test_ordinarize_rejections(reject, fragment):
    with pytest.raises(NetError, match=fragment):
        reject()
