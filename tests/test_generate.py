import random

import pytest

from ionet import Net, NetError, classify, serialize_net
from ionet import generate
from ionet.generate import random_marking, random_net, random_net_in_row

ROWS = ("ord-io", "ord-imo", "io", "imo", "ord-bio", "ord-bimo", "bio", "bimo")


def test_generator_is_seed_deterministic():
    a = random_net("io", n_places=4, n_trans=4, wmax=2, seed=7)
    b = random_net("io", n_places=4, n_trans=4, wmax=2, seed=7)
    assert serialize_net(a) == serialize_net(b)
    c = random_net("io", n_places=4, n_trans=4, wmax=2, seed=8)
    assert serialize_net(a) != serialize_net(c)


def test_generator_respects_class_and_weight():
    for cls in ("io", "imo", "bio", "bimo"):
        for wmax in (1, 2, 3):
            for seed in range(20):
                net = random_net(cls, n_places=4, n_trans=4, wmax=wmax, seed=seed)
                nc = classify(net)
                assert getattr(nc, cls), (cls, wmax, seed)
                assert nc.max_weight <= wmax
                if wmax == 1:
                    assert nc.ordinary


def test_generated_names_keep_the_seed():
    # seed 5 misses the io class twice with weights, so the net is redrawn
    assert random_net("io", n_places=4, n_trans=4, wmax=3, seed=5).name == "rand-io-5"
    for row in ("ord-io", "io", "imo", "bimo"):
        net = random_net_in_row(row, n_places=4, n_trans=3, seed=11)
        assert net.name == f"rand-{row.removeprefix('ord-')}-11"


def test_row_generator_hits_each_row():
    for row in ROWS:
        for seed in range(6):
            net = random_net_in_row(row, n_places=4, n_trans=3, seed=seed)
            nc = classify(net)
            ordinary = row.startswith("ord-")
            assert nc.ordinary == ordinary
            cls = row[4:] if ordinary else row
            assert getattr(nc, cls)
            if not ordinary:
                assert nc.max_weight >= 2


def test_random_marking_empty_net_and_seeded_draws():
    assert random_marking(Net("empty", [], [], {}), 5, random.Random(0)) == ()
    # the draws for nets with places, as seeded tests rely on them
    rng = random.Random(5)
    net = random_net("io", n_places=4, n_trans=3, seed=2)
    assert [random_marking(net, 6, rng) for _ in range(4)] == [
        (1, 0, 2, 1), (2, 2, 1, 1), (2, 3, 0, 1), (0, 1, 1, 1)]


def test_random_net_refusals(monkeypatch):
    """An unknown class is a `ValueError`.  Redraws run in a loop from one
    generator and stop at `MAX_DRAWS` with a `NetError`, where they once
    recursed into a `RecursionError`."""
    with pytest.raises(ValueError, match="unknown class 'xo'"):
        random_net("xo")
    draws = []
    draw = generate._draw

    def counting(*args):
        draws.append(args[0])
        return draw(*args)

    monkeypatch.setattr(generate, "_draw", counting)
    for cls, n_trans, wmax, seed in (("io", 60, 5, 1), ("bio", 30, 4, 3)):
        draws.clear()
        with pytest.raises(NetError, match=f"no {cls} net with {n_trans} transitions "
                           f"and weights up to {wmax} drawn in 1000 tries"):
            random_net(cls, n_places=4, n_trans=n_trans, wmax=wmax, seed=seed)
        assert draws == [cls] * generate.MAX_DRAWS == [cls] * 1_000
    draws.clear()
    random_net("io", n_places=4, n_trans=4, wmax=3, seed=5)
    assert len(draws) == 3  # two misses, as `test_generated_names_keep_the_seed` says


def _in_row_reference(nc, row):
    """The row test `random_net_in_row` ran before it compared `finest()`."""
    ordinary = row.startswith("ord-")
    cls = row[4:] if ordinary else row
    if ordinary != nc.ordinary:
        return False
    if not ordinary and nc.max_weight < 2:
        return False
    if cls == "io" and not nc.io:
        return False
    if cls == "imo" and not (nc.imo and not nc.io):
        return False
    if cls == "bio" and not (nc.bio and not nc.imo):
        return False
    if cls == "bimo" and not (nc.bimo and not nc.bio and not nc.imo):
        return False
    return True


def test_row_test_matches_reference():
    """`finest() == row` accepts exactly the nets the six separate class
    checks accepted, on seeded draws of every class and weight bound."""
    hits = dict.fromkeys(ROWS, 0)
    for cls in generate.CLASSES:
        for wmax in (1, 2, 3):
            for seed in range(60):
                net = random_net(cls, n_places=2 + seed % 4, n_trans=1 + seed % 5,
                                 wmax=wmax, seed=seed)
                nc = classify(net)
                for row in ROWS:
                    want = _in_row_reference(nc, row)
                    assert (nc.finest() == row) == want, (cls, wmax, seed, row)
                    hits[row] += want
    assert all(hits.values()), hits
