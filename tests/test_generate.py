import random

import pytest

from ionet import Net, NetError, classify, serialize_net
from ionet import generate
from ionet.generate import ROWS, random_marking, random_net, random_net_in_row
from ionet.nets import MAX_WEIGHT


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
    recursed into a `RecursionError`.  A weight bound outside
    1..`MAX_WEIGHT`, or transitions without places, is refused before the
    first draw.  An unknown row is a `ValueError` listing the eight rows;
    a row missed in every attempt is a `NetError` naming the row and the
    net's size."""
    with pytest.raises(ValueError, match="unknown class 'xo'"):
        random_net("xo")
    for row in ("general", "ord-xo", "xo"):
        with pytest.raises(ValueError, match=f"unknown row {row!r}") as info:
            random_net_in_row(row, n_places=3, n_trans=2, seed=0)
        assert all(repr(r) in str(info.value) for r in ROWS)
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
    draws.clear()
    for wmax in (0, -3, MAX_WEIGHT + 1, 3_000_000_000):
        with pytest.raises(NetError, match=f"weight bound {wmax} out of range"):
            random_net("bimo", wmax=wmax)
    with pytest.raises(NetError, match="3 transitions need at least one place"):
        random_net("io", n_places=0, n_trans=3)
    assert draws == []
    assert random_net("io", n_places=0, n_trans=0).places == ()
    assert classify(random_net("bimo", n_places=2, n_trans=2, wmax=MAX_WEIGHT)).bimo
    draws.clear()
    # a one-place ordinary draw never moves a token off its place, so it is io
    with pytest.raises(NetError, match="no ord-imo net with 1 places and 2 transitions "
                       "drawn in 200 tries"):
        random_net_in_row("ord-imo", n_places=1, n_trans=2, seed=0)
    assert draws == ["imo"] * 200


def _reference_random_net(cls="io", n_places=4, n_trans=4, wmax=1, seed=0, rng=None):
    """The generator as it was before it read a draw's class off its shape:
    every draw is built into a `Net` and classified."""
    if rng is None:
        rng = random.Random(seed)
    places = [f"p{i}" for i in range(1, n_places + 1)]
    for _ in range(generate.MAX_DRAWS):
        net = _reference_draw(cls, places, n_trans, wmax, seed, rng)
        if getattr(classify(net), cls):
            return net
    raise NetError(f"no {cls} net drawn")


def _reference_draw(cls, places, n_trans, wmax, seed, rng):
    flow = {}
    trans = []
    for k in range(1, n_trans + 1):
        t = f"t{k}"
        trans.append(t)
        src = rng.choice(places)
        n_obs = rng.randrange(2) if cls in ("io", "bio") else rng.randrange(3)
        obs = {}
        for _ in range(n_obs):
            p = rng.choice(places)
            if wmax == 1:
                if p != src and p not in obs:
                    obs[p] = 1
            else:
                room = wmax - (1 if p == src else 0) - obs.get(p, 0)
                if room > 0:
                    obs[p] = obs.get(p, 0) + rng.randint(1, room)
        n_dest = 1 if cls in ("io", "imo") else rng.randrange(3)
        dest = {}
        for _ in range(n_dest):
            if wmax == 1:
                avail = [p for p in places if p not in obs and p not in dest]
                if not avail:
                    continue
                dest[rng.choice(avail)] = 1
            else:
                p = rng.choice(places)
                if obs.get(p, 0) + dest.get(p, 0) < wmax:
                    dest[p] = dest.get(p, 0) + 1
        if cls in ("io", "imo") and sum(dest.values()) != 1:
            obs = {}
            dest = {rng.choice(places): 1}
        for p in set(obs) | {src}:
            flow[(p, t)] = obs.get(p, 0) + (1 if p == src else 0)
        for p in set(obs) | set(dest):
            w = obs.get(p, 0) + dest.get(p, 0)
            if w:
                flow[(t, p)] = w
    return Net(f"rand-{cls}-{seed}", places, trans, flow)


def _reference_random_net_in_row(row, n_places, n_trans, seed, wmax=3):
    rng = random.Random(seed)
    ordinary = row.startswith("ord-")
    cls = row[4:] if ordinary else row
    for _ in range(200):
        net = _reference_random_net(cls, n_places, n_trans, wmax=1 if ordinary else wmax,
                                    seed=seed, rng=rng)
        if classify(net).finest() == row:
            return net
    raise NetError(f"no {row} net drawn")


def _a06_sweep():
    """The (row, places, transitions, seed) of every A-06 net."""
    for row in ROWS:
        for k in range(300):
            yield row, 3 + k % 3, 1 + k % 4, 10_000 + 13 * k


def _random_net_grid():
    """(class, places, transitions, wmax, seed) over every class and the
    weight bounds 1 to 4."""
    for cls in generate.CLASSES:
        for wmax in range(1, 5):
            for seed in range(60):
                yield cls, 2 + seed % 4, 1 + seed % 5, wmax, seed


def test_generator_matches_reference():
    """Reading the class off the draw's shape leaves every net as it was:
    the same text on the A-06 sweep and on `random_net` over every class
    and weight bound."""
    for row, n_places, n_trans, seed in _a06_sweep():
        got = random_net_in_row(row, n_places, n_trans, seed)
        want = _reference_random_net_in_row(row, n_places, n_trans, seed)
        assert serialize_net(got) == serialize_net(want), (row, seed)
    for cls, n_places, n_trans, wmax, seed in _random_net_grid():
        got = random_net(cls, n_places, n_trans, wmax, seed)
        want = _reference_random_net(cls, n_places, n_trans, wmax, seed)
        assert serialize_net(got) == serialize_net(want), (cls, wmax, seed)


def test_shape_flags_match_classify_and_one_net_per_net(monkeypatch):
    """Every draw's shape flags, rejected draws included, equal `classify`
    of the net it makes; the generator builds one `Net` per returned net."""
    draws = []
    draw = generate._draw

    def checked(*args):
        trans, flow, nc = draw(*args)
        net = Net("draw", args[1], trans, flow)
        assert nc == classify(net), (args[0], args[3], flow)
        draws.append((args[3], nc))
        return trans, flow, nc

    built = []
    build = generate.Net

    def counting(*args):
        built.append(args[0])
        return build(*args)

    monkeypatch.setattr(generate, "_draw", checked)
    monkeypatch.setattr(generate, "Net", counting)
    returned = 0
    for row, n_places, n_trans, seed in _a06_sweep():
        random_net_in_row(row, n_places, n_trans, seed)
        returned += 1
    assert len(built) == returned == 2_400
    assert len(draws) > 3 * returned  # misses of the class and of the row
    for cls, n_places, n_trans, wmax, seed in _random_net_grid():
        random_net(cls, n_places, n_trans, wmax, seed)
    assert len(built) == returned + 960
    # weighted bounds also draw ordinary nets, so `ordinary` is read off
    # the drawn weights and not off `wmax`
    assert any(nc.ordinary for wmax, nc in draws if wmax > 1)
    assert {nc.finest() for _, nc in draws} == set(ROWS)


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
