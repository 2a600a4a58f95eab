import random

from ionet import Net, classify, serialize_net
from ionet.generate import random_marking, random_net, random_net_in_row


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
    rows = ["ord-io", "ord-imo", "io", "imo", "ord-bio", "ord-bimo", "bio", "bimo"]
    for row in rows:
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
