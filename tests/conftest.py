import pathlib
import random

import pytest
from hypothesis import settings

from ionet import Net, build_stage, parse_net, parse_lba, post_mset, pre_mset, simulate_lba

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# Property tests rerun the same examples on every run, and a slow host
# cannot fail them on time.
settings.register_profile("seeded", derandomize=True, deadline=None)
settings.load_profile("seeded")


def load_net(name):
    return parse_net((FIXTURES / f"{name}.net").read_text())


def dense_arcs(net):
    """(pre-set, post-set) count vectors of every transition, in order."""
    return [(pre_mset(net, t), post_mset(net, t)) for t in net.transitions]


def _sub(vec, indices):
    """The entries of `vec` at `indices`, as a tuple."""
    return tuple(vec[i] for i in indices)


def labelled_edges(graph):
    """Each reach-graph node's out-edges as (transition name, node) pairs,
    rebuilt from `succ` and `enabled`: the k-th set bit of `enabled[v]`
    labels `succ[v][k]`, so it has exactly `len(succ[v])` set bits."""
    names = graph.net.transitions
    assert len(graph.enabled) == len(graph.succ) == len(graph.codes)
    edges = []
    for en, out in zip(graph.enabled, graph.succ):
        assert en >> len(names) == 0 and en.bit_count() == len(out)
        labels = [t for ti, t in enumerate(names) if en >> ti & 1]
        edges.append(list(zip(labels, out)))
    return edges


def load_lba(name):
    return parse_lba((FIXTURES / "lba" / f"{name}.lba").read_text())


def accepting_machines():
    """Factories of the eight accepting two-letter compiled machines."""
    for name in ("accept_all_2", "reject_all_2", "even_a_2", "flip_2"):
        spec = load_lba(name)
        for word in ("aa", "ab", "ba", "bb"):
            if simulate_lba(spec, word) == "accept":
                yield lambda spec=spec, word=word: build_stage(spec, word, "Nbar")[0]


@pytest.fixture(scope="session")
def siphon_net():
    return load_net("bimo_siphon")


@pytest.fixture(scope="session")
def witness_net():
    return load_net("bimo_witness")


@pytest.fixture(scope="session")
def pump_net():
    return load_net("bimo_pump")


@pytest.fixture(scope="session")
def fragile_net():
    return load_net("io_fragile")


@pytest.fixture(scope="session")
def weighted_net():
    return load_net("weighted_single")


@pytest.fixture(scope="session")
def dense_net():
    return load_net("bio_dense")


def random_flow_net(seed, n_places=4, n_trans=4, wmax=3):
    """A net of no particular class: each transition reads and writes up to
    two places with weights up to `wmax`, and about one in four has an
    empty pre-set."""
    rng = random.Random(seed)
    places = [f"p{i}" for i in range(n_places)]
    trans = [f"t{k}" for k in range(n_trans)]
    flow = {}
    for t in trans:
        n_pre = 0 if rng.random() < 0.25 else rng.randint(1, 2)
        for p in rng.sample(places, min(n_pre, n_places)):
            flow[(p, t)] = rng.randint(1, wmax)
        for p in rng.sample(places, min(rng.randint(0, 2), n_places)):
            flow[(t, p)] = rng.randint(1, wmax)
    return Net(f"flow-{seed}", places, trans, flow)


def ring17():
    """A ring p0 -> p1 -> ... -> p16 -> p0 through t0..t16, plus `x`, which
    moves a token from p0 to p2 while p1 is marked: conservative, and above
    the default subset cap of 16 places."""
    places = [f"p{i}" for i in range(17)]
    trans = [f"t{i}" for i in range(17)] + ["x"]
    flow = {("p0", "x"): 1, ("p1", "x"): 1, ("x", "p1"): 1, ("x", "p2"): 1}
    for i in range(17):
        flow[(places[i], trans[i])] = 1
        flow[(trans[i], places[(i + 1) % 17])] = 1
    return Net("ring17", places, trans, flow)


def with_spawns(net, seed, count=2):
    """The net plus `count` transitions without pre-places: each puts one
    token on a random place or, half the time, has no arcs at all.  Both
    kinds keep a net of the branching-observation family in it."""
    rng = random.Random(seed)
    flow = dict(net.flow)
    trans = list(net.transitions)
    for k in range(count):
        t = f"spawn{k}"
        trans.append(t)
        if net.places and rng.random() < 0.5:
            flow[(t, rng.choice(net.places))] = 1
    return Net(net.name + ".spawn", net.places, trans, flow)
