"""Seeded random nets shaped directly by class, for tests and the CLI."""
from __future__ import annotations

import random

from .classify import classify
from .nets import Net

CLASSES = ("io", "imo", "bio", "bimo")


def random_net(cls="io", n_places=4, n_trans=4, wmax=1, seed=0, rng=None,
               name=None):
    """Draw a net whose every transition has the requested shape.

    Transitions are built as (source, observations, destinations) directly:
    one observation at most for the 'io'/'bio' shapes, one destination
    exactly for 'io'/'imo'.  With wmax == 1 the result is ordinary.  The
    same seed always produces the same net.
    """
    if cls not in CLASSES:
        raise ValueError(f"unknown class {cls!r}; expected one of {CLASSES}")
    if rng is None:
        rng = random.Random(seed)
    places = [f"p{i}" for i in range(1, n_places + 1)]
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
    net = Net(name or f"rand-{cls}-{seed}", places, trans, flow)
    nc = classify(net)
    if not getattr(nc, cls):
        # extremely rare with the shapes above; regenerate deterministically
        return random_net(cls, n_places, n_trans, wmax, seed=None, rng=rng, name=name)
    return net


def random_marking(net, max_tokens, rng):
    total = rng.randrange(max_tokens + 1)
    m = [0] * len(net.places)
    for _ in range(total):
        m[rng.randrange(len(net.places))] += 1 if net.places else 0
    return tuple(m)


def random_net_in_row(row, n_places, n_trans, seed, wmax=3):
    """Net whose finest class matches a bounds-table row, by seeded retries.

    Rows: 'ord-io', 'ord-imo', 'io', 'imo', 'ord-bio', 'ord-bimo', 'bio',
    'bimo'.  Weighted rows guarantee max edge weight >= 2.
    """
    rng = random.Random(seed)
    ordinary = row.startswith("ord-")
    cls = row[4:] if ordinary else row
    for attempt in range(200):
        w = 1 if ordinary else wmax
        net = random_net(cls, n_places, n_trans, wmax=w, rng=rng)
        nc = classify(net)
        if ordinary != nc.ordinary:
            continue
        if not ordinary and nc.max_weight < 2:
            continue
        if cls == "io" and not nc.io:
            continue
        if cls == "imo" and not (nc.imo and not nc.io):
            continue
        if cls == "bio" and not (nc.bio and not nc.imo):
            continue
        if cls == "bimo" and not (nc.bimo and not nc.bio and not nc.imo):
            continue
        return net
    raise RuntimeError(f"could not draw a net for row {row!r} with seed {seed}")

