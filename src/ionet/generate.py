"""Seeded random nets shaped directly by class, for tests and the CLI."""
from __future__ import annotations

import random

from .classify import classify
from .nets import Net, NetError

CLASSES = ("io", "imo", "bio", "bimo")
MAX_DRAWS = 1_000  # draws of one `random_net` call before it gives up


def random_net(cls="io", n_places=4, n_trans=4, wmax=1, seed=0, rng=None):
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
    for _ in range(MAX_DRAWS):
        net = _draw(cls, places, n_trans, wmax, seed, rng)
        # with wmax > 1, an observation of weight 2 or more makes an io or
        # bio shape read more than two tokens, so such draws often miss the
        # class; draw again from the same generator
        if getattr(classify(net), cls):
            return net
    raise NetError(f"no {cls} net with {n_trans} transitions and weights up to "
                   f"{wmax} drawn in {MAX_DRAWS} tries")


def _draw(cls, places, n_trans, wmax, seed, rng):
    """One net of transitions shaped for `cls`; it may still miss the class."""
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


def random_marking(net, max_tokens, rng):
    total = rng.randrange(max_tokens + 1)
    m = [0] * len(net.places)
    for _ in range(total if m else 0):
        m[rng.randrange(len(m))] += 1
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
        net = random_net(cls, n_places, n_trans, wmax=1 if ordinary else wmax,
                         seed=seed, rng=rng)
        if classify(net).finest() == row:
            return net
    raise RuntimeError(f"could not draw a net for row {row!r} with seed {seed}")

