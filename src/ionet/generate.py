"""Seeded random nets shaped directly by class, for tests and the CLI."""
from __future__ import annotations

import random

from .classify import NetClass
from .nets import MAX_WEIGHT, Net, NetError

CLASSES = ("io", "imo", "bio", "bimo")
ROWS = ("ord-io", "ord-imo", "io", "imo", "ord-bio", "ord-bimo", "bio", "bimo")
MAX_DRAWS = 1_000  # draws of one `random_net` call before it gives up
ROW_ATTEMPTS = 200  # class hits of one `random_net_in_row` call before it gives up


def random_net(cls="io", n_places=4, n_trans=4, wmax=1, seed=0, rng=None):
    """Draw a net whose every transition has the requested shape.

    Transitions are built as (source, observations, destinations) directly:
    one observation at most for the 'io'/'bio' shapes, one destination
    exactly for 'io'/'imo'.  With wmax == 1 the result is ordinary.  The
    same seed always produces the same net.
    """
    places = _places(cls, n_places, n_trans, wmax)
    if rng is None:
        rng = random.Random(seed)
    trans, flow, _ = _draw_in_class(cls, places, n_trans, wmax, rng)
    return Net(f"rand-{cls}-{seed}", places, trans, flow)


def _places(cls, n_places, n_trans, wmax):
    """The place names of a draw, once the arguments pass their checks."""
    if cls not in CLASSES:
        raise ValueError(f"unknown class {cls!r}; expected one of {CLASSES}")
    if not 1 <= wmax <= MAX_WEIGHT:
        raise NetError(f"weight bound {wmax} out of range 1..{MAX_WEIGHT}")
    if n_trans > 0 and n_places < 1:
        raise NetError(f"{n_trans} transitions need at least one place")
    return [f"p{i}" for i in range(1, n_places + 1)]


def _draw_in_class(cls, places, n_trans, wmax, rng):
    """(transitions, flow, class flags) of the first draw in `cls`."""
    for _ in range(MAX_DRAWS):
        trans, flow, nc = _draw(cls, places, n_trans, wmax, rng)
        # with wmax > 1, an observation of weight 2 or more makes an io or
        # bio shape read more than two tokens, so such draws often miss the
        # class; draw again from the same generator
        if getattr(nc, cls):
            return trans, flow, nc
    raise NetError(f"no {cls} net with {n_trans} transitions and weights up to "
                   f"{wmax} drawn in {MAX_DRAWS} tries")


def _draw(cls, places, n_trans, wmax, rng):
    """One draw of transitions shaped for `cls`: (transitions, flow, class
    flags); it may still miss the class.

    The flags are read off the shape, as `classify` would find them on the
    net, without building it.  Each transition takes its source token and
    puts back every observed token, so it moves at most one token (bimo);
    its pre-set holds 1 + |obs| tokens (bio iff |obs| <= 1) and it keeps the
    token count iff |dest| == 1 (imo, conservative).
    """
    flow = {}
    trans = []
    bio = imo = True
    one_obs = cls in ("io", "bio")
    one_dest = cls in ("io", "imo")
    for k in range(1, n_trans + 1):
        t = f"t{k}"
        trans.append(t)
        src = rng.choice(places)
        n_obs = rng.randrange(2) if one_obs else rng.randrange(3)
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
        n_dest = 1 if one_dest else rng.randrange(3)
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
        moved = sum(dest.values())
        if one_dest and moved != 1:
            obs = {}
            dest = {rng.choice(places): 1}
            moved = 1
        if moved != 1:
            imo = False
        if sum(obs.values()) > 1:
            bio = False
        # pre: the source token plus the observations; post: the
        # observations plus the destinations
        flow[(src, t)] = obs.get(src, 0) + 1
        for p, w in obs.items():
            if p != src:
                flow[(p, t)] = w
            flow[(t, p)] = w + dest.get(p, 0)
        for p, w in dest.items():
            if p not in obs:
                flow[(t, p)] = w
    max_weight = max(flow.values(), default=1)
    nc = NetClass(ordinary=max_weight == 1, conservative=imo, bimo=True, bio=bio,
                  imo=imo, io=bio and imo, max_weight=max_weight)
    return trans, flow, nc


def random_marking(net, max_tokens, rng):
    total = rng.randrange(max_tokens + 1)
    m = [0] * len(net.places)
    for _ in range(total if m else 0):
        m[rng.randrange(len(m))] += 1
    return tuple(m)


def random_net_in_row(row, n_places, n_trans, seed, wmax=3):
    """Net whose finest class matches a bounds-table row, by seeded retries.

    Rows: 'ord-io', 'ord-imo', 'io', 'imo', 'ord-bio', 'ord-bimo', 'bio',
    'bimo'.  Weighted rows guarantee max edge weight >= 2.  Each draw's row
    is read off its class flags; only the returned draw becomes a `Net`.
    """
    if row not in ROWS:
        raise ValueError(f"unknown row {row!r}; expected one of {ROWS}")
    ordinary = row.startswith("ord-")
    cls = row.removeprefix("ord-")
    wmax = 1 if ordinary else wmax
    places = _places(cls, n_places, n_trans, wmax)
    rng = random.Random(seed)
    for _ in range(ROW_ATTEMPTS):
        trans, flow, nc = _draw_in_class(cls, places, n_trans, wmax, rng)
        if nc.finest() == row:
            return Net(f"rand-{cls}-{seed}", places, trans, flow)
    raise NetError(f"no {row} net with {n_places} places and {n_trans} transitions "
                   f"drawn in {ROW_ATTEMPTS} tries")
