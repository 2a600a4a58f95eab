"""Net class detection and canonical transition presentations.

A transition whose pre-mset minus post-mset has at most one element moves a
single "source" token while observing the rest; the presentation splits its
flow into source place, observation multiset and destination multiset.
`_split` derives it from the stored arc pairs.  Transitions with an empty
pre-mset are handled through a reserved dummy place that is read and written
with weight 1.
"""
from __future__ import annotations

from dataclasses import dataclass

from .nets import Net, NetError, _tindex, msize, msub

DUMMY_PLACE = "__dummy"


class NotBimo(NetError):
    pass


@dataclass(frozen=True)
class TransitionPresentation:
    transition: str
    source: str
    observations: tuple  # place names with multiplicity, ordered by index
    destinations: tuple


@dataclass(frozen=True)
class NetClass:
    ordinary: bool
    conservative: bool
    bimo: bool
    bio: bool
    imo: bool
    io: bool
    max_weight: int

    def finest(self):
        for flag, label in (
            (self.io, "io"), (self.imo, "imo"), (self.bio, "bio"), (self.bimo, "bimo"),
        ):
            if flag:
                return ("ord-" + label) if self.ordinary else label
        return "general"


def _aug_sizes(pre, post):
    """(|pre|, |post|) after adding the dummy loop when pre is empty."""
    sp, sq = msize(pre), msize(post)
    if sp == 0:
        return 1, sq + 1
    return sp, sq


def is_bimo_msets(pre, post):
    return msize(msub(pre, post)) <= 1


def is_bio_msets(pre, post):
    sp, _ = _aug_sizes(pre, post)
    return is_bimo_msets(pre, post) and sp <= 2


def is_imo_msets(pre, post):
    """True iff the pair admits a one-destination presentation.

    Covers the empty/empty case (a no-op on the restricted places), which is
    treated as a move of the dummy token onto itself.
    """
    sp, sq = _aug_sizes(pre, post)
    return is_bimo_msets(pre, post) and sp == sq


def classify(net):
    """Compute all class flags; vacuously true on transition-free nets."""
    cached = net._analysis.get("class")
    if cached is not None:
        return cached
    ordinary = net.max_weight == 1
    conservative = bimo = bio = True
    # the `is_*_msets` tests on the arc pairs: with the dummy loop an empty
    # pre-set has size 1 and the post-set one more token, so |pre| <= 2 and
    # |pre| == |post| read the same with or without it; a bimo transition
    # moves one token exactly when it keeps the token count, and only one
    # that reads two tokens or more can lose two
    for pre, post in zip(net._pre, net._post):
        sp = sq = 0
        for _, w in pre:
            sp += w
        for _, w in post:
            sq += w
        if sp != sq:
            conservative = False
        if sp > 2:
            bio = False
        if sp > 1 and bimo:
            lost = j = 0
            for i, w in pre:  # merge the two arc tuples, both in place order
                while j < len(post) and post[j][0] < i:
                    j += 1
                if j < len(post) and post[j][0] == i:
                    w -= post[j][1]
                if w > 0:
                    lost += w
            if lost > 1:
                bimo = False
    bio = bio and bimo
    imo = bimo and conservative
    result = NetClass(
        ordinary=ordinary,
        conservative=conservative,
        bimo=bimo,
        bio=bio,
        imo=imo,
        io=bio and imo,
        max_weight=net.max_weight,
    )
    net._analysis["class"] = result
    return result


def _split(pre, post):
    """A transition's presentation, from its arc pairs: (source, observations,
    destinations), a place index and two (place index, weight) tuples in place
    order, or None when more than one token leaves.  The source is the place
    that loses a token, else the lowest-index pre-place, which keeps derived
    constructions reproducible, and None for an empty pre-set.  The
    observations are the pre-set less one source token, the destinations the
    post-set less the observations."""
    back = dict(post)
    src = None
    for i, w in pre:
        lost = w - back.get(i, 0)
        if lost > 0:
            if lost > 1 or src is not None:
                return None
            src = i
    if src is None and pre:
        src = pre[0][0]
    obs = tuple((i, w - 1 if i == src else w) for i, w in pre if i != src or w > 1)
    seen = dict(obs)
    dests = tuple((i, w - seen.get(i, 0)) for i, w in post if w > seen.get(i, 0))
    return src, obs, dests


def presentation(net, t):
    """Canonical split of a transition by place names, read off `_split`;
    an empty pre-set moves the dummy place's token onto itself."""
    ti = _tindex(net, t)
    split = _split(net._pre[ti], net._post[ti])
    if split is None:
        raise NotBimo(f"transition {t!r} removes more than one token net")
    src, obs, dests = split

    def expand(pairs):
        return tuple(net.places[i] for i, w in pairs for _ in range(w))

    if src is None:
        return TransitionPresentation(t, DUMMY_PLACE, (), expand(dests) + (DUMMY_PLACE,))
    return TransitionPresentation(t, net.places[src], expand(obs), expand(dests))


def dummy_augment(net):
    """Add the reserved dummy place looping on every empty-pre transition.

    Returns the input unchanged when no transition needs it.  Markings of the
    original net lift by appending one token for the dummy.
    """
    needy = [t for t, pre in zip(net.transitions, net._pre) if not pre]
    if not needy:
        return net
    if DUMMY_PLACE in net.place_index or DUMMY_PLACE in net.trans_index:
        raise NetError(f"identifier {DUMMY_PLACE!r} is reserved")
    flow = dict(net.flow)
    for t in needy:
        flow[(DUMMY_PLACE, t)] = 1
        flow[(t, DUMMY_PLACE)] = 1
    return Net(net.name, net.places + (DUMMY_PLACE,), net.transitions, flow)


def augment_marking(marking):
    """Lift a marking of a net onto its dummy-augmented version."""
    return tuple(marking) + (1,)
