"""Net class detection and canonical transition presentations.

A transition whose pre-mset minus post-mset has at most one element moves a
single "source" token while observing the rest; the presentation splits its
flow into source place, observation multiset and destination multiset.
Transitions with an empty pre-mset are handled through a reserved dummy
place that is read and written with weight 1.
"""
from __future__ import annotations

from dataclasses import dataclass

from .nets import Net, NetError, msize, msub, post_mset, pre_mset

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
    conservative = True
    bimo = bio = imo = True
    # the `is_*_msets` tests on the arc pairs: with the dummy loop an empty
    # pre-set has size 1 and the post-set one more token, so |pre| <= 2 and
    # |pre| == |post| read the same with or without it
    for pre, post in zip(net._pre, net._post):
        sp = sum(w for _, w in pre)
        same = sp == sum(w for _, w in post)
        if not same:
            conservative = False
        back = dict(post)
        if sum(max(w - back.get(i, 0), 0) for i, w in pre) > 1:
            bimo = bio = imo = False
            continue
        if sp > 2:
            bio = False
        if not same:
            imo = False
    result = NetClass(
        ordinary=ordinary,
        conservative=conservative,
        bimo=bimo,
        bio=bio,
        imo=imo and bimo,
        io=bio and imo and bimo,
        max_weight=net.max_weight,
    )
    net._analysis["class"] = result
    return result


def presentation(net, t):
    """Canonical (source, observations, destinations) split of a transition.

    When no place loses a token the source is the lowest-index marked
    pre-place, which keeps derived constructions reproducible.
    """
    pre, post = pre_mset(net, t), post_mset(net, t)
    names = net.places
    if msize(pre) == 0:
        # dummy loop: source is the dummy, post gains the returned dummy token
        pre = pre + (1,)
        post = post + (1,)
        names = names + (DUMMY_PLACE,)
    diff = msub(pre, post)
    excess = msize(diff)
    if excess >= 2:
        raise NotBimo(f"transition {t!r} removes more than one token net")
    if excess == 1:
        src = next(i for i, d in enumerate(diff) if d)
    else:
        src = next(i for i, w in enumerate(pre) if w)
    obs = list(pre)
    obs[src] -= 1
    dest = [q - o for q, o in zip(post, obs)]
    if any(d < 0 for d in dest):  # cannot happen for BIMO transitions
        raise NotBimo(f"transition {t!r} has no valid presentation")

    def expand(vec):
        out = []
        for i, w in enumerate(vec):
            out.extend([names[i]] * w)
        return tuple(out)

    return TransitionPresentation(
        transition=t,
        source=names[src],
        observations=expand(obs),
        destinations=expand(dest),
    )


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
