"""Rewriting weighted nets into ordinary ones via rotation rings.

Each place with maximum incident weight k becomes a ring of k places whose
tokens rotate freely; an edge of weight c turns into single edges touching
the first c ring places.  Tokens may have to rotate before a transition
image fires, but liveness is preserved: markings of the two nets are related
when every ring carries the original place's token count.
"""
from __future__ import annotations

from dataclasses import dataclass

from .classify import classify, NotBimo
from .nets import Net, NetError
from .slp import is_nonlive


@dataclass(frozen=True)
class OrdinarizeMap:
    source_places: tuple
    rings: dict          # original place -> tuple of ring place names
    rotations: dict      # original place -> tuple of rotation transition names
    ring_size: dict      # original place -> ring length


def ordinarize(net):
    """Return the ordinary net plus the ring bookkeeping.

    Places of weight at most one, isolated ones included, get rings of size
    one without a rotation: it would move nothing, and as a transition of
    its own it would be dead wherever its place stays unmarked.
    """
    if not classify(net).bimo:
        raise NotBimo("ordinarization is defined on the branching-observation family")
    ring_size = dict.fromkeys(net.places, 1)  # each place's largest arc weight
    for arcs in net._pre + net._post:
        for i, w in arcs:
            p = net.places[i]
            ring_size[p] = max(ring_size[p], w)
    rings = {}
    rotations = {}
    places = []
    trans = []
    flow = {}
    taken = set(net.transitions)
    for p in net.places:
        k = ring_size[p]
        names = tuple(f"{p}.{j}" for j in range(1, k + 1))
        for q in names:
            if q in taken:
                raise NetError(f"generated place name {q!r} collides")
        places.extend(names)
        rings[p] = names
        rots = []
        if k > 1:
            for j in range(1, k + 1):
                rot = f"{p}.rot{j}"
                if rot in taken:
                    raise NetError(f"generated transition name {rot!r} collides")
                rots.append(rot)
                flow[(names[j - 1], rot)] = 1
                flow[(rot, names[j % k])] = 1
        rotations[p] = tuple(rots)
        trans.extend(rots)
    for t, pre, post in zip(net.transitions, net._pre, net._post):
        trans.append(t)
        for i, c in pre:
            for j in range(c):
                flow[(rings[net.places[i]][j], t)] = 1
        for i, c in post:
            for j in range(c):
                flow[(t, rings[net.places[i]][j])] = 1
    new = Net(net.name + ".ord", places, trans, flow)
    return new, OrdinarizeMap(
        source_places=net.places, rings=rings, rotations=rotations, ring_size=ring_size)


def embed_marking(omap, marking):
    """Canonical embedding: all tokens of a place sit on its first ring place."""
    if len(marking) != len(omap.source_places):
        raise NetError("marking arity does not match the source net")
    out = []
    for p, x in zip(omap.source_places, marking):
        out.append(x)
        out.extend([0] * (omap.ring_size[p] - 1))
    return tuple(out)


def project_marking(omap, marking):
    """Sum each ring back onto its original place."""
    total = sum(omap.ring_size[p] for p in omap.source_places)
    if len(marking) != total:
        raise NetError("marking arity does not match the ring net")
    out = []
    pos = 0
    for p in omap.source_places:
        k = omap.ring_size[p]
        out.append(sum(marking[pos:pos + k]))
        pos += k
    return tuple(out)


@dataclass(frozen=True)
class TransferReport:
    original_status: str
    ring_status: str

    @property
    def agree(self):
        return self.original_status == self.ring_status

    def to_dict(self):
        return {"original": self.original_status, "ring": self.ring_status,
                "agree": self.agree}


def check_liveness_transfer(net, marking, node_budget=500_000):
    """Compare the liveness verdicts of (net, marking) and its ring image."""
    ordn, omap = ordinarize(net)
    a = is_nonlive(net, marking, node_budget=node_budget)
    b = is_nonlive(ordn, embed_marking(omap, marking), node_budget=node_budget)
    return TransferReport(original_status=a.status, ring_status=b.status)
