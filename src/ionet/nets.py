"""Core net model: markings as count vectors, firing semantics, textual format.

A net's places, transitions and flow are fixed at construction; markings
are plain tuples of non-negative ints indexed by the net's place order.  The
analyses fill per-net caches in `net._analysis` as they run, without locks,
so a net is not safe to share across threads that analyse it.
"""
from __future__ import annotations

from dataclasses import dataclass

MAX_WEIGHT = 2**31 - 1


class NetError(Exception):
    """Base class for structural and semantic errors."""


class ParseError(NetError):
    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class UnknownNode(NetError):
    pass


class NotEnabled(NetError):
    def __init__(self, transition, marking, step=None):
        self.transition = transition
        self.marking = marking
        self.step = step
        at = "" if step is None else f" at step {step}"
        super().__init__(f"transition {transition!r} not enabled{at} in {tuple(marking)}")


# ---------------------------------------------------------------------------
# Multiset algebra on count tuples.

def madd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def msub(a, b):
    """Truncated difference: componentwise max(a-b, 0)."""
    return tuple(x - y if x > y else 0 for x, y in zip(a, b))


def mleq(a, b):
    return all(x <= y for x, y in zip(a, b))


def mmin(a, b):
    return tuple(x if x < y else y for x, y in zip(a, b))


def msize(a):
    return sum(a)


def carrier(marking):
    """Indices of marked places."""
    return frozenset(i for i, x in enumerate(marking) if x >= 1)


class Net:
    """Places, transitions and a weighted flow function.

    `flow` maps (place, transition) and (transition, place) pairs to weights
    >= 1; absent pairs mean weight 0.  Place and transition order is fixed at
    construction and determines marking indices and all tie-breaks.
    """

    __slots__ = (
        "name", "places", "transitions", "flow", "place_index", "trans_index",
        "_pre", "_post", "_delta", "_pre_support", "max_weight", "_analysis",
    )

    def __init__(self, name, places, transitions, flow):
        places = tuple(places)
        transitions = tuple(transitions)
        if len(set(places)) != len(places):
            raise NetError("duplicate place identifier")
        if len(set(transitions)) != len(transitions):
            raise NetError("duplicate transition identifier")
        if set(places) & set(transitions):
            raise NetError("place and transition identifiers must be disjoint")
        self.name = name
        self.places = places
        self.transitions = transitions
        self.place_index = {p: i for i, p in enumerate(places)}
        self.trans_index = {t: i for i, t in enumerate(transitions)}
        clean = {}
        for (a, b), w in flow.items():
            if not isinstance(w, int) or isinstance(w, bool):
                raise NetError(f"weight for ({a}, {b}) must be an integer")
            if w == 0:
                continue
            if w < 1 or w > MAX_WEIGHT:
                raise NetError(f"weight {w} for ({a}, {b}) out of range")
            if a in self.place_index and b in self.trans_index:
                pass
            elif a in self.trans_index and b in self.place_index:
                pass
            else:
                raise UnknownNode(f"flow pair ({a!r}, {b!r}) does not match declared nodes")
            clean[(a, b)] = w
        self.flow = clean
        pre, post, delta, support = [], [], [], []
        for t in transitions:
            pv = tuple(clean.get((p, t), 0) for p in places)
            qv = tuple(clean.get((t, p), 0) for p in places)
            pre.append(pv)
            post.append(qv)
            delta.append(tuple(q - p for p, q in zip(pv, qv)))
            support.append(tuple((i, w) for i, w in enumerate(pv) if w))
        self._pre = tuple(pre)
        self._post = tuple(post)
        self._delta = tuple(delta)
        self._pre_support = tuple(support)
        self.max_weight = max(clean.values(), default=1)
        self._analysis = {}  # lazily filled caches keyed by analysis name

    def __repr__(self):
        return f"Net({self.name!r}, |P|={len(self.places)}, |T|={len(self.transitions)})"

    def check_marking(self, marking):
        if len(marking) != len(self.places):
            raise NetError(
                f"marking arity {len(marking)} does not match |P|={len(self.places)}")
        if any(x < 0 for x in marking):
            raise NetError("marking has a negative count")

    def carrier_names(self, marking):
        return tuple(p for p, x in zip(self.places, marking) if x >= 1)


@dataclass(frozen=True)
class Execution:
    """A start marking plus the fired transitions with their result markings."""
    start: tuple
    steps: tuple  # of (transition, marking) pairs

    @property
    def final(self):
        return self.steps[-1][1] if self.steps else self.start

    @property
    def sequence(self):
        return tuple(t for t, _ in self.steps)


def _tindex(net, t):
    try:
        return net.trans_index[t]
    except KeyError:
        raise UnknownNode(f"unknown transition {t!r}") from None


def pre_mset(net, t):
    return net._pre[_tindex(net, t)]


def post_mset(net, t):
    return net._post[_tindex(net, t)]


def enabled(net, marking, t):
    net.check_marking(marking)
    return all(marking[i] >= w for i, w in net._pre_support[_tindex(net, t)])


def fire(net, marking, t):
    net.check_marking(marking)
    ti = _tindex(net, t)
    for i, w in net._pre_support[ti]:
        if marking[i] < w:
            raise NotEnabled(t, marking)
    return madd(marking, net._delta[ti])


def successors(net, marking):
    """(transition index, successor marking) for every transition enabled at
    the marking, in declaration order."""
    out = []
    for ti, support in enumerate(net._pre_support):
        for i, w in support:
            if marking[i] < w:
                break
        else:
            out.append((ti, tuple(a + d for a, d in zip(marking, net._delta[ti]))))
    return out


def replay(net, start, sequence):
    """Fire a transition sequence left to right, keeping every marking."""
    net.check_marking(start)
    steps = []
    m = tuple(start)
    for k, t in enumerate(sequence):
        ti = _tindex(net, t)
        for i, w in net._pre_support[ti]:
            if m[i] < w:
                raise NotEnabled(t, m, step=k)
        m = madd(m, net._delta[ti])
        steps.append((t, m))
    return Execution(start=tuple(start), steps=tuple(steps))


# ---------------------------------------------------------------------------
# Textual format.
#
#   net <name>
#   place <id> [tokens=<n>]
#   trans <id> pre <p>[:<w>] ... post <p>[:<w>] ...
#
# '#' starts a comment; weights default to 1; declaration order fixes the
# index order.  Repeated places inside one pre/post list accumulate.

def _split_weight(token, line_no):
    if ":" in token:
        name, _, wtxt = token.rpartition(":")
        if not name:
            raise ParseError(f"bad weighted entry {token!r}", line_no)
        try:
            w = int(wtxt)
        except ValueError:
            raise ParseError(f"bad weight in {token!r}", line_no) from None
    else:
        name, w = token, 1
    if w < 1:
        raise ParseError(f"weight must be >= 1 in {token!r}", line_no)
    if w > MAX_WEIGHT:
        raise ParseError(f"weight too large in {token!r}", line_no)
    return name, w


def parse_net(text):
    """Parse the textual format; returns (net, marking or None)."""
    name = "net"
    places = []
    tokens = {}
    trans = []
    seen = set()
    trans_lines = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "net":
            if len(parts) != 2:
                raise ParseError("expected: net <name>", line_no)
            name = parts[1]
        elif kind == "place":
            if len(parts) < 2:
                raise ParseError("expected: place <id> [tokens=<n>]", line_no)
            pid = parts[1]
            if pid in seen:
                raise ParseError(f"duplicate identifier {pid!r}", line_no)
            seen.add(pid)
            places.append(pid)
            for extra in parts[2:]:
                if extra.startswith("tokens="):
                    try:
                        n = int(extra[len("tokens="):])
                    except ValueError:
                        raise ParseError(f"bad token count {extra!r}", line_no) from None
                    if n < 0:
                        raise ParseError("token count must be >= 0", line_no)
                    tokens[pid] = n
                else:
                    raise ParseError(f"unexpected token {extra!r}", line_no)
        elif kind == "trans":
            if len(parts) < 2:
                raise ParseError("expected: trans <id> ...", line_no)
            tid = parts[1]
            if tid in seen:
                raise ParseError(f"duplicate identifier {tid!r}", line_no)
            seen.add(tid)
            trans.append(tid)
            trans_lines.append((line_no, tid, parts[2:]))
        else:
            raise ParseError(f"unknown directive {kind!r}", line_no)

    place_set = set(places)
    flow = {}
    for line_no, tid, rest in trans_lines:
        side = None
        for token in rest:
            if token in ("pre", "post"):
                side = token
                continue
            if side is None:
                raise ParseError("expected 'pre' or 'post' before entries", line_no)
            pid, w = _split_weight(token, line_no)
            if pid not in place_set:
                raise ParseError(f"reference to undeclared place {pid!r}", line_no)
            key = (pid, tid) if side == "pre" else (tid, pid)
            total = flow.get(key, 0) + w
            if total > MAX_WEIGHT:
                raise ParseError(f"accumulated weight too large for {pid!r}", line_no)
            flow[key] = total

    net = Net(name, places, trans, flow)
    if tokens:
        marking = tuple(tokens.get(p, 0) for p in places)
    else:
        marking = None
    return net, marking


def _entry(place, w):
    return place if w == 1 else f"{place}:{w}"


def serialize_net(net, marking=None):
    """Serialize deterministically; parse(serialize(n, m)) == (n, m)."""
    if marking is not None:
        net.check_marking(marking)
    out = [f"net {net.name}"]
    for i, p in enumerate(net.places):
        if marking is not None and marking[i] > 0:
            out.append(f"place {p} tokens={marking[i]}")
        else:
            out.append(f"place {p}")
    for t in net.transitions:
        ti = net.trans_index[t]
        line = [f"trans {t}"]
        pre = [(i, w) for i, w in enumerate(net._pre[ti]) if w]
        post = [(i, w) for i, w in enumerate(net._post[ti]) if w]
        if pre:
            line.append("pre " + " ".join(_entry(net.places[i], w) for i, w in pre))
        if post:
            line.append("post " + " ".join(_entry(net.places[i], w) for i, w in post))
        out.append(" ".join(line))
    return "\n".join(out) + "\n"
