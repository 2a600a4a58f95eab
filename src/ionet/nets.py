"""Core net model: markings as count vectors, firing semantics, textual format.

A net's places, transitions and flow are fixed at construction; markings
are plain tuples of non-negative ints indexed by the net's place order.  The
analyses fill per-net caches in `net._analysis` as they run, without locks,
so a net is not safe to share across threads that analyse it.  The caches:
"class", "move_table", "place_masks" and "relaxed_arcs" (fixed size, the
last built by `structure`); and "witness_index", whose `witness_at` and
abstract probe memos, and per-siphon records with their `dead_set` memos
and clean lists, grow without bound as markings are decided.  No cache points
back at the net, so reference counting frees them with it.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import compress, count
from typing import NamedTuple

MAX_WEIGHT = 2**31 - 1

# What the text format can hold: a place or transition identifier is one
# whitespace-free token without '#' (comment) or ':' (weight separator),
# other than the keywords "pre"/"post" and not starting like a token count;
# a net name only has to be one token.
_IDENTIFIER = re.compile(r"(?!(?:pre|post)\Z)(?!tokens=)[^\s#:]+")
_NET_NAME = re.compile(r"[^\s#]+")


class NetError(Exception):
    """Base class for structural and semantic errors."""


class BudgetExceeded(NetError):
    """A bounded search ran out of budget after `explored` states.

    Every bounded search raises it, except `is_live_exact`, which returns it
    as the third value of its answer (True, False or BudgetExceeded).
    """

    def __init__(self, explored=0):
        self.explored = explored
        super().__init__(f"exploration budget exceeded after {explored} states")


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

    The constructor's `flow` maps (place, transition) and (transition, place)
    pairs to weights >= 1; absent pairs and weight 0 mean no arc, but a
    weight-0 pair must still name declared nodes.  Place and
    transition order is fixed at construction and determines marking indices
    and all tie-breaks.  Each transition's arcs are stored once, as `_pre`
    and `_post`: its (place index, weight) pairs in ascending place order.
    `flow` is a view of them, built on demand.
    """

    __slots__ = (
        "name", "places", "transitions", "place_index", "trans_index",
        "_pre", "_post", "max_weight", "_analysis",
    )

    def __init__(self, name, places, transitions, flow):
        places = tuple(places)
        transitions = tuple(transitions)
        if not isinstance(name, str) or not _NET_NAME.fullmatch(name):
            raise NetError(f"net name {name!r} is not a single token without '#'")
        for ident in places + transitions:
            if not isinstance(ident, str) or not _IDENTIFIER.fullmatch(ident):
                raise NetError(f"identifier {ident!r} cannot be written in the text format")
        place_index = {p: i for i, p in enumerate(places)}
        if len(place_index) != len(places):
            raise NetError("duplicate place identifier")
        trans_index = {t: i for i, t in enumerate(transitions)}
        if len(trans_index) != len(transitions):
            raise NetError("duplicate transition identifier")
        if not place_index.keys().isdisjoint(trans_index):
            raise NetError("place and transition identifiers must be disjoint")
        self.name = name
        self.places = places
        self.transitions = transitions
        self.place_index = place_index
        self.trans_index = trans_index
        pre = [[] for _ in transitions]
        post = [[] for _ in transitions]
        max_weight = 1
        for (a, b), w in flow.items():
            if type(w) is not int and (not isinstance(w, int) or isinstance(w, bool)):
                raise NetError(f"weight for ({a}, {b}) must be an integer")
            if w < 0 or w > MAX_WEIGHT:
                raise NetError(f"weight {w} for ({a}, {b}) out of range")
            i = place_index.get(a)
            if i is not None:
                ti, arcs = trans_index.get(b), pre
            else:
                ti, i, arcs = trans_index.get(a), place_index.get(b), post
            if i is None or ti is None:
                raise UnknownNode(f"flow pair ({a!r}, {b!r}) does not match declared nodes")
            if w:
                arcs[ti].append((i, w))
                if w > max_weight:
                    max_weight = w
        self._pre = tuple(tuple(sorted(arcs)) for arcs in pre)
        self._post = tuple(tuple(sorted(arcs)) for arcs in post)
        self.max_weight = max_weight
        self._analysis = {}  # lazily filled caches keyed by analysis name

    @property
    def flow(self):
        """The weighted flow as a new dict, in transition order: each
        transition's (place, transition) arcs, then its (transition, place)
        arcs."""
        places = self.places
        out = {}
        for t, pre, post in zip(self.transitions, self._pre, self._post):
            for i, w in pre:
                out[(places[i], t)] = w
            for i, w in post:
                out[(t, places[i])] = w
        return out

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


def _dense(net, arcs):
    vec = [0] * len(net.places)
    for i, w in arcs:
        vec[i] = w
    return tuple(vec)


def pre_mset(net, t):
    """The pre-set of `t` as a count vector over the places."""
    return _dense(net, net._pre[_tindex(net, t)])


def post_mset(net, t):
    return _dense(net, net._post[_tindex(net, t)])


def enabled(net, marking, t):
    net.check_marking(marking)
    return all(marking[i] >= w for i, w in net._pre[_tindex(net, t)])


def fire(net, marking, t):
    net.check_marking(marking)
    return _fire(net, marking, _tindex(net, t))


def _fire(net, marking, ti, step=None):
    for i, w in net._pre[ti]:
        if marking[i] < w:
            raise NotEnabled(net.transitions[ti], marking, step)
    m = list(marking)
    for i, d in _move_table(net).deltas[ti]:
        m[i] += d
    return tuple(m)


class MoveTable(NamedTuple):
    """What the forward kernels read of a net; transition sets are bitmasks."""
    deltas: tuple  # per transition, ((place, post - pre), ...) where nonzero
    first: tuple   # per place, the transitions whose first pre-place it is
    free: int      # the transitions without pre-places
    pre: tuple     # the net's `_pre` pairs
    last: tuple    # per place, the transitions whose last pre-place it is
    rest: tuple    # per transition, the pre arcs left to test: middle, or weight > 1


def _move_table(net):
    """The net's `MoveTable`, built on first use and cached on the net."""
    table = net._analysis.get("move_table")
    if table is None:
        first = [0] * len(net.places)
        last = [0] * len(net.places)
        free = 0
        deltas = []
        rest = []
        for ti, (pre, post) in enumerate(zip(net._pre, net._post)):
            bit = 1 << ti
            if pre:
                first[pre[0][0]] |= bit
                last[pre[-1][0]] |= bit
            else:
                free |= bit
            # one merge of the two arc tuples, both in ascending place order
            end = len(pre) - 1
            n = len(post)
            todo = []
            delta = []
            j = 0
            for k, (i, w) in enumerate(pre):
                if w > 1 or 0 < k < end:
                    todo.append((i, w))
                while j < n and post[j][0] < i:
                    delta.append(post[j])
                    j += 1
                if j < n and post[j][0] == i:
                    if post[j][1] != w:
                        delta.append((i, post[j][1] - w))
                    j += 1
                else:
                    delta.append((i, -w))
            rest.append(tuple(todo))
            deltas.append(tuple(delta) + post[j:])
        table = MoveTable(tuple(deltas), tuple(first), free, net._pre, tuple(last),
                          tuple(rest))
        net._analysis["move_table"] = table
    return table


def _walk(table, marked, tokens):
    """(transition index, sparse delta) of each transition enabled at a
    marking, in declaration order, given its marked places (`marked`, any
    order) and `tokens(i)`, its count on place i; a tuple marking m passes
    `compress(count(), m), m.__getitem__`.  Every forward kernel runs this
    one walk on a `MoveTable` and applies the deltas in its own arithmetic.
    Candidates: the transitions whose first and last pre-places are both
    marked, and those without pre-places; only their `rest` arcs are tested,
    so one reading at most two places with weight 1 is tested on no arc at
    all."""
    deltas, first, todo, _, last, rest = table
    a = b = 0
    for i in marked:
        a |= first[i]
        b |= last[i]
    todo |= a & b
    out = []
    while todo:
        low = todo & -todo
        todo ^= low
        ti = low.bit_length() - 1
        for i, w in rest[ti]:
            if tokens(i) < w:
                break
        else:
            out.append((ti, deltas[ti]))
    return out


def successors(net, marking):
    """(transition index, successor marking) for every transition enabled at
    the marking, in declaration order."""
    out = []
    for ti, delta in _walk(_move_table(net), compress(count(), marking), marking.__getitem__):
        m = list(marking)
        for i, d in delta:
            m[i] += d
        out.append((ti, tuple(m)))
    return out


def _breadth_first(start, step):
    """Yield (state, parents) in breadth-first order from `start`, where
    `step(state)` lists (label, successor) pairs and `parents` maps each
    state found so far to (parent, label), and `start` to None."""
    parents = {start: None}
    queue = [start]
    for state in queue:  # new states join the end
        yield state, parents
        for label, nxt in step(state):
            if nxt not in parents:
                parents[nxt] = (state, label)
                queue.append(nxt)


def _path(parents, state):
    """The labels from the root to `state` in `parents`, a dict or list
    whose entries are (parent, label), or None at the root."""
    out = []
    while parents[state] is not None:
        state, label = parents[state]
        out.append(label)
    return tuple(reversed(out))


def place_masks(net):
    """(pre-place bitmask, post-place bitmask) per transition, bit i standing
    for place i; built on first use and cached on the net."""
    masks = net._analysis.get("place_masks")
    if masks is None:
        out = []
        for pre, post in zip(net._pre, net._post):
            a = b = 0
            for i, _ in pre:
                a |= 1 << i
            for i, _ in post:
                b |= 1 << i
            out.append((a, b))
        masks = net._analysis["place_masks"] = tuple(out)
    return masks


def replay(net, start, sequence):
    """Fire a transition sequence left to right, keeping every marking."""
    net.check_marking(start)
    steps = []
    m = tuple(start)
    for k, t in enumerate(sequence):
        m = _fire(net, m, _tindex(net, t), k)
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
    name = None
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
            if name is not None:
                raise ParseError("repeated net line", line_no)
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
                    if pid in tokens:
                        raise ParseError(f"repeated tokens= for {pid!r}", line_no)
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

    net = Net(name or "net", places, trans, flow)
    if tokens:
        marking = tuple(tokens.get(p, 0) for p in places)
    else:
        marking = None
    return net, marking


def _entry(place, w):
    return place if w == 1 else f"{place}:{w}"


def serialize_net(net, marking=None):
    """Serialize deterministically; parse(serialize(n, m)) == (n, m), except
    that the empty marking of a net without places reads back as None."""
    if marking is not None:
        net.check_marking(marking)
    out = [f"net {net.name}"]
    # an all-zero marking keeps one tokens=0 entry, so that it reads back
    zero = marking is not None and not any(marking)
    for i, p in enumerate(net.places):
        if marking is not None and (marking[i] > 0 or zero and i == 0):
            out.append(f"place {p} tokens={marking[i]}")
        else:
            out.append(f"place {p}")
    for t, pre, post in zip(net.transitions, net._pre, net._post):
        line = [f"trans {t}"]
        if pre:
            line.append("pre " + " ".join(_entry(net.places[i], w) for i, w in pre))
        if post:
            line.append("post " + " ".join(_entry(net.places[i], w) for i, w in post))
        out.append(" ".join(line))
    return "\n".join(out) + "\n"
