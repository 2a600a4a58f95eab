"""Bounded-tape machines and their encodings as observation nets.

A machine over tape alphabet {a, b} with one deterministic rule per
(state, symbol) is compiled in four stages.  Places: head places p_q_i and
cell places p_i_x for every state q, tape position i and symbol x; the
initial marking puts one token on p_q0_1, on p_i_w(i) for each letter of the
word w, and from Ndprime on also on p_run.  For the k-th rule
(q, x) -> (q', x', m) at a position i with i + m on the tape:

  N        t_ins{k}_{i}:        p_q_i p_i_x     -> p_q'_{i+m} p_i_x'
  Nprime   the step split around a place ins = p_ins{k}_{i}, so that each
           transition moves a single token under one observation:
           t_ins{k}_{i}_begin:  p_q_i p_i_x     -> p_i_x ins
           t_ins{k}_{i}_move:   p_i_x ins       -> ins p_i_x'  (only if x != x'
                                or idle moves are requested)
           t_ins{k}_{i}_end:    ins p_i_x'      -> p_i_x' p_q'_{i+m}
  Ndprime  Nprime plus a run/free control pair:
           t_A:                 p_run p_acc_1   -> p_acc_1 p_free
           t_A2:                p_free p_acc_1  -> p_acc_1 p_run
           and reshuffles that install any configuration while free:
           t_{q}_{i}_{r}_{j}:   p_q_i p_free    -> p_free p_r_j
           t_c{i}_{x}_{y}:      p_i_x p_free    -> p_free p_i_y   (y != x)
  Nbar     Ndprime with t_A2 replaced by a chain that re-installs the initial
           configuration cell by cell (p_init0 is p_free), with aborts:
           t_init{i}:           p_init{i-1} p_i_w(i) -> p_i_w(i) p_init{i}
           t_rev{i}:            p_init{i}       -> p_free
           t_run:               p_init{n} p_q0_1 -> p_q0_1 p_run

The marked net of stage Nbar is live exactly when the machine accepts the
word, which also ties acceptance to structural liveness.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .nets import Net, NetError, ParseError
from .liveness import BudgetExceeded, is_live_exact
from .slp import decide_slp

ALPHABET = ("a", "b")
MOVES = {"L": -1, "R": 1}


class ConventionViolated(NetError):
    pass


class NonDeterministic(NetError):
    pass


@dataclass(frozen=True)
class LbaSpec:
    states: tuple
    initial: str
    accept: str
    reject: str
    rules: tuple  # (state, symbol, new_state, new_symbol, move) with move in {-1, +1}

    def validate(self):
        names = set(self.states)
        if len(names) != len(self.states):
            raise ParseError("duplicate state name")
        for q in (self.initial, self.accept, self.reject):
            if q not in names:
                raise ParseError(f"undeclared state {q!r}")
        if self.accept == self.reject:
            raise ParseError("accept and reject states must differ")
        seen = set()
        for q, x, q2, x2, m in self.rules:
            if q in (self.accept, self.reject):
                raise ParseError(f"rule from halting state {q!r}")
            for state in (q, q2):
                if state not in names:
                    raise ParseError(f"rule uses undeclared state {state!r}")
            if x not in ALPHABET or x2 not in ALPHABET:
                raise ParseError(f"rule uses symbol outside {ALPHABET}")
            if m not in (-1, 1):
                raise ParseError("rule move must be L or R")
            if q2 == self.initial:
                raise ParseError("rules may not re-enter the initial state")
            if (q, x) in seen:
                raise NonDeterministic(f"two rules for ({q}, {x})")
            seen.add((q, x))
        return self

    def rule_for(self, q, x):
        for rule in self.rules:
            if rule[0] == q and rule[1] == x:
                return rule
        return None


def parse_lba(text):
    """Line format: one each of the states/init/accept/reject declarations
    plus rule lines `rule <q> <x> <q'> <x'> <L|R>`."""
    named = {}  # states/init/accept/reject -> the declared states/state
    rules = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind in named:
            raise ParseError(f"repeated {kind} declaration", line_no)
        if kind == "states":
            named[kind] = tuple(parts[1:])
        elif kind in ("init", "accept", "reject"):
            if len(parts) != 2:
                raise ParseError(f"expected: {kind} <state>", line_no)
            named[kind] = parts[1]
        elif kind == "rule":
            if len(parts) != 6 or parts[5] not in MOVES:
                raise ParseError("expected: rule <q> <x> <q'> <x'> <L|R>", line_no)
            rules.append((parts[1], parts[2], parts[3], parts[4], MOVES[parts[5]]))
        else:
            raise ParseError(f"unknown directive {kind!r}", line_no)
    if len(named) != 4:
        raise ParseError("missing states/init/accept/reject declaration")
    return LbaSpec(states=named["states"], initial=named["init"], accept=named["accept"],
                   reject=named["reject"], rules=tuple(rules)).validate()


STEP_BUDGET = 100_000  # steps `simulate_lba` runs before it gives up


def simulate_lba(spec, word):
    """Run the machine: 'accept' or 'reject'; raises BudgetExceeded if it
    has not halted after `STEP_BUDGET` steps.

    The run must stay on the tape and halt with the head on cell 1, else the
    input violates the compilation convention and is rejected as invalid.
    """
    spec.validate()
    if not word or any(x not in ALPHABET for x in word):
        raise ConventionViolated(f"word must be a nonempty string over {ALPHABET}")
    tape = list(word)
    q, head = spec.initial, 1
    for _ in range(STEP_BUDGET):
        if q in (spec.accept, spec.reject):
            if head != 1:
                raise ConventionViolated("machine halted away from cell 1")
            return "accept" if q == spec.accept else "reject"
        rule = spec.rule_for(q, tape[head - 1])
        if rule is None:
            raise ConventionViolated(f"no rule for ({q}, {tape[head - 1]})")
        _, _, q2, x2, m = rule
        tape[head - 1] = x2
        head += m
        q = q2
        if head < 1 or head > len(tape):
            raise ConventionViolated("machine moved off the tape")
    raise BudgetExceeded(STEP_BUDGET)


STAGES = ("N", "Nprime", "Ndprime", "Nbar")


def _head_place(q, i):
    return f"p_{q}_{i}"


def _cell_place(i, x):
    return f"p_{i}_{x}"


def build_stage(spec, word, stage, include_idle_moves=False):
    """Compile (machine, word) at the requested stage; returns (net, marking).

    `include_idle_moves` forces the middle move transition even when a rule
    rewrites a symbol to itself.
    """
    spec.validate()
    if stage not in STAGES:
        raise NetError(f"unknown stage {stage!r}; expected one of {STAGES}")
    if not word or any(x not in ALPHABET for x in word):
        raise ConventionViolated(f"word must be a nonempty string over {ALPHABET}")
    n = len(word)
    cells = range(1, n + 1)
    places = [_head_place(q, i) for q in spec.states for i in cells]
    places += [_cell_place(i, x) for i in cells for x in ALPHABET]
    trans = []
    flow = {}

    def arc(t, pre, post):
        trans.append(t)
        flow.update({(p, t): 1 for p in pre})
        flow.update({(t, p): 1 for p in post})

    for k, (q, x, q2, x2, m) in enumerate(spec.rules, start=1):
        for i in cells:
            if not 1 <= i + m <= n:
                continue
            head, head2 = _head_place(q, i), _head_place(q2, i + m)
            cell, cell2 = _cell_place(i, x), _cell_place(i, x2)
            if stage == "N":
                arc(f"t_ins{k}_{i}", (head, cell), (head2, cell2))
                continue
            ins = f"p_ins{k}_{i}"
            places.append(ins)
            arc(f"t_ins{k}_{i}_begin", (head, cell), (cell, ins))
            if x != x2 or include_idle_moves:
                arc(f"t_ins{k}_{i}_move", (cell, ins), (ins, cell2))
            arc(f"t_ins{k}_{i}_end", (ins, cell2), (cell2, head2))

    if stage in ("Ndprime", "Nbar"):
        places += ["p_run", "p_free"]
        acc = _head_place(spec.accept, 1)
        arc("t_A", ("p_run", acc), (acc, "p_free"))
        if stage == "Ndprime":
            arc("t_A2", ("p_free", acc), (acc, "p_run"))
        for (q, i), (q2, i2) in itertools.permutations(
                [(q, i) for q in spec.states for i in cells], 2):
            arc(f"t_{q}_{i}_{q2}_{i2}", (_head_place(q, i), "p_free"),
                ("p_free", _head_place(q2, i2)))
        for i in cells:
            for x, y in zip(ALPHABET, reversed(ALPHABET)):
                arc(f"t_c{i}_{x}_{y}", (_cell_place(i, x), "p_free"),
                    ("p_free", _cell_place(i, y)))

    if stage == "Nbar":
        places += [f"p_init{i}" for i in cells]
        for i in cells:
            src = "p_free" if i == 1 else f"p_init{i - 1}"
            cell = _cell_place(i, word[i - 1])
            arc(f"t_init{i}", (src, cell), (cell, f"p_init{i}"))
            arc(f"t_rev{i}", (f"p_init{i}",), ("p_free",))
        q0 = _head_place(spec.initial, 1)
        arc("t_run", (f"p_init{n}", q0), (q0, "p_run"))

    net = Net(f"{spec.initial}-{word}-{stage}", places, trans, flow)
    start = {_head_place(spec.initial, 1)}
    start.update(_cell_place(i, x) for i, x in enumerate(word, start=1))
    if stage in ("Ndprime", "Nbar"):
        start.add("p_run")
    return net, tuple(int(p in start) for p in net.places)


@dataclass(frozen=True)
class ReductionReport:
    accepts: bool
    marked_live: bool
    slp_status: str  # structurally_live / not_structurally_live / budget_exceeded / skipped

    @property
    def agree(self):
        bits = {self.accepts, self.marked_live}
        if self.slp_status in ("structurally_live", "not_structurally_live"):
            bits.add(self.slp_status == "structurally_live")
        return len(bits) == 1

    def to_dict(self):
        return {"accepts": self.accepts, "marked_live": self.marked_live,
                "slp": self.slp_status, "agree": self.agree}


def reduction_correctness_check(spec, word, node_budget=500_000,
                                candidate_budget=200_000, check_slp=True):
    """Compare machine acceptance, liveness of the compiled marked net, and
    (optionally budgeted) structural liveness of the compiled net."""
    try:
        sim = simulate_lba(spec, word)
    except BudgetExceeded as exc:
        raise ConventionViolated("machine did not halt within the step budget") from exc
    net, m0 = build_stage(spec, word, "Nbar")
    live = is_live_exact(net, m0, node_budget=node_budget)
    if isinstance(live, BudgetExceeded):
        raise live
    if check_slp:
        slp = decide_slp(net, candidate_budget=candidate_budget,
                         node_budget=node_budget)
        slp_status = slp.status
    else:
        slp_status = "skipped"
    return ReductionReport(accepts=(sim == "accept"), marked_live=live,
                           slp_status=slp_status)
