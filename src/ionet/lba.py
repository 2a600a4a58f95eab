"""Bounded-tape machines and their encodings as observation nets.

A machine over tape alphabet {a, b} with one deterministic rule per
(state, symbol) is compiled in four stages:

  N       cell and head places, one transition per rule and tape position;
  Nprime  every rule transition split into begin/move/end so each step moves
          a single token under one observation;
  Ndprime a run/free control pair: once the accepting head place is marked
          the control token frees reshuffle transitions that can install any
          configuration;
  Nbar    the free-to-run return replaced by a chain that re-installs the
          initial configuration cell by cell, with abort transitions.

The marked net of stage Nbar is live exactly when the machine accepts the
word, which also ties acceptance to structural liveness.
"""
from __future__ import annotations

from dataclasses import dataclass

from .nets import Net, NetError, ParseError
from .liveness import BudgetExceeded

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
            if q not in names or q2 not in names:
                raise ParseError(f"rule uses undeclared state")
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
    """Line format: states/init/accept/reject declarations plus rule lines
    `rule <q> <x> <q'> <x'> <L|R>`."""
    states = None
    initial = accept = reject = None
    rules = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "states":
            states = tuple(parts[1:])
        elif kind == "init":
            if len(parts) != 2:
                raise ParseError("expected: init <state>", line_no)
            initial = parts[1]
        elif kind == "accept":
            accept = parts[1]
        elif kind == "reject":
            reject = parts[1]
        elif kind == "rule":
            if len(parts) != 6 or parts[5] not in MOVES:
                raise ParseError("expected: rule <q> <x> <q'> <x'> <L|R>", line_no)
            rules.append((parts[1], parts[2], parts[3], parts[4], MOVES[parts[5]]))
        else:
            raise ParseError(f"unknown directive {kind!r}", line_no)
    if states is None or initial is None or accept is None or reject is None:
        raise ParseError("missing states/init/accept/reject declaration")
    return LbaSpec(states=states, initial=initial, accept=accept, reject=reject,
                   rules=tuple(rules)).validate()


def simulate_lba(spec, word, step_budget=100_000):
    """Run the machine; 'accept'/'reject' or BudgetExceeded on a budget hit.

    The run must stay on the tape and halt with the head on cell 1, else the
    input violates the compilation convention and is rejected as invalid.
    """
    spec.validate()
    if not word or any(x not in ALPHABET for x in word):
        raise ConventionViolated(f"word must be a nonempty string over {ALPHABET}")
    tape = list(word)
    q, head = spec.initial, 1
    for _ in range(step_budget):
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
    return BudgetExceeded(explored=step_budget)


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
    places = []
    flow = {}
    trans = []
    for q in spec.states:
        for i in range(1, n + 1):
            places.append(_head_place(q, i))
    for i in range(1, n + 1):
        for x in ALPHABET:
            places.append(_cell_place(i, x))

    valid = []  # (rule index, rule, position)
    for k, rule in enumerate(spec.rules, start=1):
        for i in range(1, n + 1):
            if 1 <= i + rule[4] <= n:
                valid.append((k, rule, i))

    if stage == "N":
        for k, (q, x, q2, x2, m), i in valid:
            t = f"t_ins{k}_{i}"
            trans.append(t)
            flow[(_head_place(q, i), t)] = 1
            flow[(_cell_place(i, x), t)] = 1
            flow[(t, _head_place(q2, i + m))] = 1
            flow[(t, _cell_place(i, x2))] = 1
    else:
        for k, (q, x, q2, x2, m), i in valid:
            ins = f"p_ins{k}_{i}"
            places.append(ins)
            begin = f"t_ins{k}_{i}_begin"
            trans.append(begin)
            flow[(_head_place(q, i), begin)] = 1
            flow[(_cell_place(i, x), begin)] = 1
            flow[(begin, _cell_place(i, x))] = 1
            flow[(begin, ins)] = 1
            if x != x2 or include_idle_moves:
                move = f"t_ins{k}_{i}_move"
                trans.append(move)
                flow[(_cell_place(i, x), move)] = 1
                flow[(ins, move)] = 1
                flow[(move, ins)] = 1
                flow[(move, _cell_place(i, x2))] = 1
            end = f"t_ins{k}_{i}_end"
            trans.append(end)
            flow[(ins, end)] = 1
            flow[(_cell_place(i, x2), end)] = 1
            flow[(end, _cell_place(i, x2))] = 1
            flow[(end, _head_place(q2, i + m))] = 1

    if stage in ("Ndprime", "Nbar"):
        places.extend(["p_run", "p_free"])
        acc = _head_place(spec.accept, 1)
        trans.append("t_A")
        flow[("p_run", "t_A")] = 1
        flow[(acc, "t_A")] = 1
        flow[("t_A", acc)] = 1
        flow[("t_A", "p_free")] = 1
        if stage == "Ndprime":
            trans.append("t_A2")
            flow[("p_free", "t_A2")] = 1
            flow[(acc, "t_A2")] = 1
            flow[("t_A2", acc)] = 1
            flow[("t_A2", "p_run")] = 1
        heads = [(q, i) for q in spec.states for i in range(1, n + 1)]
        for q, i in heads:
            for q2, i2 in heads:
                if (q, i) == (q2, i2):
                    continue
                t = f"t_{q}_{i}_{q2}_{i2}"
                trans.append(t)
                flow[(_head_place(q, i), t)] = 1
                flow[("p_free", t)] = 1
                flow[(t, "p_free")] = 1
                flow[(t, _head_place(q2, i2))] = 1
        for i in range(1, n + 1):
            for x in ALPHABET:
                y = "b" if x == "a" else "a"
                t = f"t_c{i}_{x}_{y}"
                trans.append(t)
                flow[(_cell_place(i, x), t)] = 1
                flow[("p_free", t)] = 1
                flow[(t, "p_free")] = 1
                flow[(t, _cell_place(i, y))] = 1

    if stage == "Nbar":
        for i in range(1, n + 1):
            places.append(f"p_init{i}")
        for i in range(1, n + 1):
            t = f"t_init{i}"
            trans.append(t)
            src = "p_free" if i == 1 else f"p_init{i - 1}"
            flow[(src, t)] = 1
            cell = _cell_place(i, word[i - 1])
            flow[(cell, t)] = 1
            flow[(t, cell)] = 1
            flow[(t, f"p_init{i}")] = 1
            rev = f"t_rev{i}"
            trans.append(rev)
            flow[(f"p_init{i}", rev)] = 1
            flow[(rev, "p_free")] = 1
        trans.append("t_run")
        flow[(f"p_init{n}", "t_run")] = 1
        q0 = _head_place(spec.initial, 1)
        flow[(q0, "t_run")] = 1
        flow[("t_run", q0)] = 1
        flow[("t_run", "p_run")] = 1

    net = Net(f"{spec.initial}-{word}-{stage}", places, trans, flow)
    marking = [0] * len(net.places)
    marking[net.place_index[_head_place(spec.initial, 1)]] = 1
    for i, x in enumerate(word, start=1):
        marking[net.place_index[_cell_place(i, x)]] = 1
    if stage in ("Ndprime", "Nbar"):
        marking[net.place_index["p_run"]] = 1
    return net, tuple(marking)


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
    from .liveness import is_live_exact
    from .slp import decide_slp

    sim = simulate_lba(spec, word)
    if isinstance(sim, BudgetExceeded):
        raise ConventionViolated("machine did not halt within the step budget")
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
