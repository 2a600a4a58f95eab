import hashlib
import itertools

import pytest

from ionet import (
    BudgetExceeded, ConventionViolated, NonDeterministic, build_stage,
    classify, dead_at, enabled, fire, is_live_exact, parse_lba, reach_graph,
    ParseError, reduction_correctness_check, replay, serialize_net, simulate_lba,
)
from ionet.lba import ALPHABET, STAGES, STEP_BUDGET, LbaSpec
from tests.conftest import FIXTURES, load_lba

# SHA-256 of the serialized compiled nets of test_compiled_nets_are_pinned,
# recorded from the compiler's output: any change to a compiled net (place or
# transition order, flow or initial marking) changes it.
COMPILED_DIGEST = "f8c724c00d39de52dccd4a119e63c4d41451cc00623c97c7cd480fdd18aec5ff"


def _hand_run(spec, word):
    """Independent simulator used as the oracle: tracks (state, head, tape)."""
    tape = list(word)
    q, head = spec.initial, 1
    for _ in range(10_000):
        if q == spec.accept:
            return "accept", head
        if q == spec.reject:
            return "reject", head
        rule = spec.rule_for(q, tape[head - 1])
        _, _, q2, x2, m = rule
        tape[head - 1] = x2
        q, head = q2, head + m
    return "loop", head


@pytest.mark.parametrize("name,cases", [
    ("accept_all_2", {"aa": "accept", "ab": "accept", "bb": "accept"}),
    ("reject_all_2", {"aa": "reject", "ba": "reject"}),
    ("even_a_2", {"aa": "accept", "ab": "reject", "ba": "reject", "bb": "accept"}),
    ("flip_2", {"aa": "accept", "ab": "reject", "ba": "accept", "bb": "reject"}),
    ("first_a_3", {"abb": "accept", "aab": "accept", "bab": "reject"}),
])
def test_simulate_against_hand_oracle(name, cases):
    spec = load_lba(name)
    for word, want in cases.items():
        assert simulate_lba(spec, word) == want
        result, head = _hand_run(spec, word)
        assert result == want and head == 1


def test_simulate_budget_loop():
    spec = load_lba("loop_2")
    with pytest.raises(BudgetExceeded) as info:
        simulate_lba(spec, "aa")
    assert info.value.explored == STEP_BUDGET
    with pytest.raises(ConventionViolated, match="did not halt"):
        reduction_correctness_check(spec, "aa", check_slp=False)


def test_simulate_validation():
    spec = load_lba("accept_all_2")
    with pytest.raises(ConventionViolated):
        simulate_lba(spec, "")
    with pytest.raises(ConventionViolated):
        simulate_lba(spec, "ac")
    dup = LbaSpec(states=("q0", "acc", "rej"), initial="q0", accept="acc",
                  reject="rej",
                  rules=(("q0", "a", "acc", "a", 1), ("q0", "a", "rej", "a", 1)))
    with pytest.raises(NonDeterministic):
        dup.validate()
    back = LbaSpec(states=("q0", "q1", "acc", "rej"), initial="q0", accept="acc",
                   reject="rej", rules=(("q1", "a", "q0", "a", 1),))
    with pytest.raises(Exception):
        back.validate()


def _spec(states=("q0", "q1", "acc", "rej"), initial="q0", accept="acc", reject="rej",
          rules=()):
    return LbaSpec(states=states, initial=initial, accept=accept, reject=reject,
                   rules=tuple(rules))


_HEADER = "states q0 q1 acc rej\ninit q0\naccept acc\nreject rej\n"


@pytest.mark.parametrize("reject,error,fragment", [
    (lambda: _spec(states=("q0", "q0", "acc", "rej")).validate(),
     ParseError, "duplicate state"),
    (lambda: _spec(initial="zz").validate(), ParseError, "undeclared state 'zz'"),
    (lambda: _spec(reject="acc").validate(), ParseError, "must differ"),
    (lambda: _spec(rules=[("acc", "a", "q1", "a", 1)]).validate(),
     ParseError, "halting state"),
    (lambda: _spec(rules=[("q0", "a", "zz", "a", 1)]).validate(),
     ParseError, "rule uses undeclared state"),
    (lambda: _spec(rules=[("q0", "c", "q1", "a", 1)]).validate(),
     ParseError, "symbol outside"),
    (lambda: _spec(rules=[("q0", "a", "q1", "a", 0)]).validate(),
     ParseError, "L or R"),
    (lambda: _spec(rules=[("q0", "a", "q1", "a", 1), ("q1", "b", "q0", "b", -1)]).validate(),
     ParseError, "re-enter the initial state"),
    (lambda: _spec(rules=[("q0", "a", "q1", "a", 1), ("q0", "a", "acc", "a", 1)]).validate(),
     NonDeterministic, "two rules"),
    (lambda: parse_lba(_HEADER + "rule q0 a q1 a X\n"), ParseError, "expected: rule"),
    (lambda: parse_lba(_HEADER + "rule q0 a q1 a\n"), ParseError, "expected: rule"),
    (lambda: parse_lba(_HEADER + "stats q0\n"), ParseError, "unknown directive"),
    (lambda: simulate_lba(_spec(rules=[("q0", "a", "acc", "a", 1)]), "aa"),
     ConventionViolated, "halted away from cell 1"),
    (lambda: simulate_lba(_spec(rules=[("q0", "a", "q1", "a", 1)]), "aa"),
     ConventionViolated, "no rule for"),
    (lambda: simulate_lba(_spec(rules=[("q0", "a", "q1", "a", -1)]), "a"),
     ConventionViolated, "moved off the tape"),
])
def test_lba_rejections(reject, error, fragment):
    with pytest.raises(error, match=fragment):
        reject()


@pytest.mark.parametrize("line", ["accept", "reject", "init", "accept acc rej"])
def test_parse_lba_single_state_lines_need_one_name(line):
    text = (FIXTURES / "lba" / "even_a_2.lba").read_text()
    kind = line.split()[0]
    bad = "".join(line + "\n" if raw.startswith(kind + " ") else raw
                  for raw in text.splitlines(keepends=True))
    with pytest.raises(ParseError, match=f"expected: {kind} <state>"):
        parse_lba(bad)
    missing = "".join(raw for raw in text.splitlines(keepends=True)
                      if not raw.startswith(kind + " "))
    with pytest.raises(ParseError, match="missing states/init/accept/reject"):
        parse_lba(missing)


def test_compiled_nets_are_pinned():
    """Six fixture machines x every word of length <= 2 x four stages x both
    idle-move settings: 288 nets, hashed in that order."""
    digest = hashlib.sha256()
    count = 0
    for name in sorted(p.stem for p in (FIXTURES / "lba").glob("*.lba")):
        spec = load_lba(name)
        for n in (1, 2):
            for word in map("".join, itertools.product(ALPHABET, repeat=n)):
                for stage in STAGES:
                    for idle in (False, True):
                        net, m0 = build_stage(spec, word, stage,
                                              include_idle_moves=idle)
                        digest.update(serialize_net(net, m0).encode())
                        count += 1
    assert count == 288
    assert digest.hexdigest() == COMPILED_DIGEST


def test_stage_counts():
    spec = load_lba("even_a_2")
    n = 2
    net, m0 = build_stage(spec, "ab", "N")
    assert len(net.places) == len(spec.states) * n + 2 * n
    valid = sum(1 for rule in spec.rules for i in range(1, n + 1)
                if 1 <= i + rule[4] <= n)
    assert len(net.transitions) == valid
    assert sum(m0) == n + 1  # head token plus one token per cell


def test_stage_n_single_deterministic_run():
    spec = load_lba("even_a_2")
    for word in ("aa", "ab", "ba", "bb"):
        net, m0 = build_stage(spec, word, "N")
        g = reach_graph(net, m0)
        # one linear execution: every marking has at most one successor
        for v in range(len(g.nodes)):
            assert len(g.succ[v]) <= 1
            assert all(x <= 1 for x in g.nodes[v])  # stays one-token-per-place
        accept_place = net.place_index[f"p_{spec.accept}_1"]
        reached = any(m[accept_place] for m in g.index)
        assert reached == (simulate_lba(spec, word) == "accept")


def test_stage_nprime_class_and_simulation():
    spec = load_lba("flip_2")  # rewrites symbols, so move transitions exist
    net, m0 = build_stage(spec, "ab", "Nprime")
    nc = classify(net)
    assert nc.io and nc.ordinary
    assert any(t.endswith("_move") for t in net.transitions)
    g = reach_graph(net, m0)
    accept_place = net.place_index[f"p_{spec.accept}_1"]
    assert any(m[accept_place] for m in g.index) == (simulate_lba(spec, "ab") == "accept")


def test_stage_nprime_omits_idle_moves():
    spec = load_lba("accept_all_2")  # never rewrites
    net, _ = build_stage(spec, "aa", "Nprime")
    assert not any(t.endswith("_move") for t in net.transitions)
    forced, _ = build_stage(spec, "aa", "Nprime", include_idle_moves=True)
    assert any(t.endswith("_move") for t in forced.transitions)


def test_stage_ndprime_free_reshuffle():
    spec = load_lba("accept_all_2")
    net, m0 = build_stage(spec, "aa", "Ndprime")
    assert classify(net).io
    g = reach_graph(net, m0)
    free = net.place_index["p_free"]
    freed = [m for m in g.index if m[free]]
    assert freed  # acceptance unlocks the control token
    # once free, any head position is installable
    heads = [net.place_index[f"p_{q}_{i}"] for q in spec.states for i in (1, 2)]
    seen = {h for m in g.index for h in heads if m[h]}
    assert len(seen) == len(heads)


def test_stage_nbar_init_chain():
    spec = load_lba("accept_all_2")
    net, m0 = build_stage(spec, "ab", "Nbar")
    assert classify(net).io and classify(net).conservative
    g = reach_graph(net, m0)
    q0_home = net.place_index[f"p_{spec.initial}_1"]
    cells = [net.place_index[f"p_{i}_{x}"] for i, x in ((1, "a"), (2, "b"))]
    reentries = [w for out in g.succ for t, w in out if t == "t_run"]
    assert reentries  # the machine accepts, so the control token cycles
    for v in reentries:
        # completing the whole chain certifies the initial configuration
        m = g.nodes[v]
        assert m[q0_home] == 1
        assert all(m[c] == 1 for c in cells)


def test_stage_nbar_rev_aborts_every_chain_place():
    spec = load_lba("even_a_2")
    net, _ = build_stage(spec, "ab", "Nbar")
    for i in (1, 2):
        assert f"t_rev{i}" in net.trans_index
        assert net.flow[(f"p_init{i}", f"t_rev{i}")] == 1
        assert net.flow[(f"t_rev{i}", "p_free")] == 1


def test_reduction_agreement_across_machines():
    cases = [
        ("accept_all_2", ["aa", "ab"]),
        ("reject_all_2", ["aa", "ba"]),
        ("even_a_2", ["aa", "ab", "ba", "bb"]),
        ("flip_2", ["aa", "bb"]),
        ("first_a_3", ["abb", "bab"]),
    ]
    for name, words in cases:
        spec = load_lba(name)
        for word in words:
            accepted = simulate_lba(spec, word) == "accept"
            net, m0 = build_stage(spec, word, "Nbar")
            assert classify(net).io and classify(net).ordinary
            assert is_live_exact(net, m0, node_budget=300_000) is accepted


def test_stage_validation_errors():
    spec = load_lba("accept_all_2")
    with pytest.raises(Exception):
        build_stage(spec, "aa", "Nmystery")
    with pytest.raises(ConventionViolated):
        build_stage(spec, "", "N")


def test_reduction_correctness_check_full():
    spec = load_lba("accept_all_2")
    report = reduction_correctness_check(spec, "ab", candidate_budget=2_000_000,
                                         node_budget=1_000_000)
    assert report.accepts and report.marked_live
    assert report.slp_status == "structurally_live"
    assert report.agree

    spec = load_lba("reject_all_2")
    report = reduction_correctness_check(spec, "ab", check_slp=False)
    assert not report.accepts and not report.marked_live
    assert report.slp_status == "skipped" and report.agree

    # with the structural bit requested, the rejecting side can only report
    # that its candidate budget ran out
    report = reduction_correctness_check(spec, "ab", candidate_budget=500)
    assert report.slp_status == "budget_exceeded"
