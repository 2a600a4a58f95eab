"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is exact (replay equality or 100% agreement on the
stated seeded samples).
"""
import itertools
import random

import pytest

from ionet import (
    Witness, carrier, check_witness, classify, dead_at, decide_slp,
    embed_marking, enabled, fire, is_live_exact, is_nonlive, madd, mleq,
    ordinarize, parse_lba, presentation, replay, simulate_lba, build_stage,
    truncate, cap_value,
)
from ionet.cli import main
from ionet.generate import random_net, random_net_in_row, random_marking
from ionet.slp import _search_box
from tests.conftest import FIXTURES, load_lba, load_net


def _report(tag, detail):
    print(f"[{tag}] pass: {detail}")


def test_a01_replay_and_structural_verdict(siphon_net, capsys):
    net, _ = siphon_net
    ex = replay(net, (1, 1, 1, 1, 1, 1),
                ["t2", "t3", "t3", "t4", "t4", "t4", "t5", "t5"])
    vectors = [ex.start] + [m for _, m in ex.steps]
    assert vectors == [
        (1, 1, 1, 1, 1, 1), (1, 0, 2, 1, 2, 1), (1, 0, 1, 2, 2, 1),
        (1, 0, 0, 3, 2, 1), (2, 0, 0, 2, 2, 1), (3, 0, 0, 1, 2, 1),
        (4, 0, 0, 0, 2, 1), (4, 0, 0, 0, 1, 1), (4, 0, 0, 0, 0, 1),
    ]
    code = main(["slp", str(FIXTURES / "bimo_siphon.net")])
    out = capsys.readouterr().out
    assert code == 0 and "not_structurally_live" in out
    _report("A-01", "nine replay vectors exact; siphon net not structurally live")


def test_a02_pump_quadruple(pump_net):
    net, _ = pump_net
    want = {(1, 0, 0, 0, 0): "nonlive", (2, 0, 0, 0, 0): "live",
            (3, 0, 0, 0, 0): "nonlive", (3, 0, 0, 0, 1): "live"}
    for marking, expected in want.items():
        verdict = is_nonlive(net, marking, node_budget=2_000_000)
        assert verdict.status == expected, marking
    _report("A-02", "pump net verdicts match on all four markings")


def test_a03_fragile_pair_with_witness(fragile_net):
    net, m0 = fragile_net
    assert is_nonlive(net, m0, node_budget=2_000_000).is_live
    bumped = list(m0)
    bumped[net.place_index["p2"]] += 1
    verdict = is_nonlive(net, tuple(bumped), node_budget=2_000_000)
    assert verdict.is_nonlive
    after = replay(net, tuple(bumped), ["t5", "t2", "t6"]).final
    for t in verdict.witness.t_dead:
        assert dead_at(net, after, t) is True
    _report("A-03", "stored marking live; one extra token dies with a checked witness")


def test_a04_witness_conditions(witness_net):
    net, m0 = witness_net
    m_wit = replay(net, m0, ["t3", "t4", "t2", "t1", "t1", "t6", "t6", "t6"]).final
    report = check_witness(
        net,
        Witness(m_wit=m_wit, p_cruc=("p1", "p2", "p3", "p4", "p5"),
                t_dead=("t1", "t6", "t7")),
        variant="ordinary")
    assert report.cond1 and report.cond2 and report.cond3 and report.sound
    _report("A-04", "replayed witness satisfies all three conditions")


@pytest.mark.slow
def test_a05_dense_separation(dense_net):
    net, m0 = dense_net
    verdict = decide_slp(net, node_budget=2_000_000)
    assert verdict.status == "structurally_live"
    assert any(x > 1 for x in verdict.certificate)  # no 0/1 certificate exists
    assert is_nonlive(net, m0, node_budget=2_000_000).is_live
    nonlive = 0
    for bits in itertools.product((0, 1), repeat=len(net.places)):
        assert is_nonlive(net, bits, node_budget=2_000_000).is_nonlive, bits
        nonlive += 1
    assert nonlive == 4096
    _report("A-05", "dense net structurally live, stored marking live, "
                    "all 4096 0/1 markings non-live")


ROWS = ("ord-io", "ord-imo", "io", "imo", "ord-bimo")


def test_a06_truncation_equivalence():
    rng = random.Random(2026)
    per_row = 300
    for row in ROWS:
        for k in range(per_row):
            net = random_net_in_row(row, n_places=3 + k % 3, n_trans=1 + k % 4,
                                    seed=10_000 + 13 * k)
            cap = cap_value(net)
            m = tuple(rng.randrange(cap + cap // 2 + 1) for _ in net.places)
            a = is_nonlive(net, m, node_budget=1_500_000)
            b = is_nonlive(net, truncate(net, m), node_budget=1_500_000)
            assert a.status in ("live", "nonlive"), (row, k)
            assert a.status == b.status, (row, k, m)
    _report("A-06", f"truncation never flips the verdict on {per_row} nets "
                    f"per class row ({len(ROWS)} rows)")


def test_a07_first_bound_completeness():
    from ionet import bounds_for
    rng = random.Random(404)
    live_found = 0
    for k in range(100):
        if k % 2:
            net = random_net("imo" if k % 4 == 1 else "io",
                             n_places=2 + k % 3, n_trans=2 + k % 3,
                             wmax=1 + (k % 3 == 0), seed=500 + k)
        else:
            # ring plus random extras: often structurally live
            from ionet import Net
            n = 2 + k % 3
            places = [f"p{i}" for i in range(1, n + 1)]
            flow = {}
            trans = []
            for i in range(n):
                t = f"r{i}"
                trans.append(t)
                flow[(places[i], t)] = 1
                flow[(t, places[(i + 1) % n])] = 1
            extra = random_net("io", n_places=n, n_trans=2, seed=900 + k)
            for (a, b), w in extra.flow.items():
                key = (a, f"x{b}") if a in extra.place_index else (f"x{a}", b)
                flow[key] = w
            trans.extend(sorted({f"x{t}" for t in extra.transitions}))
            net = Net(f"mix{k}", places, trans, flow)
        if not classify(net).conservative:
            continue
        nc = classify(net)
        best = None
        for total in range(0, 9):
            for cand in _markings_with_total(len(net.places), total):
                if is_live_exact(net, cand, node_budget=200_000) is True:
                    best = cand
                    break
            if best:
                break
        if best is None:
            continue
        live_found += 1
        bound = bounds_for(nc, len(net.places), nc.max_weight).first
        verdict = decide_slp(net, node_budget=1_000_000)
        assert verdict.status == "structurally_live", k
        assert all(x <= bound for x in verdict.certificate), k
        assert is_nonlive(net, verdict.certificate, node_budget=1_000_000).is_live
    assert live_found >= 25
    _report("A-07", f"certificate found inside the bound box whenever small "
                    f"live markings exist ({live_found} live instances)")


def _markings_with_total(n, total):
    if n == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _markings_with_total(n - 1, total - head):
            yield (head,) + rest


def test_a08_capped_decision_matches_exact():
    rng = random.Random(808)
    for k in range(500):
        net = random_net("io" if k % 2 else "imo",
                         n_places=2 + k % 5, n_trans=1 + k % 5,
                         wmax=1, seed=20_000 + k)
        m = random_marking(net, 6, rng)
        verdict = is_nonlive(net, m, node_budget=1_000_000)
        exact = is_live_exact(net, m, node_budget=500_000)
        assert verdict.status == ("live" if exact else "nonlive"), (k, m)
    _report("A-08", "capped decision agrees with explicit liveness on 500 nets")


def test_a09_added_tokens_paste_down():
    rng = random.Random(909)
    done = 0
    while done < 200:
        net = random_net("io", n_places=2 + done % 4, n_trans=1 + done % 5,
                         seed=30_000 + done)
        m = random_marking(net, 5, rng)
        seq = []
        cur = m
        for _ in range(12):
            opts = [t for t in net.transitions if enabled(net, cur, t)]
            if not opts:
                break
            t = rng.choice(opts)
            cur = fire(net, cur, t)
            seq.append(t)
        extra = tuple(rng.randrange(3) if x else 0 for x in m)
        lifted = madd(m, extra)
        assert carrier(lifted) == carrier(m)
        bar = lifted
        ok_steps = []
        for t, step_m in zip(seq, _intermediates(net, m, seq)):
            src = presentation(net, t).source
            si = net.place_index[src]
            d = 1 + bar[si] - step_m[si]
            for _ in range(d):
                assert enabled(net, bar, t), (done, t)
                bar = fire(net, bar, t)
            ok_steps.append(t)
        final = replay(net, m, seq).final
        assert mleq(final, bar)
        assert carrier(bar) == carrier(final)
        done += 1
    _report("A-09", "duplicated executions land above the original on 200 runs")


def _intermediates(net, m, seq):
    cur = m
    for t in seq:
        yield cur
        cur = fire(net, cur, t)


def test_a10_threshold_monotonicity():
    rng = random.Random(1010)
    checked = 0
    seed = 0
    while checked < 200:
        seed += 1
        net = random_net("imo", n_places=2 + seed % 3, n_trans=2 + seed % 3,
                         wmax=1, seed=40_000 + seed)
        n = len(net.places)
        base = random_marking(net, 4, rng)
        spot = rng.randrange(n)
        # +1 on a place already holding at least |P| tokens
        up = list(base)
        up[spot] = n + rng.randrange(3)
        up = tuple(up)
        if is_live_exact(net, up, node_budget=300_000) is False:
            bumped = list(up)
            bumped[spot] += 1
            assert is_live_exact(net, tuple(bumped), node_budget=300_000) is False
            checked += 1
        # -1 leaving at least 2|P|-1 tokens behind
        down = list(base)
        down[spot] = 2 * n + rng.randrange(3)
        down = tuple(down)
        if is_live_exact(net, down, node_budget=300_000) is False:
            removed = list(down)
            removed[spot] -= 1
            assert is_live_exact(net, tuple(removed), node_budget=300_000) is False
            checked += 1
    _report("A-10", f"token thresholds preserve non-liveness in {checked} checks")


def test_a11_machine_reduction(capsys):
    cases = [
        ("accept_all_2", ["aa", "ab"]),
        ("reject_all_2", ["aa", "ba"]),
        ("even_a_2", ["aa", "ab", "ba", "bb"]),
        ("flip_2", ["aa", "ba", "bb"]),
        ("first_a_3", ["abb", "bab"]),
    ]
    accepting = []
    for name, words in cases:
        spec = load_lba(name)
        for word in words:
            accepted = simulate_lba(spec, word) == "accept"
            net, m0 = build_stage(spec, word, "Nbar")
            nc = classify(net)
            assert nc.io and nc.ordinary, (name, word)
            live = is_live_exact(net, m0, node_budget=500_000)
            assert live is accepted, (name, word)
            if accepted and len(net.places) <= 30:
                accepting.append((net, name, word))
    # structural liveness: accepting two-letter instances yield certificates
    # (the candidate layers of three-letter instances outgrow any budget)
    assert len(accepting) >= 5
    for net, name, word in accepting:
        verdict = decide_slp(net, candidate_budget=2_000_000,
                             node_budget=1_000_000)
        assert verdict.status == "structurally_live", (name, word)
        assert is_nonlive(net, verdict.certificate,
                          node_budget=1_000_000).is_live
    _report("A-11", f"machine acceptance matches marked liveness on 5 machines; "
                    f"{len(accepting)} accepting instances certified structurally live")


@pytest.mark.skip(reason="structural-liveness refutation of rejecting compiled "
                         "machines needs the full 0/1 box (over 2**20 candidates "
                         "on the smallest valid instances); the bounded sweep in "
                         "test_a11 covers the decidable direction")
def test_a11_rejecting_side_full_refutation():
    spec = load_lba("reject_all_2")
    net, _ = build_stage(spec, "aa", "Nbar")
    verdict = decide_slp(net, candidate_budget=2**21)
    assert verdict.status == "not_structurally_live"


def test_a12_ring_rewrite_preserves_liveness():
    rng = random.Random(1212)
    for k in range(200):
        net = random_net_in_row("bimo", n_places=2 + k % 3, n_trans=1 + k % 4,
                                seed=50_000 + k, wmax=3)
        ordn, omap = ordinarize(net)
        m = random_marking(net, 5, rng)
        a = is_nonlive(net, m, node_budget=1_500_000)
        b = is_nonlive(ordn, embed_marking(omap, m), node_budget=1_500_000)
        assert a.status in ("live", "nonlive"), k
        assert a.status == b.status, (k, m)
    for cls in ("io", "imo", "bio", "bimo"):
        for seed in range(10):
            net = random_net(cls, n_places=3, n_trans=3, wmax=3, seed=seed)
            nc = classify(ordinarize(net)[0])
            assert nc.ordinary and getattr(nc, cls)
    _report("A-12", "ring rewriting preserves verdicts on 200 weighted nets "
                    "and the class on all four shapes")


def test_a13_single_move_01_decisiveness():
    for k in range(200):
        net = random_net("imo", n_places=2 + k % 4, n_trans=1 + k % 5,
                         wmax=1, seed=60_000 + k)
        a = decide_slp(net, node_budget=1_000_000)
        b = _search_box(net, 2, 200_000, 1_000_000)
        assert a.status == b.status == (
            "structurally_live" if a.certificate is not None
            else "not_structurally_live"), k
        if a.certificate is not None:
            assert all(x <= 1 for x in a.certificate)
    _report("A-13", "the 0/1 box of decide_slp agrees with the 0..2 box on 200 nets")
