#!/usr/bin/env python3
"""Print one SHA-256 over the library's answers, to show that a change keeps
them: the same digest before and after means the same results.

It hashes, in a fixed order:
  - `to_dict()` of every verdict of the benchmark's dense, rows and machines
    queries at workload seed 7, built by perfbench/workloads.py;
  - `decide_slp` of every fixture net at candidate_budget=3000;
  - `classify`, each transition's `presentation` (or its error type),
    `relaxed_arcs`, `relaxed_net` and `sccs` (of the net and of its relaxed
    net) of the fixtures, of seeded nets of all eight `random_net_in_row`
    rows with and without transitions that have no pre-places, and of seeded
    hand-built nets of no particular class;
  - `find_witness` at each fixture's stored marking and at seeded markings
    of seeded nets of all eight rows;
  - `check_liveness_transfer` on seeded io, imo, bio and bimo nets of at
    most three places;
  - the error type that `is_nonlive`, `decide_slp` and `find_witness` raise
    on a 17-place non-conservative net;
  - `is_nonlive` on conservative rings of 17 to 20 places with an observer
    transition that is dead at some markings, which are above the witness
    search's subset cap and so decided on the reachability graph: non-live
    markings (witness and path included), live ones, and node budgets at
    which the reachability graph runs out;
  - `reach_graph`, `cover_basis`, `dead_at`, `is_live_exact`,
    `is_self_coverable` and `is_carrier_maximal` at node budgets from 1 to
    2 000 on seeded nets of all eight rows, a budget run-out, raised or
    returned, read as ("budget", states explored);
  - `reach_graph` and `is_live_exact` at node budgets 1, 5 and 2 000 on
    markings whose counts need fields of two, four, eight and more than
    eight bytes: hand-built nets of one or two places, and seeded nets of
    all eight rows with 2^70 tokens added on one place;
  - the reachability graph (nodes in order, labelled successor lists,
    parents) of each of the 24 markings of the machines workload, from the
    truncated marking that `is_nonlive` explores;
  - `decide_slp` on each accepting two-letter compiled machine at candidate
    budgets 1, 2, 7, 50, 500 and 1 000, and at the certificate's position
    in the candidate order minus one and exactly;
  - `check_witness`, both variants, at node budgets 1, 3, 20 and its
    default, on seeded nets of all eight rows, half with spawning
    transitions: at the witnesses `find_witness` finds, at the same with a
    token added or taken somewhere, and at random crucial sets (the empty
    one among them) and dead sets at random markings.
Nets with a place or transition named like the reserved dummy place are
left out.

The line is compared with the one stored in `result_digest.expected` next
to this file, and the script exits with status 1 when they differ.  A
change that means to change an answer, or adds checks, stores the new line
there.  To compare with an older commit, copy this file into a checkout of
it and run it there too; without a stored line it only prints.
Usage: python scripts/result_digest.py [--dump FILE]"""
import argparse
import hashlib
import pathlib
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXPECTED = pathlib.Path(__file__).resolve().with_suffix(".expected")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from ionet import (  # noqa: E402
    DUMMY_PLACE, BudgetExceeded, Net, NetError, Witness, build_stage, check_witness,
    classify, cover_basis, dead_at, decide_slp, find_witness, is_carrier_maximal,
    is_live_exact, is_nonlive, is_self_coverable, parse_lba, parse_net, pre_mset,
    presentation, reach_graph, relaxed_net, sccs, simulate_lba, truncate,
)
from ionet.generate import random_marking, random_net, random_net_in_row  # noqa: E402
from ionet.ordinarize import check_liveness_transfer  # noqa: E402
from ionet.structure import relaxed_arcs  # noqa: E402

WORKLOAD_SEED = 7
ROWS = ("ord-io", "ord-imo", "io", "imo", "ord-bio", "ord-bimo", "bio", "bimo")


def _with_spawns(net, rng):
    """The net plus two transitions without pre-places, each putting one
    token on a random place or, half the time, having no arcs."""
    flow = net.flow
    trans = list(net.transitions)
    for k in range(2):
        t = f"spawn{k}"
        trans.append(t)
        if rng.random() < 0.5:
            flow[(t, rng.choice(net.places))] = 1
    return Net(net.name + ".spawn", net.places, trans, flow)


def _flow_net(seed, n_places, n_trans):
    """A net of no particular class: each transition reads and writes up to
    two places with weights up to 3; about one in four reads none."""
    rng = random.Random(seed)
    places = [f"p{i}" for i in range(n_places)]
    trans = [f"t{k}" for k in range(n_trans)]
    flow = {}
    for t in trans:
        n_pre = 0 if rng.random() < 0.25 else rng.randint(1, 2)
        for p in rng.sample(places, min(n_pre, n_places)):
            flow[(p, t)] = rng.randint(1, 3)
        for p in rng.sample(places, min(rng.randint(0, 2), n_places)):
            flow[(t, p)] = rng.randint(1, 3)
    return Net(f"flow-{seed}", places, trans, flow)


def _fixtures():
    """(name, net, stored marking or None) of every fixture net."""
    for path in sorted((ROOT / "fixtures").glob("*.net")):
        yield (path.stem, *parse_net(path.read_text()))


def _structure_nets():
    for name, net, _ in _fixtures():
        yield name, net
    for k in range(400):
        net = random_net_in_row(ROWS[k % 8], n_places=3 + k % 3, n_trans=1 + k % 4,
                                seed=90_000 + k)
        yield f"row{k}", _with_spawns(net, random.Random(k)) if k % 2 else net
    for k in range(300):
        yield f"flow{k}", _flow_net(91_000 + k, n_places=1 + k % 5, n_trans=1 + k % 6)


def _attempt(fn, *args):
    try:
        return fn(*args)
    except NetError as exc:
        return type(exc).__name__


def _components(net):
    return [(c.vertices, c.places, c.is_top, c.is_bottom) for c in sccs(net)]


def _witness(net, marking):
    w = find_witness(net, marking)
    return None if w is None else w.to_dict()


def _liveness_checks():
    """find_witness, check_liveness_transfer and the subset cap's refusal."""
    for name, net, marking in _fixtures():
        if marking is None:
            marking = (0,) * len(net.places)
        yield ("find_witness", name), _attempt(_witness, net, marking)
    rng = random.Random(92)
    for k in range(240):
        net = random_net_in_row(ROWS[k % 8], n_places=3 + k % 3, n_trans=1 + k % 4,
                                seed=92_000 + k)
        for _ in range(3):
            m = random_marking(net, 2 * len(net.places), rng)
            yield ("find_witness", f"row{k}", m), _witness(net, m)
    for k in range(160):
        net = random_net(("io", "imo", "bio", "bimo")[k % 4], n_places=1 + k % 3,
                         n_trans=1 + k % 3, wmax=1 + k % 3, seed=93_000 + k)
        m = random_marking(net, 3, rng)
        yield (("transfer", k, m),
               _attempt(lambda: check_liveness_transfer(net, m).to_dict()))
    wide = random_net("bimo", n_places=17, n_trans=5, wmax=2, seed=1)
    for fn, args in ((is_nonlive, (wide, (3,) * 17)), (decide_slp, (wide,)),
                     (find_witness, (wide, (3,) * 17))):
        yield ("above_cap", fn.__name__), _attempt(lambda: type(fn(*args)).__name__)


def _observer_ring(n, observer):
    """Ring p0 -> p1 -> ... -> p0 through t0..t(n-1), plus one observer:
    "x" moves a token from p0 to p2 while p1 is marked (dead while the ring
    holds one token); "d" reads every ring place and puts its tokens back
    (dead once a place is empty)."""
    places = [f"p{i}" for i in range(n)]
    trans = [f"t{i}" for i in range(n)] + [observer]
    flow = {}
    for i in range(n):
        flow[(places[i], f"t{i}")] = 1
        flow[(f"t{i}", places[(i + 1) % n])] = 1
    if observer == "x":
        flow.update({("p0", "x"): 1, ("p1", "x"): 1, ("x", "p1"): 1, ("x", "p2"): 1})
    else:
        for p in places:
            flow[(p, "d")] = flow[("d", p)] = 1
    return Net(f"ring{n}{observer}", places, trans, flow)


def _reach_graph_checks():
    """`is_nonlive` on observer rings above the subset cap."""
    rng = random.Random(94)
    for n in range(17, 21):
        for observer in ("x", "d"):
            net = _observer_ring(n, observer)
            for tokens in (1, 2, 3):
                m = [0] * n
                for _ in range(tokens):
                    m[rng.randrange(n)] += 1
                for budget in (10, 200, 500_000):
                    v = is_nonlive(net, tuple(m), node_budget=budget)
                    yield ("reach_graph", net.name, tuple(m), budget), v.to_dict()


def _labelled(graph):
    """Each node's out-edges as (transition name, node) pairs, rebuilt from
    `succ` and the `enabled` masks (the k-th set bit labels the k-th edge);
    a graph without `enabled` stores the pairs in `succ` itself."""
    if not hasattr(graph, "enabled"):
        return graph.succ
    names = graph.net.transitions
    return [list(zip([t for ti, t in enumerate(names) if en >> ti & 1], out))
            for en, out in zip(graph.enabled, graph.succ)]


def _bounded(fn, *args):
    """The answer of a bounded search, or ("budget", explored) however it
    reports a run-out: raised, returned, or as a "budget" status."""
    try:
        out = fn(*args)
    except BudgetExceeded as exc:
        return "budget", exc.explored
    if isinstance(out, BudgetExceeded) or getattr(out, "status", None) == "budget":
        return "budget", out.explored
    if hasattr(out, "nodes"):
        return list(out.nodes), _labelled(out), out.parent
    return out


def _budget_checks():
    """The bounded searches at budgets small enough to run out."""
    rng = random.Random(95)
    for k in range(240):
        net = random_net_in_row(ROWS[k % 8], n_places=3 + k % 3, n_trans=1 + k % 4,
                                seed=95_000 + k)
        m = random_marking(net, 2 * len(net.places), rng)
        t = net.transitions[k % len(net.transitions)]
        for budget in (1, 2, 5, 20, 100, 2_000):
            for fn, args in ((reach_graph, (net, m)), (cover_basis, (net, pre_mset(net, t))),
                             (dead_at, (net, m, t)), (is_live_exact, (net, m)),
                             (is_self_coverable, (net, m)), (is_carrier_maximal, (net, m))):
                yield (fn.__name__, f"row{k}", m, budget), _bounded(fn, *args, budget)


def _wide_count_checks():
    """The packed searches at counts past one byte, up to past 2^64."""
    mover = Net("mover", ["p", "q"], ["t"], {("p", "t"): 1, ("t", "q"): 1})
    cases = [(mover, (3, big)) for big in (300, 70_000, 2**40, 2**64 - 4, 2**70)]
    cases += [
        (Net("grower", ["p"], ["t"], {("p", "t"): 1, ("t", "p"): 3}), (2**70,)),
        (Net("reader", ["p"], ["t"], {("p", "t"): 1, ("t", "p"): 1}), (2**70,)),
        (Net("swap", ["p", "q"], ["t", "u"],
             {("p", "t"): 1, ("t", "q"): 1, ("q", "u"): 1, ("u", "p"): 1}), (2**66, 2)),
    ]
    rng = random.Random(99)
    for k in range(16):
        net = random_net_in_row(ROWS[k % 8], n_places=3 + k % 3, n_trans=1 + k % 4,
                                seed=99_000 + k)
        m = list(random_marking(net, 2 * len(net.places), rng))
        m[k % len(m)] += 2**70
        cases.append((net, tuple(m)))
    for net, m in cases:
        for budget in (1, 5, 2_000):
            for fn in (reach_graph, is_live_exact):
                yield (fn.__name__, "wide", net.name, m, budget), _bounded(fn, net, m, budget)


def _machine_graphs(answers):
    """`reach_graph` of every machines marking, at the workload's budget."""
    budget = workloads.MACHINE_LIVE_BUDGET["node_budget"]
    queries = workloads.machines(WORKLOAD_SEED, workloads.DEFAULT_INPUT_SEED, answers)
    for q in sorted((q for q in queries if q.op == "live"), key=lambda q: q.key):
        yield (("machine_graph", q.key),
               _bounded(reach_graph, q.net, truncate(q.net, q.marking), budget))


def _slp_budget_checks():
    """`decide_slp` on the accepting two-letter machines at candidate budgets
    that run out at the first candidates, inside the box and just before the
    certificate, and at the certificate."""
    for name in ("accept_all_2", "reject_all_2", "even_a_2", "flip_2"):
        spec = parse_lba((ROOT / "fixtures" / "lba" / f"{name}.lba").read_text())
        for word in ("aa", "ab", "ba", "bb"):
            if simulate_lba(spec, word) != "accept":
                continue
            where = decide_slp(build_stage(spec, word, "Nbar")[0]).candidates_tested
            for budget in (1, 2, 7, 50, 500, 1_000, where - 1, where):
                net = build_stage(spec, word, "Nbar")[0]
                yield (("slp_budget", name, word, budget),
                       decide_slp(net, candidate_budget=budget).to_dict())


def _checked_witnesses():
    """(name, net, witness) on seeded nets of all eight rows, half with
    spawning transitions: found, perturbed and random witnesses."""
    rng = random.Random(96)
    for k in range(120):
        net = random_net_in_row(ROWS[k % 8], n_places=2 + k % 4, n_trans=1 + k % 4,
                                seed=96_000 + k)
        if k % 2:
            net = _with_spawns(net, rng)
        n_p, n_t = len(net.places), len(net.transitions)
        for _ in range(3):
            m = random_marking(net, 2 * n_p, rng)
            w = find_witness(net, m)
            if w is not None:
                yield f"row{k}", net, w
                i = rng.randrange(n_p)
                bumped = list(m)
                bumped[i] += 1 if not m[i] or rng.random() < 0.5 else -1
                yield f"row{k}", net, Witness(tuple(bumped), w.p_cruc, w.t_dead)
            places = tuple(rng.sample(net.places, rng.randint(0, n_p)))
            dead = tuple(rng.sample(net.transitions, rng.randint(1, n_t)))
            yield f"row{k}", net, Witness(m, places, dead)
        yield f"row{k}", net, Witness(m, (), net.transitions[:1])


def _witness_check_checks():
    """`check_witness` at budgets small enough to run out, and at its
    default."""
    for name, net, w in _checked_witnesses():
        for variant in ("ordinary", "weighted"):
            for budget in (1, 3, 20, None):
                extra = {} if budget is None else {"node_budget": budget}
                yield (("check_witness", name, w.m_wit, w.p_cruc, w.t_dead, variant, budget),
                       _bounded(lambda: check_witness(net, w, variant, **extra).to_dict()))


def _relaxed(net):
    rlx = relaxed_net(net)
    return (rlx.name, rlx.places, rlx.transitions, sorted(rlx.flow.items()),
            _components(rlx))


def checks():
    """(label, answer) pairs, in a fixed order."""
    answers = workloads.load_answers()
    for name, make in workloads.WORKLOADS.items():
        for q in make(WORKLOAD_SEED, workloads.DEFAULT_INPUT_SEED, answers):
            yield (name, q.key), [v.to_dict() for v in workloads.run_query(q)]
    for name, net, _ in _fixtures():
        yield ("decide_slp", name), decide_slp(net, candidate_budget=3_000).to_dict()
    for name, net in _structure_nets():
        if DUMMY_PLACE in net.place_index or DUMMY_PLACE in net.trans_index:
            continue
        yield ("classify", name), classify(net)
        for t in net.transitions:
            yield ("presentation", name, t), _attempt(presentation, net, t)
        yield ("relaxed_arcs", name), _attempt(relaxed_arcs, net)
        yield ("relaxed_net", name), _attempt(_relaxed, net)
        yield ("sccs", name), _components(net)
    yield from _liveness_checks()
    yield from _reach_graph_checks()
    yield from _budget_checks()
    yield from _wide_count_checks()
    yield from _machine_graphs(answers)
    yield from _slp_budget_checks()
    yield from _witness_check_checks()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--dump", type=pathlib.Path,
                    help="also write each check on its own line, for diffing")
    args = ap.parse_args()
    digest = hashlib.sha256()
    lines = []
    for label, answer in checks():
        line = repr((label, answer))
        digest.update(line.encode() + b"\n")
        lines.append(line)
    if args.dump is not None:
        args.dump.write_text("\n".join(lines) + "\n")
    line = f"checks {len(lines)} sha256 {digest.hexdigest()}"
    print(line)
    if EXPECTED.exists() and EXPECTED.read_text().strip() != line:
        sys.exit(f"differs from {EXPECTED.name}: {EXPECTED.read_text().strip()}")


if __name__ == "__main__":
    main()
