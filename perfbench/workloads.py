"""The three workloads: their inputs, one timed pass, and the verdict checks.

Every pass builds fresh `Net` objects, because the per-net caches live in
`net._analysis`.  Library functions are looked up through their modules at
call time, so the wrappers of a traced pass see every call.

Why each workload is chosen, which layers it loads and which it bypasses is
recorded in README.md next to this file.
"""
from __future__ import annotations

import itertools
import json
import pathlib
import random
import time
from dataclasses import dataclass

import ionet.generate
import ionet.lba
import ionet.liveness
import ionet.nets
import ionet.slp
from ionet import classify

HERE = pathlib.Path(__file__).resolve().parent
FIXTURES = HERE.parent / "fixtures"
ANSWERS = HERE / "answers.json"

# A-06's seed: its single shared marking stream.  It also draws the dense
# sample, since A-05 itself sweeps all 4096 0/1 markings.
DEFAULT_INPUT_SEED = 2026

DENSE_BUDGET = {"node_budget": 2_000_000}        # A-05
DENSE_SAMPLE = 32
ROWS = ("ord-io", "ord-imo", "io", "imo", "ord-bimo")  # A-06's order
ROWS_PER_ROW = 300
ROWS_BUDGET = {"node_budget": 1_500_000}         # A-06
# Every 11th net of each row; 11 is coprime to 12, so all twelve
# (k % 3, k % 4) net shapes occur.
ROWS_STRIDE = 11
MACHINES = (("accept_all_2", 2), ("reject_all_2", 2), ("even_a_2", 2),
            ("flip_2", 2), ("first_a_3", 3))     # A-11's machines, loop_2 never halts
MACHINE_LIVE_BUDGET = {"node_budget": 1_000_000}
MACHINE_SLP_BUDGET = {"candidate_budget": 2_000_000, "node_budget": 1_000_000}


@dataclass
class Query:
    """One decision: `op` is "live" (one marking), "pair" (a marking and its
    truncation) or "slp" (structural liveness)."""
    key: str
    op: str
    net: object
    marking: tuple
    expect: str
    budget: dict


def _is_nonlive(q, marking):
    return ionet.slp.is_nonlive(q.net, marking, **q.budget)


def run_query(q):
    if q.op == "live":
        return (_is_nonlive(q, q.marking),)
    if q.op == "pair":
        return (_is_nonlive(q, q.marking),
                _is_nonlive(q, ionet.slp.truncate(q.net, q.marking)))
    return (ionet.slp.decide_slp(q.net, **q.budget),)


def run_pass(queries):
    """Decide every query in order, one at a time.  Each verdict is checked
    right after its query, outside the timed region; then the query lets go
    of its net and verdicts, so that every query starts from the same heap
    whatever the order of the queries.  Returns the pass's wall time without
    the checks, per query (start, latency in s), and (query key, reason) for
    every failed query."""
    clock = time.perf_counter
    timings, failures = [], []
    checking = 0.0
    began = clock()
    for q in queries:
        t0 = clock()
        try:
            out = run_query(q)
        except Exception as exc:  # a query that raises is counted as failed
            out = exc
        t1 = clock()
        timings.append((t0, t1 - t0))
        reason = failure(q, out)
        if reason:
            failures.append((q.key, reason))
        q.net = out = None
        checking += clock() - t1
    return clock() - began - checking, timings, failures


def failure(q, out):
    """Why the query failed, or None: it raised, ran out of budget,
    disagreed with the known answer, or returned a non-live verdict whose
    witness `check_witness` does not accept."""
    if isinstance(out, Exception):
        return f"raised {out!r}"
    for verdict in out:
        if verdict.status == "budget_exceeded":
            return "budget_exceeded"
        if verdict.status != q.expect:
            return f"verdict {verdict.status}, known answer {q.expect}"
        if verdict.status == "nonlive":
            reason = _witness_problem(q.net, verdict.witness)
            if reason:
                return reason
    return None


def _witness_problem(net, witness):
    if witness is None:
        return "non-live verdict without a witness"
    variant = "ordinary" if classify(net).ordinary else "weighted"
    try:
        report = ionet.liveness.check_witness(net, witness, variant=variant)
    except ionet.nets.NetError as exc:
        return f"witness check raised {exc!r}"
    return None if report.sound else "check_witness rejects the witness"


def load_answers():
    with open(ANSWERS) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# dense (A-05): one net, warm caches, the abstract probe dominates.

def dense_codes(input_seed):
    """The sampled 0/1 markings as integers, most significant bit = first
    place, in ascending order (A-05's itertools.product order)."""
    return sorted(random.Random(input_seed).sample(range(1 << 12), DENSE_SAMPLE))


def dense(seed, input_seed, answers):
    # The seed does not reorder dense: with one shared net, each query's
    # latency depends on what earlier queries left in the caches.
    known = answers["dense"]
    net, stored = ionet.nets.parse_net((FIXTURES / "bio_dense.net").read_text())
    n = len(net.places)
    queries = [Query("stored", "live", net, stored, known["stored_marking"],
                     DENSE_BUDGET)]
    for code in dense_codes(input_seed):
        bits = tuple(code >> (n - 1 - i) & 1 for i in range(n))
        queries.append(Query("".join(map(str, bits)), "live", net, bits,
                             known["zero_one_markings"], DENSE_BUDGET))
    return queries


# ---------------------------------------------------------------------------
# rows (A-06): a fresh small net per query, so the caches are always cold.

def rows_draw(input_seed):
    """(key, net, marking) of the rows queries.  Every A-06 net is generated
    and every marking drawn from the shared stream in A-06's order, so a
    skipped query never shifts the markings of later ones."""
    rng = random.Random(input_seed)
    for row in ROWS:
        for k in range(ROWS_PER_ROW):
            net = ionet.generate.random_net_in_row(
                row, n_places=3 + k % 3, n_trans=1 + k % 4, seed=10_000 + 13 * k)
            cap = ionet.slp.cap_value(net)
            m = tuple(rng.randrange(cap + cap // 2 + 1) for _ in net.places)
            if k % ROWS_STRIDE == 0:
                yield f"{row}/{k}", net, m


def rows(seed, input_seed, answers):
    known = answers["rows"]
    if known["input_seed"] != input_seed:
        raise SystemExit(f"no known rows answers for input seed {input_seed}; "
                         f"run: python3 perfbench/answers.py --input-seed {input_seed}")
    queries = []
    for key, net, m in rows_draw(input_seed):
        want = known["answers"][key]
        if tuple(want["marking"]) != m:
            raise SystemExit(f"rows query {key}: marking {m} differs from the "
                             f"stored one {want['marking']}; regenerate answers.json")
        queries.append(Query(key, "pair", net, m, want["verdict"], ROWS_BUDGET))
    random.Random(seed).shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# machines (A-11): compiled nets above the subset cap, decided on their
# reachability graphs; structural liveness falls to the siphon shortcut.

def machine_words():
    for name, length in MACHINES:
        for letters in itertools.product("ab", repeat=length):
            yield name, length, "".join(letters)


def machines(seed, input_seed, answers):
    known = answers["machines"]["answers"]
    specs = {name: ionet.lba.parse_lba((FIXTURES / "lba" / f"{name}.lba").read_text())
             for name, _ in MACHINES}
    groups = []
    for name, length, word in machine_words():
        key = f"{name}/{word}"
        net, m0 = ionet.lba.build_stage(specs[name], word, "Nbar")
        accepted = known[key] == "accept"
        group = [Query(key, "live", net, m0, "live" if accepted else "nonlive",
                       MACHINE_LIVE_BUDGET)]
        if accepted and length == 2:
            group.append(Query(f"{key}/slp", "slp", net, None, "structurally_live",
                               MACHINE_SLP_BUDGET))
        groups.append(group)
    random.Random(seed).shuffle(groups)
    return [q for group in groups for q in group]


WORKLOADS = {"dense": dense, "rows": rows, "machines": machines}
