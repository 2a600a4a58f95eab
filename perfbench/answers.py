#!/usr/bin/env python3
"""Regenerate the benchmark's known answers, `perfbench/answers.json`.

    python3 perfbench/answers.py [--input-seed 2026]

Provenance of each answer:
  dense     the fixture's construction (acceptance criterion A-05): the
            stored marking of bio_dense is live and every 0/1 marking is
            non-live.
  machines  `simulate_lba`, an interpreter independent of the net encoding:
            the compiled net's marking is live exactly when the machine
            accepts, and accepting implies structural liveness.
  rows      `is_live_exact` (explicit reachability graph) where it finishes
            within EXACT_BUDGET nodes; otherwise the verdict on which both
            halves of the truncation pair agree.
"""
from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ionet  # noqa: E402
from ionet import lba, liveness, slp  # noqa: E402

import workloads  # noqa: E402

EXACT_BUDGET = 200_000


def rows_answers(input_seed):
    answers = {}
    kinds = {"is_live_exact": 0, "pair_agreement": 0}
    for key, net, m in workloads.rows_draw(input_seed):
        exact = liveness.is_live_exact(net, m, node_budget=EXACT_BUDGET)
        if exact is True or exact is False:
            verdict, kind = ("live" if exact else "nonlive"), "is_live_exact"
        else:
            budget = workloads.ROWS_BUDGET["node_budget"]
            a = slp.is_nonlive(net, m, node_budget=budget)
            b = slp.is_nonlive(net, slp.truncate(net, m), node_budget=budget)
            if a.status != b.status or a.status not in ("live", "nonlive"):
                raise SystemExit(f"{key}: no reference, the pair gives "
                                 f"{a.status} and {b.status}")
            verdict, kind = a.status, "pair_agreement"
        kinds[kind] += 1
        answers[key] = {"marking": list(m), "verdict": verdict, "reference": kind}
    return answers, kinds


def machine_answers():
    specs = {name: lba.parse_lba(
        (workloads.FIXTURES / "lba" / f"{name}.lba").read_text())
        for name, _ in workloads.MACHINES}
    return {f"{name}/{word}": lba.simulate_lba(specs[name], word)
            for name, _, word in workloads.machine_words()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--input-seed", type=int, default=workloads.DEFAULT_INPUT_SEED)
    args = ap.parse_args(argv)
    began = time.time()
    rows, kinds = rows_answers(args.input_seed)
    out = {
        "command": f"python3 perfbench/answers.py --input-seed {args.input_seed}",
        "library_version": ionet.__version__,
        "dense": {
            "provenance": "fixture construction (A-05): stored marking live; "
                          "every 0/1 marking non-live",
            "stored_marking": "live",
            "zero_one_markings": "nonlive",
        },
        "machines": {
            "provenance": "simulate_lba: marked liveness of the Nbar net equals "
                          "acceptance, and accepting implies structural liveness",
            "answers": machine_answers(),
        },
        "rows": {
            "provenance": f"is_live_exact within {EXACT_BUDGET} nodes, "
                          "else the verdict both halves of the pair agree on",
            "input_seed": args.input_seed,
            "reference_counts": kinds,
            "answers": rows,
        },
    }
    with open(workloads.ANSWERS, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print(f"wrote {workloads.ANSWERS.name}: {len(rows)} rows queries "
          f"({kinds}), {len(out['machines']['answers'])} machine words "
          f"in {time.time() - began:.1f} s")


if __name__ == "__main__":
    main()
