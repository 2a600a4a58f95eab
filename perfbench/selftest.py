#!/usr/bin/env python3
"""Self-test of the benchmark's failure accounting, on four dense queries.

    python3 perfbench/selftest.py

A clean pass must count no failure.  A wrong known answer, a forced
`budget_exceeded`, an unsound witness and a query that raises must each make
failed_share greater than 0.  Exits 0 when all of that holds, 1 otherwise.
"""
from __future__ import annotations

import dataclasses
import sys

import run

run.import_library()

import ionet.slp  # noqa: E402

import workloads  # noqa: E402


def tiny_queries():
    """bio_dense's stored marking (live, found by the abstract probe, which
    needs exploration budget) and three of the sampled 0/1 markings."""
    queries = workloads.dense(0, workloads.DEFAULT_INPUT_SEED,
                              workloads.load_answers())
    return queries[:4]


def failed_share(queries):
    _, _, failures = workloads.run_pass(queries)
    for key, reason in failures:
        print(f"  counted {key}: {reason}")
    return len(failures) / len(queries)


def unsound(verdict, net):
    """The verdict with a witness that declares every transition dead."""
    witness = dataclasses.replace(verdict.witness, p_cruc=net.places,
                                  t_dead=net.transitions)
    return dataclasses.replace(verdict, witness=witness)


def main():
    clean = failed_share(tiny_queries())
    print(f"clean pass: failed_share {clean}")

    queries = tiny_queries()
    queries[1].expect = "live" if queries[1].expect == "nonlive" else "nonlive"
    wrong = failed_share(queries)
    print(f"wrong known answer: failed_share {wrong}")

    queries = tiny_queries()
    for q in queries:
        q.budget = {"node_budget": 1}
    budget = failed_share(queries)
    print(f"forced budget_exceeded: failed_share {budget}")

    original = ionet.slp.is_nonlive

    def with_unsound_witness(net, m0, **kwargs):
        verdict = original(net, m0, **kwargs)
        return unsound(verdict, net) if verdict.is_nonlive else verdict

    def raising(net, m0, **kwargs):
        raise ionet.nets.NetError("injected fault")

    shares = {}
    for name, fake in (("unsound witness", with_unsound_witness),
                       ("raised", raising)):
        ionet.slp.is_nonlive = fake
        try:
            shares[name] = failed_share(tiny_queries())
        finally:
            ionet.slp.is_nonlive = original
        print(f"{name}: failed_share {shares[name]}")

    ok = clean == 0 and wrong > 0 and budget > 0 and all(
        share > 0 for share in shares.values())
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
