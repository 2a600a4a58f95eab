#!/usr/bin/env python3
"""Print class flags, bounds and structural-liveness verdicts for every
fixture net, then the verdict of every accepting two-letter compiled machine,
with how many box candidates each decision tested and how many of those the
siphon test alone refuted.  Under each fixture inside the subset cap, a
second line gives what its decision left in the witness index (the summed
sizes of the per-siphon `dead_set` memos, the number of clean points and the
longest clean list),
the index's number of entries, how long a fresh index takes to build, how
many `witness_at` lookups ran (counted by wrapping the method) and the size
of the `witness_at` memo, which holds only lookups that ran.
Usage: python scripts/fixture_report.py [--budget N] [--candidates N]"""
import argparse
import pathlib
import sys
import time
from collections import Counter

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from ionet import (  # noqa: E402
    bounds_for, build_stage, classify, decide_slp, parse_lba, parse_net, simulate_lba,
)
from ionet.cli import _positive  # noqa: E402
from ionet.liveness import SubsetCapExceeded, WitnessIndex, witness_index  # noqa: E402

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
MACHINES = ("accept_all_2", "reject_all_2", "even_a_2", "flip_2")
LOOKUPS = Counter()  # witness index -> the `witness_at` calls it ran


def _count_lookups():
    """Wrap `WitnessIndex.witness_at` so that LOOKUPS counts its calls."""
    lookup = WitnessIndex.witness_at

    def counted(self, *args, **kwargs):
        LOOKUPS[self] += 1
        return lookup(self, *args, **kwargs)

    WitnessIndex.witness_at = counted


def _decide(net, args):
    """The verdict's status, certificate, counts and time, as one string."""
    t0 = time.perf_counter()
    verdict = decide_slp(net, candidate_budget=args.candidates, node_budget=args.budget)
    dt = time.perf_counter() - t0
    cert = ""
    if verdict.certificate is not None:
        cert = " cert=" + ",".join(map(str, verdict.certificate))
    return (f"{verdict.status}{cert} candidates={verdict.candidates_tested} "
            f"siphon_settled={verdict.siphon_settled}  [{dt:.2f}s]")


def _index_line(net):
    """The witness index's memo and clean-list sizes, entries, build time,
    lookups run and `witness_at` memo size, or None above the cap."""
    try:
        idx = witness_index(net)
    except SubsetCapExceeded:
        return None
    t0 = time.perf_counter()
    WitnessIndex(net)
    build_ms = (time.perf_counter() - t0) * 1e3
    memo = sum(len(data.memo) for data in idx.entries)
    clean = [len(data.clean) for data in idx.entries]
    return (f"{'':28} witness index: memo={memo} clean={sum(clean)} "
            f"longest_clean={max(clean, default=0)} entries={len(idx.entries)} "
            f"build_ms={build_ms:.1f} lookups={LOOKUPS[idx]} at_memo={len(idx.at_memo)}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--budget", type=_positive("--budget"), default=2_000_000)
    ap.add_argument("--candidates", type=_positive("--candidates"), default=5_000)
    args = ap.parse_args()
    _count_lookups()
    for path in sorted(FIXTURES.glob("*.net")):
        net, marking = parse_net(path.read_text())
        nc = classify(net)
        b = bounds_for(nc, len(net.places), nc.max_weight)
        print(f"{path.name:28} {nc.finest():9} |P|={len(net.places):3} "
              f"|T|={len(net.transitions):3} bounds=({b.first},{b.second}) "
              f"{_decide(net, args)}")
        line = _index_line(net)
        if line is not None:
            print(line)
    for name in MACHINES:
        spec = parse_lba((FIXTURES / "lba" / f"{name}.lba").read_text())
        for word in ("aa", "ab", "ba", "bb"):
            if simulate_lba(spec, word) == "accept":
                net = build_stage(spec, word, "Nbar")[0]
                print(f"{name + '/' + word:28} machine   |P|={len(net.places):3} "
                      f"|T|={len(net.transitions):3} {_decide(net, args)}")


if __name__ == "__main__":
    main()
