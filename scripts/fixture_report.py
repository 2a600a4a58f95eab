#!/usr/bin/env python3
"""Print class flags, bounds and structural-liveness verdicts for every
fixture net, with how many box candidates each decision tested and how many
of those the siphon test alone refuted.
Usage: python scripts/fixture_report.py [--budget N] [--candidates N]"""
import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from ionet import bounds_for, classify, decide_slp, parse_net  # noqa: E402
from ionet.cli import _positive  # noqa: E402

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--budget", type=_positive("--budget"), default=2_000_000)
    ap.add_argument("--candidates", type=_positive("--candidates"), default=5_000)
    args = ap.parse_args()
    for path in sorted(FIXTURES.glob("*.net")):
        net, marking = parse_net(path.read_text())
        nc = classify(net)
        b = bounds_for(nc, len(net.places), nc.max_weight)
        t0 = time.perf_counter()
        verdict = decide_slp(net, candidate_budget=args.candidates,
                             node_budget=args.budget)
        dt = time.perf_counter() - t0
        cert = ""
        if verdict.certificate is not None:
            cert = " cert=" + ",".join(map(str, verdict.certificate))
        print(f"{path.name:28} {nc.finest():9} |P|={len(net.places):3} "
              f"|T|={len(net.transitions):3} bounds=({b.first},{b.second}) "
              f"{verdict.status}{cert} candidates={verdict.candidates_tested} "
              f"siphon_settled={verdict.siphon_settled}  [{dt:.1f}s]")


if __name__ == "__main__":
    main()
