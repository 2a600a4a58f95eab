"""Command line surface.

Exit codes: 0 decided, 2 invalid input, 3 budget exceeded.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .classify import classify
from .generate import random_net
from .lba import parse_lba, build_stage, reduction_correctness_check, STAGES
from .liveness import BudgetExceeded, SubsetCapExceeded, check_witness, find_witness
from .nets import NetError, parse_net, serialize_net
from .ordinarize import ordinarize, embed_marking
from .slp import bounds_for, decide_slp, is_nonlive, truncate

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3


def _positive(source):
    """Argument type of a count flag: a positive integer, else an error
    naming `source`."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = 0  # rejected below, like any non-positive value
        if value < 1:
            raise argparse.ArgumentTypeError(
                f"{source} must be a positive integer, got {text!r}")
        return value
    return parse


def _read(path):
    """Text of a file named on the command line; bytes that are not UTF-8
    are invalid input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise NetError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _load_net(path):
    return parse_net(_read(path))


def _parse_marking(net, text):
    parts = [p for p in text.replace(",", " ").split() if p]
    try:
        marking = tuple(int(p) for p in parts)
    except ValueError:
        raise NetError(f"bad marking {text!r}") from None
    net.check_marking(marking)
    return marking


def _pick_marking(net, stored, args):
    if args.marking:
        return _parse_marking(net, args.marking)
    if stored is not None:
        return stored
    raise NetError("no marking: none stored in the file and none passed via --marking")


def _write(args, text):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, payload, text_lines):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _witness_payload(net, witness):
    data = witness.to_dict()
    variant = "ordinary" if classify(net).ordinary else "weighted"
    report = check_witness(net, witness, variant=variant)
    data["conditions"] = report.to_dict()
    return data


def cmd_classify(args):
    net, marking = _load_net(args.file)
    nc = classify(net)
    payload = {
        "name": net.name, "places": len(net.places), "transitions": len(net.transitions),
        "ordinary": nc.ordinary, "conservative": nc.conservative, "bimo": nc.bimo,
        "bio": nc.bio, "imo": nc.imo, "io": nc.io, "max_weight": nc.max_weight,
        "finest": nc.finest(),
    }
    flags = " ".join(k for k in ("ordinary", "conservative", "bimo", "bio", "imo", "io")
                     if payload[k])
    _emit(args, payload, [
        f"net {net.name}: |P|={payload['places']} |T|={payload['transitions']} "
        f"w={nc.max_weight}",
        f"class: {nc.finest()} ({flags or 'none'})",
    ])
    return EXIT_OK


def _verdict_exit(status):
    return EXIT_BUDGET if status == "budget_exceeded" else EXIT_OK


def cmd_live(args):
    net, stored = _load_net(args.file)
    marking = _pick_marking(net, stored, args)
    t0 = time.monotonic()
    verdict = is_nonlive(net, marking, node_budget=args.budget,
                         subset_cap=args.subset_cap)
    wall = (time.monotonic() - t0) * 1000.0
    payload = verdict.to_dict()
    payload["stats"]["wall_ms"] = wall
    lines = [f"marking {','.join(map(str, marking))}: {verdict.status}"]
    if verdict.witness is not None:
        payload["witness"] = _witness_payload(net, verdict.witness)
        lines.append(f"  crucial places: {' '.join(verdict.witness.p_cruc) or '-'}")
        lines.append(f"  dead: {' '.join(verdict.witness.t_dead)}")
    _emit(args, payload, lines)
    return _verdict_exit(verdict.status)


def cmd_slp(args):
    net, _ = _load_net(args.file)
    t0 = time.monotonic()
    verdict = decide_slp(net, candidate_budget=args.candidates,
                         node_budget=args.budget, subset_cap=args.subset_cap)
    wall = (time.monotonic() - t0) * 1000.0
    payload = verdict.to_dict()
    payload["stats"]["wall_ms"] = wall
    lines = [f"{net.name}: {verdict.status} "
             f"({verdict.candidates_tested} candidates)"]
    if verdict.certificate is not None:
        lines.append(f"  live marking: {','.join(map(str, verdict.certificate))}")
    _emit(args, payload, lines)
    return _verdict_exit(verdict.status)


def cmd_witness(args):
    net, stored = _load_net(args.file)
    marking = _pick_marking(net, stored, args)
    witness = find_witness(net, marking, subset_cap=args.subset_cap)
    if witness is None:
        _emit(args, {"witness": None}, ["no witness at this marking"])
        return EXIT_OK
    payload = {"witness": _witness_payload(net, witness)}
    _emit(args, payload, [
        f"crucial places: {' '.join(witness.p_cruc) or '-'}",
        f"dead: {' '.join(witness.t_dead)}",
    ])
    return EXIT_OK


def cmd_truncate(args):
    net, stored = _load_net(args.file)
    marking = _pick_marking(net, stored, args)
    out = truncate(net, marking)
    _emit(args, {"marking": list(out)}, [",".join(map(str, out))])
    return EXIT_OK


def cmd_ordinarize(args):
    net, stored = _load_net(args.file)
    ordn, omap = ordinarize(net)
    marking = embed_marking(omap, stored) if stored is not None else None
    _write(args, serialize_net(ordn, marking))
    return EXIT_OK


def cmd_lba(args):
    spec = parse_lba(_read(args.specfile))
    net, marking = build_stage(spec, args.word, args.stage,
                               include_idle_moves=args.idle_moves)
    _write(args, serialize_net(net, marking))
    return EXIT_OK


def cmd_check_reduction(args):
    spec = parse_lba(_read(args.specfile))
    report = reduction_correctness_check(
        spec, args.word, node_budget=args.budget,
        candidate_budget=args.candidates, check_slp=not args.skip_slp)
    payload = report.to_dict()
    payload["word"] = args.word
    _emit(args, payload, [
        f"word {args.word!r}: "
        f"machine={'accept' if report.accepts else 'reject'} "
        f"marked-net={'live' if report.marked_live else 'nonlive'} slp={report.slp_status}",
        f"agree: {report.agree}",
    ])
    if report.slp_status == "budget_exceeded":
        return EXIT_BUDGET
    return EXIT_OK


def cmd_gen(args):
    net = random_net(cls=args.cls, n_places=args.places, n_trans=args.trans,
                     wmax=args.wmax, seed=args.seed)
    _write(args, serialize_net(net))
    return EXIT_OK


def cmd_bounds(args):
    net, _ = _load_net(args.file)
    nc = classify(net)
    b = bounds_for(nc, len(net.places), nc.max_weight)
    _emit(args, {"class": nc.finest(), "first": b.first, "second": b.second},
          [f"{nc.finest()}: live-marking bound {b.first}, truncation bound {b.second}"])
    return EXIT_OK


def build_parser():
    flags = {
        "--marking": dict(help="comma-separated counts, else the stored marking"),
        "--budget": dict(type=_positive("--budget or IONET_BUDGET"),
                         default=os.environ.get("IONET_BUDGET") or 500_000,
                         help="exploration budget in states (env IONET_BUDGET)"),
        "--candidates": dict(type=_positive("--candidates"), default=200_000,
                             help="candidate-marking budget for structural liveness"),
        "--subset-cap": dict(type=_positive("--subset-cap"), default=16,
                             help="max |P| for witness subset enumeration"),
        "--json": dict(action="store_true", help="machine-readable output"),
        "--out": dict(help="write output to a file instead of stdout"),
    }

    parser = argparse.ArgumentParser(prog="ionet", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help_text, *names):
        """A subcommand reading exactly the shared flags in `names`."""
        p = sub.add_parser(name, help=help_text)
        for flag in names:
            p.add_argument(flag, **flags[flag])
        p.set_defaults(fn=fn)
        return p

    command("classify", cmd_classify, "net class flags",
            "--json").add_argument("file")
    command("live", cmd_live, "decide liveness of a marking",
            "--marking", "--budget", "--subset-cap", "--json").add_argument("file")
    command("slp", cmd_slp, "decide structural liveness",
            "--budget", "--candidates", "--subset-cap", "--json").add_argument("file")
    command("witness", cmd_witness, "search a non-liveness witness",
            "--marking", "--subset-cap", "--json").add_argument("file")
    command("truncate", cmd_truncate, "cap a marking at 2*w*|P|",
            "--marking", "--json").add_argument("file")
    command("bounds", cmd_bounds, "per-class token bounds",
            "--json").add_argument("file")
    command("ordinarize", cmd_ordinarize, "rewrite a weighted net into an ordinary one",
            "--out").add_argument("file")

    p = command("lba", cmd_lba, "compile a machine and word", "--out")
    p.add_argument("specfile")
    p.add_argument("word")
    p.add_argument("--stage", choices=STAGES, default="Nbar")
    p.add_argument("--idle-moves", action="store_true", dest="idle_moves",
                   help="keep move transitions that rewrite a symbol to itself")

    p = command("check-reduction", cmd_check_reduction,
                "acceptance vs liveness vs structural liveness",
                "--budget", "--candidates", "--json")
    p.add_argument("specfile")
    p.add_argument("word")
    p.add_argument("--skip-slp", action="store_true")

    p = command("gen", cmd_gen, "draw a seeded random net", "--out")
    p.add_argument("--class", dest="cls", default="io",
                   choices=("io", "imo", "bio", "bimo"))
    for flag, default in (("--places", 4), ("--trans", 4), ("--wmax", 1)):
        p.add_argument(flag, type=_positive(flag), default=default)
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    try:
        return args.fn(args)
    except (BudgetExceeded, SubsetCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if getattr(args, "json", False):
            stats = {"wall_ms": (time.monotonic() - t0) * 1000.0}
            if isinstance(exc, BudgetExceeded):
                stats["configs_explored"] = exc.explored
            print(json.dumps({"verdict": "budget_exceeded", "stats": stats},
                             indent=2, sort_keys=True))
        return EXIT_BUDGET
    except NetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except BrokenPipeError:
        return EXIT_OK
    except OSError as exc:  # a file named on the command line
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
