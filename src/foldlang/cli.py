"""Command-line front end.

Subcommands: fold, enum, member, pump, verify, refute-unary.  Exit codes:
0 success, 1 domain failure (verification failed, no pumpable pair, a
malformed spec, family, regex or grammar, ...), 2 command-line usage
error.  Strings on the command line are raw; the literal token ""
denotes the empty string.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import pumping
from .errors import FoldlangError
from .folding import Direction, fold, fold_trace
from .fsystem import fs_enumerate, fs_member, load_spec
from .pumping import (PumpFamily, auto_plan, plan_to_family, verify_family,
                      verify_plan, PREDICATES)

DEFAULT_IMAX = 4
DEFAULT_MAX_LEN = 14


def render_trace(trace) -> str:
    """Step listing: one block per step, labeled by direction."""
    if not trace.steps:
        return "(empty)"
    lines = []
    for t, step in enumerate(trace.steps, start=1):
        label = "fold up" if step.direction is Direction.UP else "fold down"
        lines.append(f"Step {t}: {label} ({step.symbol!r})")
        lines.append(f"  stack: {step.stack}")
    lines.append(f"result: {trace.result}")
    return "\n".join(lines)


def _word(text: str) -> str:
    """argparse type of fold's w and v and member's w: the literal token
    "" (two double quotes) is the empty string."""
    return "" if text == '""' else text


def _count(text: str) -> int:
    """argparse type of --max-len, --imax and --bound: an int >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an int >= 0, got {text!r}")
    return int(text)


@functools.cache  # built at the first run(); building costs far more than parsing
def _build_parser():
    parser = argparse.ArgumentParser(prog="foldlang",
                                     description="String folding systems toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fold", help="fold a string under a direction string")
    p.add_argument("w", type=_word)
    p.add_argument("v", type=_word)
    p.add_argument("--trace", action="store_true")

    p = sub.add_parser("enum", help="enumerate L(Phi) up to a length")
    p.add_argument("spec")
    p.add_argument("--max-len", type=_count, default=DEFAULT_MAX_LEN)

    p = sub.add_parser("member", help="decide membership in L(Phi)")
    p.add_argument("spec")
    p.add_argument("w", type=_word)

    p = sub.add_parser("pump", help="build and verify a pump family")
    p.add_argument("spec")
    p.add_argument("--imax", type=_count, default=DEFAULT_IMAX)
    p.add_argument("--json", action="store_true", dest="json_out")
    p.add_argument("--out")

    p = sub.add_parser("verify", help="verify a pump family against a spec")
    p.add_argument("spec")
    p.add_argument("--family", required=True)
    p.add_argument("--imax", type=_count, default=DEFAULT_IMAX)

    p = sub.add_parser("refute-unary", help="find a pumping witness leaving a unary language")
    p.add_argument("--predicate", required=True, choices=sorted(PREDICATES))
    p.add_argument("--family", required=True)
    p.add_argument("--bound", type=_count, default=64)

    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return _dispatch(args)
    except FoldlangError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "fold":
        w, v = args.w, args.v
        if args.trace:
            print(render_trace(fold_trace(w, v)))
        else:
            print(fold(w, v))
        return 0

    if args.command == "enum":
        phi = load_spec(args.spec)
        sys.stdout.writelines(f"{w}\n" for w in fs_enumerate(phi, args.max_len))
        return 0

    if args.command == "member":
        phi = load_spec(args.spec)
        ok, witness = fs_member(phi, args.w, with_witness=True)
        if ok:
            print(f"member: fold({witness[0]!r}, {witness[1]!r})")
            return 0
        print("not a member")
        return 1

    if args.command == "pump":
        phi = load_spec(args.spec)
        plan = auto_plan(phi)
        plan_report = verify_plan(plan, phi)
        family = plan_to_family(plan)
        fam_report = verify_family(family, phi, range(args.imax + 1))
        doc = family.to_json()
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(doc + "\n")
        if args.json_out:
            print(json.dumps({
                "family": json.loads(doc),
                "plan": {"lemma": plan.lemma, "case": plan.case, "j0": plan.j0,
                         "xi": list(plan.xi), "mu": list(plan.mu)},
                "plan_verified": plan_report.passed,
                "family_verified": fam_report.passed,
                "imax": args.imax,
            }))
        else:
            print(doc)
            print(f"plan: lemma={plan.lemma}"
                  + (f" case={plan.case}" if plan.case else "")
                  + f" j0={plan.j0} windows={plan.m}")
            print(f"plan reconstruction j={plan.j0}..{plan.j0 + 3}: "
                  + ("PASS" if plan_report.passed else "FAIL"))
            print(f"verified i=0..{args.imax}: "
                  + ("PASS" if fam_report.passed else "FAIL"))
        return 0 if plan_report.passed and fam_report.passed else 1

    if args.command == "verify":
        phi = load_spec(args.spec)
        family = _load_family(args.family)
        report = verify_family(family, phi, range(args.imax + 1))
        print(report.summary())
        print("PASS" if report.passed else "FAIL")
        return 0 if report.passed else 1

    if args.command == "refute-unary":
        family = _load_family(args.family)
        witness = pumping.refute_unary_family(
            PREDICATES[args.predicate], family, args.bound)
        if witness is None:
            print(f"no witness up to i={args.bound}")
            return 1
        print(f"witness i={witness}: pumped length {family.length_at(witness)} "
              f"fails predicate {args.predicate!r}")
        return 0

    raise FoldlangError(f"unknown command {args.command!r}")


def _load_family(path) -> PumpFamily:
    with open(path, "rb") as fh:  # from_json reports bytes that are not UTF-8
        return PumpFamily.from_json(fh.read())


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
