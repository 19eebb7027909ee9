"""Command line front end.

`nambu run FILE` executes a session script and prints one verdict line per
command; `nambu eval TEXT` runs an inline session and prints its last value.
Exit status: 0 when every report verdict is PASS or VERIFIED_ON_FAMILY,
1 when some command failed or errored, 2 on a parse or usage problem,
including a script that cannot be read as UTF-8 or a --json file that
cannot be written.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .parser import ParseError, parse
from .session import OK_VERDICTS, RunResult, run_session


def _print_human(result: RunResult, out) -> None:
    for w in result.warnings:
        print(f"warning: {w}", file=out)
    for r in result.reports:
        print(f"{r.verdict}  {r.command}", file=out)
        if r.value is not None:
            print(f"    = {r.value}", file=out)
        if r.witness is not None:
            print(f"    witness: {r.witness}", file=out)
    n = len(result.reports)
    bad = sum(1 for r in result.reports if r.verdict not in OK_VERDICTS)
    tail = "all ok" if bad == 0 else f"{bad} failing"
    print(f"{n} report{'s' if n != 1 else ''}, {tail}", file=out)


def _run(args: argparse.Namespace) -> int:
    try:
        if args.file == "-":
            source = sys.stdin.buffer.read().decode("utf-8")
        else:
            with open(args.file, encoding="utf-8") as f:
                source = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        session = parse(source)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    result = run_session(session, seed=args.seed, degree=args.degree)
    if args.json is not None:
        text = json.dumps(result.to_dict(), indent=2)
        if args.json == "-":
            print(text)
        else:
            try:
                with open(args.json, "w", encoding="utf-8") as f:
                    f.write(text + "\n")
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            _print_human(result, sys.stdout)
    else:
        _print_human(result, sys.stdout)
    return 0 if result.ok else 1


def _eval(args: argparse.Namespace) -> int:
    try:
        session = parse(args.text)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    result = run_session(session, seed=args.seed, degree=args.degree)
    if not result.ok:
        _print_human(result, sys.stderr)
        return 1
    values = [r.value for r in result.reports if r.value is not None]
    if not values:
        print("error: no value to print; end with an expression or bracket",
              file=sys.stderr)
        return 2
    print(values[-1])
    return 0


def _degree(text: str) -> int:
    """A sweep degree: an integer of at least 1 (degree 0 samples only constants)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"degree must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nambu",
        description="exact checks for bracket structures on coordinate charts",
    )
    sub = ap.add_subparsers(dest="mode", required=True)

    runp = sub.add_parser("run", help="execute a session script")
    runp.add_argument("file", help="script path, or - for stdin")
    runp.add_argument("--json", metavar="OUT",
                      help="also write a report-v1 JSON document (- for stdout)")
    runp.add_argument("--seed", type=int, default=0,
                      help="seed for randomized checks (default 0)")
    runp.add_argument("--degree", type=_degree, default=2,
                      help="sweep degree for family checks (default 2)")
    runp.set_defaults(func=_run)

    evalp = sub.add_parser("eval", help="run inline statements, print last value")
    evalp.add_argument("text", help="statements separated by ; or newlines")
    evalp.add_argument("--seed", type=int, default=0)
    evalp.add_argument("--degree", type=_degree, default=2)
    evalp.set_defaults(func=_eval)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
