"""Command-line front end.

Subcommands: check, enumerate, tables, prove, rules.  Exit codes follow
the CI contract: 0 when the requested proof closes (or the input is
valid), 1 when branches stay open, 2 for usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .engine import FIGURE_IDS, prove_proposition2, prove_theorem1
from .ledger import OrientationLedger
from .rules import RULES, Candidate, check_rule_ids, evaluate_all
from .schemes import SchemeError, enumerate_three_nest_schemes, parse_real_scheme

EXIT_OK = 0
EXIT_OPEN = 1
EXIT_USAGE = 2


def _print(*values, **kwargs) -> None:
    """print() to stdout.  When the reader closes the pipe early, as
    `| head` does, stdout is pointed at os.devnull, as the Python docs
    recommend: the command runs to its end, unseen, and exits with its own
    code, since exit 1 would mean open branches."""
    try:
        print(*values, **kwargs)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _cmd_check(args) -> int:
    try:
        scheme = parse_real_scheme(args.scheme, strict=not args.relaxed)
    except SchemeError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    _print(f"valid: {scheme}")
    _print(f"nests: 3, alpha = {scheme.alpha}, beta = {scheme.beta}")
    _print(f"all-even: {'yes' if scheme.all_even else 'no'}")
    if args.ledger:
        try:
            with open(args.ledger, "r", encoding="utf-8") as fh:
                ledger = OrientationLedger.from_json_dict(json.load(fh))
            ledger.validate(sum(scheme.alpha))
        except KeyError as err:
            print(f"error: ledger {args.ledger}: missing field {err}", file=sys.stderr)
            return EXIT_USAGE
        except (OSError, TypeError, ValueError, RecursionError) as err:
            # ValueError covers json.JSONDecodeError and LedgerError;
            # RecursionError, JSON nested deeper than json.load reads.
            print(f"error: ledger {args.ledger}: {err}", file=sys.stderr)
            return EXIT_USAGE
        candidate = Candidate(ledger=ledger)
        for rule_id, verdict in evaluate_all(candidate).items():
            line = f"{rule_id}: {verdict.status}"
            if verdict.evidence:
                line += f" {json.dumps(verdict.evidence, sort_keys=True)}"
            _print(line)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    if args.beta is not None and args.beta < 0:
        print(f"error: --beta must be non-negative, got {args.beta}", file=sys.stderr)
        return EXIT_USAGE
    predicate = None
    if args.even and args.beta is not None:
        predicate = lambda s: s.all_even and s.beta == args.beta
    elif args.even:
        predicate = lambda s: s.all_even
    elif args.beta is not None:
        predicate = lambda s: s.beta == args.beta
    schemes = enumerate_three_nest_schemes(predicate)
    if args.format == "json":
        payload = [
            {"scheme": str(s), "alpha": list(s.alpha), "beta": s.beta}
            for s in schemes
        ]
        _print(json.dumps({"count": len(schemes), "schemes": payload}, indent=2))
    else:
        for s in schemes:
            _print(s)
    return EXIT_OK


def _cmd_tables(args) -> int:
    # the renderer loads here, so no other command pays for its import
    from .figures import build_figure, render_text, render_tsv

    fig = build_figure(args.figure)
    out = render_tsv(fig) if args.format == "tsv" else render_text(fig)
    _print(out, end="")
    return EXIT_OK


def _cmd_prove(args) -> int:
    ablate = tuple(args.ablate or ())
    try:
        check_rule_ids(ablate)
    except KeyError as err:
        print(f"error: {err.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    if args.target == "theorem1":
        report = prove_theorem1(ablate=ablate)
        closed = report.all_excluded
        _print(
            f"theorem1: {report.excluded_count} schemes excluded "
            f"({report.known_count} previously known, {report.new_count} new)"
        )
        for result in report.results:
            if not result.excluded:
                names = ", ".join(t.candidate for t in result.surviving)
                _print(f"open: {result.scheme} survives via {names}")
    else:
        report = prove_proposition2(ablate=ablate)
        closed = report.all_closed
        _print(f"proposition2: {len(report.rows)} rows, all closed: {closed}")
        for row in report.rows:
            rules = ", ".join(sorted({c.rule_id for c in row.closures}))
            extra = f" [{row.note}]" if row.note else ""
            _print(
                f"  {[str(s) for s in row.schemes]} E0={row.e0} "
                f"closed={row.closed} via {rules}{extra}"
            )
    if args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
        except OSError as err:
            print(f"error: cannot write {args.json}: {err}", file=sys.stderr)
            return EXIT_USAGE
        _print(f"report written to {args.json}")
    return EXIT_OK if closed else EXIT_OPEN


def _cmd_rules(args) -> int:
    for rule in RULES.values():
        _print(f"{rule.rule_id}")
        _print(f"  citation:   {rule.citation}")
        _print(f"  hypothesis: {rule.hypothesis}")
        _print(f"  statement:  {rule.statement}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nest-prohibitor",
        description="Verification and enumeration engine for three-nest "
        "degree-9 M-curve restrictions",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse and validate a scheme")
    p_check.add_argument("scheme", help="bracket notation, e.g. '<J + 1<2> + 1<2> + 1<20> + 1>'")
    p_check.add_argument("--ledger", help="orientation ledger JSON to run the rules on")
    p_check.add_argument(
        "--relaxed", action="store_true", help="skip the 25-oval total check"
    )
    p_check.set_defaults(func=_cmd_check)

    p_enum = sub.add_parser("enumerate", help="list canonical three-nest schemes")
    p_enum.add_argument("--even", action="store_true", help="all nest sizes even")
    p_enum.add_argument("--beta", type=int, default=None, help="fix the outer count")
    p_enum.add_argument("--format", choices=("text", "json"), default="text")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_tables = sub.add_parser("tables", help="regenerate a reference table")
    p_tables.add_argument("--figure", type=int, required=True, choices=FIGURE_IDS)
    p_tables.add_argument("--format", choices=("text", "tsv"), default="text")
    p_tables.set_defaults(func=_cmd_tables)

    p_prove = sub.add_parser("prove", help="run an elimination driver")
    p_prove.add_argument("target", choices=("theorem1", "proposition2"))
    p_prove.add_argument(
        "--ablate", action="append", metavar="RULE", help="drop a rule by id"
    )
    p_prove.add_argument("--json", help="write the report JSON to this path")
    p_prove.set_defaults(func=_cmd_prove)

    p_rules = sub.add_parser("rules", help="inspect the rule catalog")
    p_rules.add_argument("action", choices=("list",))
    p_rules.set_defaults(func=_cmd_rules)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    code = args.func(args)
    _print(end="", flush=True)  # a pipe closed after the last write shows here
    return code


if __name__ == "__main__":
    sys.exit(main())
