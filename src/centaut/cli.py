"""Command line front end.

Exit codes: 0 success, 1 verification mismatch or expectation failure,
2 usage or input errors.  Sources are "builtin:<expr>" expressions, group
file paths, or "perm:<degree>:<cycles>" with cycle notation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from typing import Optional, Sequence

from .abelian import AbelianInvariants, hom_invariants
from .central import DEFAULT_HOM_CAP
from .criteria import theorem21_predicate
from .errors import CentautError, InvalidInvariants
from .families import list_builtins
from .groupio import (
    default_corpus,
    read_manifest,
    resolve_source,
    write_group,
)
from .groups import DEFAULT_ORDER_CAP
from .harness import (
    REPORT_FORMATS,
    VerificationReport,
    analyze_source,
    format_report,
    format_timings,
    record_dict,
    run_verification,
)

ENV_CAP = "CENTAUT_CAP"
ENV_HOM_CAP = "CENTAUT_HOM_CAP"
MAX_CAP = 8192  # the largest order cap taken: its int32 table is 256 MiB


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        sys.stderr.write(f"error: {name} must be an integer, got {raw!r}\n")
        raise SystemExit(2) from None


def _invariants(p: int, text: str) -> AbelianInvariants:
    if p >= 2**31:  # below it the prime test takes <= 46,341 trial divisions
        raise InvalidInvariants(f"prime {p} is not below 2^31")
    try:
        exps = [int(t) for t in re.split(r"[\s,]+", text.strip()) if t]
    except ValueError:
        raise InvalidInvariants(f"invariants must be integers, got {text!r}") from None
    return AbelianInvariants(p, tuple(sorted(exps, reverse=True)))


def _check_order_digits(p: int, k: int) -> None:
    """InvalidInvariants if p^k has more digits than str() prints, never building p^k."""
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if k * math.log10(p) >= limit:
        raise InvalidInvariants(f"Hom order {p}^{k} has more than {limit} decimal digits")


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_analyze(args: argparse.Namespace) -> int:
    rec = analyze_source(
        args.name or args.source, args.source, cap=args.cap, hom_cap=args.hom_cap
    )
    if args.format == "table":
        text = format_report(VerificationReport([rec]), "table")
    else:
        text = json.dumps(record_dict(rec), sort_keys=True, indent=2) + "\n"
    _emit(text, args.output)
    if args.timings:
        sys.stderr.write(format_timings([rec]))
    if rec.status == "error":
        sys.stderr.write(f"error: {rec.error}\n")
        return 2
    return 1 if rec.agreement is False else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    manifest = read_manifest(args.manifest) if args.manifest else default_corpus()
    report = run_verification(
        manifest, jobs=args.jobs, cap=args.cap, hom_cap=args.hom_cap
    )
    _emit(format_report(report, args.format), args.output)
    if args.timings:
        sys.stderr.write(format_timings(report.records))
    return 0 if report.ok else 1


def _cmd_hom(args: argparse.Namespace) -> int:
    a = _invariants(args.p, args.a)
    b = _invariants(args.p, args.b)
    _check_order_digits(args.p, a.rank * b.rank)  # log_p |Hom| >= #pairs
    h = hom_invariants(a, b)
    _check_order_digits(args.p, sum(h.exponents))
    out = {
        "p": args.p,
        "a": list(a.exponents),
        "b": list(b.exponents),
        "hom": list(h.exponents),
        "order": h.order,
    }
    _emit(json.dumps(out, sort_keys=True, indent=2) + "\n", args.output)
    return 0


def _cmd_predicate(args: argparse.Namespace) -> int:
    alpha = _invariants(args.p, args.alpha)
    beta = _invariants(args.p, args.beta)
    ok = theorem21_predicate(alpha, beta, args.gamma)
    out = {
        "p": args.p,
        "alpha": list(alpha.exponents),
        "beta": list(beta.exponents),
        "gamma": args.gamma,
        "minimal": ok,
    }
    _emit(json.dumps(out, sort_keys=True, indent=2) + "\n", args.output)
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    G = resolve_source(args.spec, cap=args.cap)
    write_group(G, args.output, name=args.name)
    sys.stderr.write(f"wrote order-{G.order} group to {args.output}\n")
    return 0


def _cmd_list_builtins(args: argparse.Namespace) -> int:
    rows = list_builtins()
    width = max(len(sig) for _, sig, _ in rows)
    lines = [f"{sig:<{width}}  {desc}" for _, sig, desc in rows]
    lines.append("")
    lines.append('products: join terms with " x ", e.g. "dihedral(16) x cyclic(2)"')
    lines.append("sources:  builtin:<expr> | <group-file.json> | perm:<degree>:<cycles>")
    _emit("\n".join(lines) + "\n", None)
    return 0


def build_parser() -> argparse.ArgumentParser:
    cap_default = _env_int(ENV_CAP, DEFAULT_ORDER_CAP)
    hom_default = _env_int(ENV_HOM_CAP, DEFAULT_HOM_CAP)
    parser = argparse.ArgumentParser(
        prog="centaut",
        description="Decide whether a p-group's central automorphisms are "
        "as few as its structure allows.",
        epilog=f"Environment: {ENV_CAP} overrides the order cap "
        f"(default {DEFAULT_ORDER_CAP}, at most {MAX_CAP}), {ENV_HOM_CAP} the enumeration cap "
        f"(default {DEFAULT_HOM_CAP}).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cap", type=int, default=cap_default, help="max group order")
        p.add_argument(
            "--hom-cap", type=int, default=hom_default, help="max candidate maps"
        )
        p.add_argument(
            "--timings",
            action="store_true",
            help="write seconds per stage to stderr (the report is unchanged)",
        )

    p = sub.add_parser("analyze", help="classify one group and cross-check it")
    p.add_argument("source", help="builtin:<expr>, file path, or perm:<deg>:<cycles>")
    p.add_argument("--name", help="display name (defaults to the source)")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--output", "-o", help="write to a file instead of stdout")
    add_run_options(p)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("verify", help="run the corpus (or a manifest) end to end")
    p.add_argument("--manifest", help="manifest file (default: built-in corpus)")
    p.add_argument("--jobs", type=int, default=1, help="workers, at most one per CPU")
    p.add_argument("--format", choices=REPORT_FORMATS, default="json")
    p.add_argument("--output", "-o", help="write to a file instead of stdout")
    add_run_options(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("hom", help="invariants of Hom(A, B) for abelian p-groups")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--a", required=True, help='invariants, e.g. "2,1"')
    p.add_argument("--b", required=True, help='invariants, e.g. "1"')
    p.add_argument("--output", "-o")
    p.set_defaults(fn=_cmd_hom)

    p = sub.add_parser(
        "predicate", help="cyclic-center minimality test on invariant lists"
    )
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--alpha", required=True, help="abelianization invariants")
    p.add_argument("--beta", required=True, help="second-center quotient invariants")
    p.add_argument("--gamma", type=int, required=True, help="center exponent (log_p)")
    p.add_argument("--output", "-o")
    p.set_defaults(fn=_cmd_predicate)

    p = sub.add_parser("build", help="materialize a source as a group file")
    p.add_argument("spec", help="builtin:<expr> or perm:<degree>:<cycles>")
    p.add_argument("--output", "-o", required=True)
    p.add_argument("--name", help="embed a display name")
    p.add_argument("--cap", type=int, default=cap_default)
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("list-builtins", help="show the family builders")
    p.set_defaults(fn=_cmd_list_builtins)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "cap", 0) > MAX_CAP:  # from --cap or CENTAUT_CAP
        parser.error(f"order cap {args.cap} (--cap or {ENV_CAP}) is above {MAX_CAP}")
    try:
        return args.fn(args)
    except CentautError as e:
        sys.stderr.write(f"error: {type(e).__name__}: {e}\n")
        return 2
    except OSError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
