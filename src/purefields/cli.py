"""Command-line front end.

Subcommands: basis (integral basis + index ledger), index (ledger only),
polygon (principal Newton polygon of X^(p^k) - m), atlas (parametric rows
per residue class), verify (independent certification of a freshly built
basis).  Results go to stdout, diagnostics to stderr.

Exit codes: 0 success/certified, 1 verification failure, 2 invalid input,
3 resource bound hit (undecided square-freeness, work over --enum-budget,
unresolved atlas class).  The work of basis and verify is n^2, that of
atlas n0 * n^2 and that of polygon p^k; each is checked once, before
anything is built, and over the budget the command prints nothing on
stdout and one reason on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from collections.abc import Callable

from .exactmath import QPolynomial, is_prime
from .newton import binomial_polygon, phi_index, polygon_ascii, polygon_json_dict
from .oracle import Proved, Skipped, certification_json_dict, certify
from .periodicity import UnknownRow, atlas, atlas_json_dict, atlas_pretty
from .purebasis import (
    ENUM_BUDGET_DEFAULT,
    CertificationSkipped,
    IndexReport,
    PureField,
    UnknownSquareFreeError,
    basis_json_dict,
    budget_skip_reason,
    build_basis,
    index_report,
    integral_basis,
    ledger_json_dict,
)

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_RESOURCE_BOUND = 3

log = logging.getLogger("purefields")


def _configure_logging() -> None:
    name = os.environ.get("PUREFIELDS_LOG", "").upper()
    if name:
        # an int only for a level name; any other name, BASIC_FORMAT too, means WARNING
        level = logging.getLevelName(name)
        logging.basicConfig(
            stream=sys.stderr,
            level=level if isinstance(level, int) else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
        )


def canonical_json(obj) -> str:
    """Deterministic serialization: sorted keys, no whitespace, no floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(args, json_obj, pretty: Callable[[], str]) -> None:
    """stdout per --format; --output-path always receives the JSON form.

    The pretty text is rendered only when it is written: rendering converts
    every integer to decimal, which at large n costs as much as the command.
    """
    if args.output_path:
        try:
            with open(args.output_path, "w", encoding="utf-8") as fh:
                fh.write(canonical_json(json_obj))
        except OSError as exc:
            raise ValueError(f"cannot write --output-path: {exc}") from exc
    if args.format == "pretty":
        sys.stdout.write(pretty())
    elif not args.output_path:
        sys.stdout.write(canonical_json(json_obj))


def _certification_pretty(field: PureField, report) -> str:
    lines = [f"n = {field.n}, m = {field.m}"]
    good = sum(report.integrality)
    lines.append(f"integrality: {good}/{len(report.integrality)} integral")
    lines.append(f"ring closure: {'ok' if report.ring_closed else 'FAILED'}")
    lines.append(
        f"discriminant accounting: {'ok' if report.disc_match else 'FAILED'}"
    )
    for p, result in sorted(report.maximality.items()):
        if isinstance(result, Proved):
            lines.append(f"p = {p}: maximality proved")
        elif isinstance(result, Skipped):
            lines.append(f"p = {p}: skipped ({result.reason})")
        else:
            lines.append(f"p = {p}: counterexample {result.element}")
    lines.append("certified" if report.certified else "NOT CERTIFIED")
    return "\n".join(lines) + "\n"


def _ledger_pretty(report: IndexReport) -> str:
    index_text = " * ".join(
        f"{p}^{e}" for p, e in sorted(report.per_prime.items()) if e
    ) or "1"
    return (
        f"index: {index_text} = {report.total_index}\n"
        f"polynomial discriminant: {report.poly_discriminant}\n"
        f"field discriminant: {report.field_discriminant}\n"
    )


def _cmd_basis(args) -> int:
    field = PureField.create(args.n, args.m)
    log.info("building integral basis for n=%d, m=%d", field.n, field.m)
    basis, report = integral_basis(field, enum_budget=args.enum_budget)

    def pretty() -> str:
        row = ", ".join(str(e) for e in basis.elements)
        return (
            f"n = {field.n}, m = {field.m}\n"
            f"basis: {row}\n"
            f"{_ledger_pretty(report)}"
        )

    _emit(args, basis_json_dict(basis, report), pretty)
    return EXIT_OK


def _cmd_index(args) -> int:
    field = PureField.create(args.n, args.m)
    report = index_report(field)
    _emit(
        args,
        ledger_json_dict(field, report),
        lambda: f"n = {field.n}, m = {field.m}\n{_ledger_pretty(report)}",
    )
    return EXIT_OK


def _cmd_polygon(args) -> int:
    p, k, m = args.p, args.k, args.m
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if m == 0:
        raise ValueError("m must be nonzero")
    over_budget = _polygon_skip_reason(p, k, args.enum_budget)
    if over_budget is not None:
        print(
            f"polygon skipped: {over_budget} (raise --enum-budget to draw it)",
            file=sys.stderr,
        )
        return EXIT_RESOURCE_BOUND
    degree = p**k
    phi, polygon = binomial_polygon(m, p, degree)
    bound = phi_index(polygon, 1)
    exact = all(side.separable for side in polygon.sides)
    phi_text = str(QPolynomial(phi))
    doc = {
        "p": p,
        "k": k,
        "m": m,
        "phi": phi_text,
        "polygon": polygon_json_dict(polygon, 1),
        "index_bound": bound,
        "exact": exact,
    }
    _emit(
        args,
        doc,
        lambda: (
            f"f = X^{degree} - ({m}), p = {p}, phi = {phi_text}\n"
            f"{polygon_ascii(polygon)}\n"
            f"index bound: {bound} ({'exact' if exact else 'lower bound only'})\n"
        ),
    )
    return EXIT_OK


def _polygon_skip_reason(p: int, k: int, enum_budget: int) -> str | None:
    """Why polygon is skipped for budget, or None when its work measure
    p^k is within it.  p^k is formed one factor at a time and only while it
    stays within the budget, so a huge k is refused at once."""
    power = 1
    for _ in range(k):
        power *= p
        if power > enum_budget:
            return f"p^k = {p}^{k} exceeds the budget {enum_budget}"
    return None


def _cmd_atlas(args) -> int:
    atl = atlas(args.n, scan_bound=args.scan_bound, enum_budget=args.enum_budget)
    _emit(args, atlas_json_dict(atl), lambda: atlas_pretty(atl))
    unresolved = [
        r for r, row in sorted(atl.rows.items()) if isinstance(row, UnknownRow)
    ]
    if unresolved:
        print(
            f"classes {unresolved} lack two square-free witnesses below the "
            f"scan bound (raise --scan-bound)",
            file=sys.stderr,
        )
        return EXIT_RESOURCE_BOUND
    return EXIT_OK


def _cmd_verify(args) -> int:
    field = PureField.create(args.n, args.m)
    # over budget the report would hold no proof at all, and at huge n the
    # build alone would not finish
    over_budget = budget_skip_reason(field.n, args.enum_budget)
    if over_budget is not None:
        raise CertificationSkipped(over_budget)
    certification = certify(build_basis(field), enum_budget=args.enum_budget)
    _emit(
        args,
        certification_json_dict(certification),
        lambda: _certification_pretty(field, certification),
    )
    if not certification.certified:
        print(
            f"verification failed: {', '.join(certification.failures)}",
            file=sys.stderr,
        )
        return EXIT_VERIFICATION_FAILED
    return EXIT_OK


def _non_negative_int(text: str) -> int:
    """argparse type of a budget or a bound: an int of at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--format",
        choices=("json", "pretty"),
        default="json",
        help="stdout format (default json)",
    )
    output.add_argument(
        "--output-path",
        default=None,
        help="also write the JSON result to this file; stdout then stays "
        "silent unless --format pretty",
    )

    radicand = argparse.ArgumentParser(add_help=False)
    radicand.add_argument("--n", type=int, required=True, help="field degree")
    radicand.add_argument("--m", type=int, required=True, help="radicand")

    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument(
        "--enum-budget",
        type=_non_negative_int,
        default=ENUM_BUDGET_DEFAULT,
        help="bound on the work: n^2 for basis and verify, n0 * n^2 for "
        "atlas, p^k for polygon (default 2^16, every n <= 256)",
    )

    parser = argparse.ArgumentParser(
        prog="purefields",
        description="Exact integral bases of pure fields Q(m^(1/n))",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_basis = sub.add_parser(
        "basis",
        parents=[radicand, budget, output],
        help="integral basis plus index ledger",
    )
    p_basis.set_defaults(func=_cmd_basis)

    p_index = sub.add_parser(
        "index", parents=[radicand, output], help="index ledger only"
    )
    p_index.set_defaults(func=_cmd_index)

    p_polygon = sub.add_parser(
        "polygon", parents=[budget, output], help="Newton polygon of X^(p^k) - m"
    )
    p_polygon.add_argument("--p", type=int, required=True, help="prime")
    p_polygon.add_argument("--k", type=int, required=True, help="exponent")
    p_polygon.add_argument("--m", type=int, required=True, help="radicand")
    p_polygon.set_defaults(func=_cmd_polygon)

    p_atlas = sub.add_parser(
        "atlas",
        parents=[budget, output],
        help="parametric basis rows per residue class",
    )
    p_atlas.add_argument("--n", type=int, required=True, help="field degree")
    p_atlas.add_argument(
        "--scan-bound",
        type=_non_negative_int,
        default=None,
        help="witness search bound (default 10 * n0)",
    )
    p_atlas.set_defaults(func=_cmd_atlas)

    p_verify = sub.add_parser(
        "verify",
        parents=[radicand, budget, output],
        help="build a basis and certify it independently",
    )
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def run(argv: list[str]) -> int:
    """Parse argv, dispatch, and map errors to documented exit codes.

    Radicands and discriminants may pass Python's limit on int <-> str
    conversion, so it is lifted until the command returns.
    """
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _run(argv: list[str]) -> int:
    _configure_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UnknownSquareFreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_BOUND
    except CertificationSkipped as exc:
        print(f"{exc} (raise --enum-budget to certify)", file=sys.stderr)
        return EXIT_RESOURCE_BOUND
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED


def main() -> None:
    sys.exit(run(sys.argv[1:]))
