"""Command line front end.

Verbs: relations, groebner, nf, basis, hilbert, pairing, chern, betti and
verify.  Output formats: text (default), json (deterministic: sorted keys,
canonical polynomial strings, rationals as "num/den" strings) and latex
for polynomial-valued results.

Exit codes: 0 success, 1 a mathematical check failed, 2 usage error,
3 expression parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence, Tuple

from .betti import betti_cross_check, default_s_max, newstead_betti
from .cache import load_cached_basis, relation_basis_cached, save_cached_basis
from .chern import quotient_chern, tangent_chern
from .groebner import ORDER_TAG, hilbert_series, pairing_ratio, standard_monomials
from .relations import initial_terms, relations_by_definition, relations_by_recursion
from .ring import Monomial
from .textform import ParseError, parse_poly, to_latex
from .verify import run_verify

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_PARSE = 3

# the largest genus accepted: time and memory grow steeply with g, and the
# g=30 basis already takes about 1.6 s on one Xeon core
MAX_GENUS = 30
# the largest `chern --max-weight`: the top weight 3g-3 at the largest genus
MAX_WEIGHT = 3 * MAX_GENUS - 3

__all__ = ["main", "run_verify", "save_cached_basis", "load_cached_basis"]


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Helpers


def integer(text: str) -> int:
    """ASCII digits with an optional leading '-'.

    `int` alone also reads '+', '_' and non-ASCII digits such as fullwidth
    ones, which the polynomial grammar refuses too.  argparse names this
    function in its message for a bad option value.
    """
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def _cache_dir(text: str) -> str:
    """A `--cache-dir` value; an empty path would name the working directory."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _parse_genus_field(text: str, allow_range: bool) -> Tuple[int, int]:
    if ".." in text:
        if not allow_range:
            raise UsageError("a genus range is only accepted by 'verify'")
        lo_text, _, hi_text = text.partition("..")
        try:
            lo, hi = integer(lo_text), integer(hi_text)
        except ValueError:
            raise UsageError(f"malformed genus range {text!r}; use e.g. 1..8")
        if lo < 1 or hi < lo:
            raise UsageError(f"bad genus range {text!r}")
    else:
        try:
            lo = hi = integer(text)
        except ValueError:
            raise UsageError(f"malformed genus {text!r}")
        if lo < 1:
            raise UsageError("genus must be at least 1")
    if hi > MAX_GENUS:
        raise UsageError(f"genus {hi} is above the supported maximum {MAX_GENUS}")
    return lo, hi


def _parse_single_monomial(text: str) -> Monomial:
    poly = parse_poly(text)
    terms = poly.sorted_terms()
    if len(terms) != 1 or terms[0][1] != 1:
        raise UsageError("expected a single monomial with coefficient 1")
    return terms[0][0]


def _emit(payload: dict, lines: List[str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# Verbs


def _cmd_relations(args) -> int:
    genus, _ = _parse_genus_field(args.genus, allow_range=False)
    by_rec = relations_by_recursion(genus)
    by_def = relations_by_definition(genus)
    agree = by_rec == by_def
    inits = initial_terms(by_rec)
    payload = {
        "genus": genus,
        "f1": str(by_rec.f1),
        "f2": str(by_rec.f2),
        "f3": str(by_rec.f3),
        "weighted_degrees": [genus, genus + 1, genus + 2],
        "initial_terms": [str(m) for m in inits],
        "paths_agree": agree,
    }
    if args.format == "latex":
        lines = [
            f"f_{{1}}^{{{genus}}} = {to_latex(by_rec.f1)}",
            f"f_{{2}}^{{{genus}}} = {to_latex(by_rec.f2)}",
            f"f_{{3}}^{{{genus}}} = {to_latex(by_rec.f3)}",
        ]
    else:
        lines = [
            f"f1 = {by_rec.f1}",
            f"f2 = {by_rec.f2}",
            f"f3 = {by_rec.f3}",
            f"initial terms: {', '.join(str(m) for m in inits)}",
            f"paths agree: {'yes' if agree else 'NO'}",
        ]
    _emit(payload, lines, args.format)
    return EXIT_OK if agree else EXIT_CHECK_FAILED


def _cmd_groebner(args) -> int:
    genus, _ = _parse_genus_field(args.genus, allow_range=False)
    gb = relation_basis_cached(genus, args.cache_dir)
    lead = sorted(gb.leading_monomials(), key=Monomial.sort_key)
    payload = {
        "genus": genus,
        "order_tag": ORDER_TAG,
        "elements": [str(p) for p in gb.elements],
        "initial_ideal": [str(m) for m in lead],
    }
    if args.format == "latex":
        lines = [to_latex(p) for p in gb.elements]
    else:
        lines = [f"basis ({len(gb.elements)} elements):"]
        lines += [f"  {p}" for p in gb.elements]
        lines.append("initial ideal: " + ", ".join(str(m) for m in lead))
    _emit(payload, lines, args.format)
    return EXIT_OK


def _cmd_nf(args) -> int:
    genus, _ = _parse_genus_field(args.genus, allow_range=False)
    poly = parse_poly(args.poly)
    gb = relation_basis_cached(genus, args.cache_dir)
    result = gb.normal_form(poly)
    payload = {"genus": genus, "input": str(poly), "normal_form": str(result)}
    if args.format == "latex":
        lines = [to_latex(result)]
    else:
        lines = [str(result)]
    _emit(payload, lines, args.format)
    return EXIT_OK


def _cmd_basis(args) -> int:
    genus, _ = _parse_genus_field(args.genus, allow_range=False)
    gb = relation_basis_cached(genus, args.cache_dir)
    sm = standard_monomials(gb)
    payload = {
        "genus": genus,
        "count": len(sm),
        "monomials": [str(m) for m in sm.monomials],
    }
    lines = [f"{len(sm)} standard monomials:"] + [f"  {m}" for m in sm.monomials]
    _emit(payload, lines, args.format)
    return EXIT_OK


def _cmd_hilbert(args) -> int:
    genus, _ = _parse_genus_field(args.genus, allow_range=False)
    gb = relation_basis_cached(genus, args.cache_dir)
    coeffs = hilbert_series(gb)
    payload = {
        "genus": genus,
        "coefficients": list(coeffs),
        "palindromic": coeffs == tuple(reversed(coeffs)),
    }
    lines = [" ".join(str(h) for h in coeffs)]
    _emit(payload, lines, args.format)
    return EXIT_OK


def _cmd_pairing(args) -> int:
    genus, _ = _parse_genus_field(args.genus, allow_range=False)
    mono = _parse_single_monomial(args.mono)
    gb = relation_basis_cached(genus, args.cache_dir)
    try:
        ratio = pairing_ratio(mono, gb)
    except ValueError as exc:
        raise UsageError(str(exc))
    payload = {"genus": genus, "monomial": str(mono), "ratio": str(ratio)}
    _emit(payload, [str(ratio)], args.format)
    return EXIT_OK


def _cmd_chern(args) -> int:
    genus, _ = _parse_genus_field(args.genus, allow_range=False)
    max_weight = args.max_weight if args.max_weight is not None else 3 * genus - 3
    if max_weight < 0:
        raise UsageError("--max-weight must be non-negative")
    if max_weight > MAX_WEIGHT:
        raise UsageError(
            f"--max-weight {max_weight} is above the supported maximum {MAX_WEIGHT}"
        )
    if args.target == "ng":
        if genus < 2:
            raise UsageError("the tangent class needs genus at least 2")
        graded = tangent_chern(genus, max_weight)
    else:
        graded = quotient_chern(max_weight)
    payload = {
        "genus": genus,
        "target": args.target,
        "max_weight": max_weight,
        "components": [str(c) for c in graded.components],
    }
    if args.format == "latex":
        lines = [
            f"c_{{{w}}} = {to_latex(c)}" for w, c in enumerate(graded.components)
        ]
    else:
        lines = [f"c_{w} = {c}" for w, c in enumerate(graded.components)]
    _emit(payload, lines, args.format)
    return EXIT_OK


def _cmd_betti(args) -> int:
    genus, _ = _parse_genus_field(args.genus, allow_range=False)
    if genus < 2:
        raise UsageError("betti tables need genus at least 2")
    # the recursion is proven only up to the default bound
    bound = default_s_max(genus)
    s_max = args.s_max if args.s_max is not None else bound
    if not 0 <= s_max <= bound:
        raise UsageError(f"--s-max {s_max} is outside 0..{bound} for genus {genus}")
    table = newstead_betti(genus, s_max)
    cross = betti_cross_check(genus)
    payload = {
        "genus": genus,
        "s_max": s_max,
        "values": [[s, v] for s, v in enumerate(table.values)],
        "cross_check": cross,
    }
    lines = [f"{s} {v}" for s, v in enumerate(table.values)]
    lines.append(f"cross-check: {'ok' if cross else 'FAILED'}")
    _emit(payload, lines, args.format)
    return EXIT_OK if cross else EXIT_CHECK_FAILED


def _cmd_verify(args) -> int:
    lo, hi = _parse_genus_field(args.genus, allow_range=True)
    checks, all_ok = run_verify(lo, hi, args.cache_dir)
    failed = sum(1 for _, _, ok, _ in checks if not ok)
    payload = {
        "range": [lo, hi],
        "checks": [
            {"scope": scope, "name": name, "ok": ok, "detail": detail}
            for scope, name, ok, detail in checks
        ],
        "all_ok": all_ok,
    }
    lines = [
        f"{scope} {name}: {'ok' if ok else 'FAILED'}" + (f" ({note})" if note else "")
        for scope, name, ok, note in checks
    ]
    lines.append(
        f"verify: {len(checks) - failed}/{len(checks)} checks passed"
        + ("" if all_ok else f", {failed} FAILED")
    )
    _emit(payload, lines, args.format)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newstead",
        description=(
            "Exact presentation of the invariant cohomology ring of moduli "
            "of odd-degree rank-2 stable bundles"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cache: bool = True) -> None:
        p.add_argument("-g", "--genus", required=True, help="genus (verify: range A..B)")
        p.add_argument(
            "--format", choices=("text", "json", "latex"), default="text"
        )
        if cache:
            p.add_argument(
                "--cache-dir", type=_cache_dir, default=None, help="Groebner basis cache"
            )

    p = sub.add_parser("relations", help="relation triple, both constructions")
    common(p, cache=False)
    p.set_defaults(func=_cmd_relations)

    p = sub.add_parser("groebner", help="reduced Groebner basis and initial ideal")
    common(p)
    p.set_defaults(func=_cmd_groebner)

    p = sub.add_parser("nf", help="normal form of a polynomial")
    common(p)
    p.add_argument("--poly", required=True, help="polynomial expression")
    p.set_defaults(func=_cmd_nf)

    p = sub.add_parser("basis", help="standard monomial basis of the quotient")
    common(p)
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("hilbert", help="Hilbert series of the quotient")
    common(p)
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("pairing", help="socle pairing ratio of a top monomial")
    common(p)
    p.add_argument("--mono", required=True, help="monomial expression")
    p.set_defaults(func=_cmd_pairing)

    p = sub.add_parser("chern", help="graded Chern class components")
    common(p, cache=False)
    p.add_argument("--target", choices=("q", "ng"), default="q")
    p.add_argument("--max-weight", type=integer, default=None)
    p.set_defaults(func=_cmd_chern)

    p = sub.add_parser("betti", help="even Betti numbers with cross-check")
    common(p, cache=False)
    p.add_argument("--s-max", type=integer, default=None)
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("verify", help="run every check over a genus range")
    common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        # a path in the error can only come from the basis cache
        if exc.filename is None:
            raise
        print(f"error: unusable --cache-dir: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
