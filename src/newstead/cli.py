"""Command line front end: parse the arguments, render the result.

Verbs: relations, groebner, nf, basis, hilbert, pairing, chern, betti and
verify.  Output formats: text (default), json (deterministic: sorted keys,
canonical polynomial strings, rationals as "num/den" strings) and latex
for the polynomial-valued verbs (relations, groebner, nf, chern); the
others print their text under latex.

A verb takes the parsed arguments and the genus (a `(lo, hi)` range for
verify) and returns `(payload, text_lines, latex_lines or None, ok)`; it
prints nothing, and `main` prints one of the three and exits 1 when `ok`
is false.  A verb touches the file system only through the basis cache,
so every `OSError` it raises means an unusable `--cache-dir`.

Exit codes: 0 success, 1 a mathematical check failed, 2 usage error
(including an `nf` coefficient too long to print), 3 expression parse
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable, List, Optional, Sequence, Tuple

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
# g=30 basis already takes about 1.3 s on one core of a shared Xeon
MAX_GENUS = 30
# the largest `chern --max-weight`: the top weight 3g-3 at the largest genus
MAX_WEIGHT = 3 * MAX_GENUS - 3

__all__ = ["main", "run_verify", "save_cached_basis", "load_cached_basis"]


class UsageError(Exception):
    pass


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


# ---------------------------------------------------------------------------
# Verbs


# the LaTeX lines may be a generator: rendered only when printed
Result = Tuple[dict, List[str], Optional[Iterable[str]], bool]


def _relations(args, genus: int) -> Result:
    by_rec = relations_by_recursion(genus)
    agree = by_rec == relations_by_definition(genus)
    named = list(enumerate(by_rec.polynomials(), 1))
    payload = {
        "genus": genus,
        **{f"f{i}": str(f) for i, f in named},
        "weighted_degrees": [genus, genus + 1, genus + 2],
        "initial_terms": [str(m) for m in initial_terms(by_rec)],
        "paths_agree": agree,
    }
    text = [f"f{i} = {f}" for i, f in named] + [
        f"initial terms: {', '.join(payload['initial_terms'])}",
        f"paths agree: {'yes' if agree else 'NO'}",
    ]
    latex = (f"f_{{{i}}}^{{{genus}}} = {to_latex(f)}" for i, f in named)
    return payload, text, latex, agree


def _groebner(args, genus: int) -> Result:
    gb = relation_basis_cached(genus, args.cache_dir)
    lead = sorted(gb.leading_monomials(), key=Monomial.sort_key)
    payload = {
        "genus": genus,
        "order_tag": ORDER_TAG,
        "elements": [str(p) for p in gb.elements],
        "initial_ideal": [str(m) for m in lead],
    }
    text = [f"basis ({len(gb.elements)} elements):"]
    text += [f"  {p}" for p in payload["elements"]]
    text.append("initial ideal: " + ", ".join(payload["initial_ideal"]))
    return payload, text, (to_latex(p) for p in gb.elements), True


def _nf(args, genus: int) -> Result:
    poly = parse_poly(args.poly)
    result = relation_basis_cached(genus, args.cache_dir).normal_form(poly)
    try:
        payload = {"genus": genus, "input": str(poly), "normal_form": str(result)}
        latex = [to_latex(result)]
    except ValueError:  # an int past the interpreter's digit limit
        raise UsageError("a coefficient has too many digits to print")
    return payload, [payload["normal_form"]], latex, True


def _basis(args, genus: int) -> Result:
    sm = standard_monomials(relation_basis_cached(genus, args.cache_dir))
    payload = {
        "genus": genus,
        "count": len(sm),
        "monomials": [str(m) for m in sm],
    }
    text = [f"{len(sm)} standard monomials:"] + [f"  {m}" for m in payload["monomials"]]
    return payload, text, None, True


def _hilbert(args, genus: int) -> Result:
    coeffs = hilbert_series(relation_basis_cached(genus, args.cache_dir))
    payload = {
        "genus": genus,
        "coefficients": list(coeffs),
        "palindromic": coeffs == tuple(reversed(coeffs)),
    }
    return payload, [" ".join(str(h) for h in coeffs)], None, True


def _pairing(args, genus: int) -> Result:
    poly = parse_poly(args.mono)
    if len(poly.terms) != 1 or 1 not in poly.terms.values():
        raise UsageError("expected a single monomial with coefficient 1")
    (mono,) = poly.terms
    gb = relation_basis_cached(genus, args.cache_dir)
    try:
        ratio = pairing_ratio(mono, gb)
    except ValueError as exc:
        raise UsageError(str(exc))
    payload = {"genus": genus, "monomial": str(mono), "ratio": str(ratio)}
    return payload, [payload["ratio"]], None, True


def _chern(args, genus: int) -> Result:
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
    text = [f"c_{w} = {c}" for w, c in enumerate(payload["components"])]
    latex = (f"c_{{{w}}} = {to_latex(c)}" for w, c in enumerate(graded.components))
    return payload, text, latex, True


def _betti(args, genus: int) -> Result:
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
        "values": [[s, v] for s, v in enumerate(table)],
        "cross_check": cross,
    }
    text = [f"{s} {v}" for s, v in enumerate(table)]
    text.append(f"cross-check: {'ok' if cross else 'FAILED'}")
    return payload, text, None, cross


def _verify(args, genus: Tuple[int, int]) -> Result:
    checks, all_ok = run_verify(*genus, args.cache_dir)
    failed = sum(1 for _, _, ok, _ in checks if not ok)
    payload = {
        "range": list(genus),
        "checks": [
            {"scope": scope, "name": name, "ok": ok, "detail": detail}
            for scope, name, ok, detail in checks
        ],
        "all_ok": all_ok,
    }
    text = [
        f"{scope} {name}: {'ok' if ok else 'FAILED'}" + (f" ({note})" if note else "")
        for scope, name, ok, note in checks
    ]
    text.append(
        f"verify: {len(checks) - failed}/{len(checks)} checks passed"
        + ("" if all_ok else f", {failed} FAILED")
    )
    return payload, text, None, all_ok


# ---------------------------------------------------------------------------
# Argument parsing and rendering

_INTEGER_OPTION = {"type": integer, "default": None}

# name, handler, help, takes --cache-dir, extra options as (flag, keywords)
VERBS = (
    ("relations", _relations, "relation triple, both constructions", False, ()),
    ("groebner", _groebner, "reduced Groebner basis and initial ideal", True, ()),
    ("nf", _nf, "normal form of a polynomial", True,
     (("--poly", {"required": True, "help": "polynomial expression"}),)),
    ("basis", _basis, "standard monomial basis of the quotient", True, ()),
    ("hilbert", _hilbert, "Hilbert series of the quotient", True, ()),
    ("pairing", _pairing, "socle pairing ratio of a top monomial", True,
     (("--mono", {"required": True, "help": "monomial expression"}),)),
    ("chern", _chern, "graded Chern class components", False,
     (("--target", {"choices": ("q", "ng"), "default": "q"}),
      ("--max-weight", _INTEGER_OPTION))),
    ("betti", _betti, "even Betti numbers with cross-check", False,
     (("--s-max", _INTEGER_OPTION),)),
    ("verify", _verify, "run every check over a genus range", True, ()),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newstead",
        description=(
            "Exact presentation of the invariant cohomology ring of moduli "
            "of odd-degree rank-2 stable bundles"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, cache, options in VERBS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-g", "--genus", required=True, help="genus (verify: range A..B)")
        p.add_argument("--format", choices=("text", "json", "latex"), default="text")
        if cache:
            p.add_argument(
                "--cache-dir", type=_cache_dir, default=None, help="Groebner basis cache"
            )
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=handler)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        is_range = args.func is _verify
        lo, hi = _parse_genus_field(args.genus, allow_range=is_range)
        payload, text, latex, ok = args.func(args, (lo, hi) if is_range else lo)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        # a verb's only file system access is the basis cache
        print(f"error: unusable --cache-dir: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in latex if args.format == "latex" and latex is not None else text:
            print(line)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
