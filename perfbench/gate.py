"""Correctness gate: every answer a benchmark pass produces is checked here.

Each function returns ``(attempted, failures)``: the number of operations
checked and a list of one-line descriptions of those that failed.  A
benchmark run is correct only when no operation failed.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

# Checks `verify` must report, ok, for every genus in its range.  Checks the
# package adds later are tolerated; so is dropping `betti-monotone-note`,
# which always passes and is slated for removal.
PER_GENUS = (
    "relations-dual-path",
    "initial-terms",
    "weighted-degrees",
    "monic-leads",
    "initial-ideal",
    "standard-monomial-count",
    "hilbert-closed-form",
    "hilbert-palindromic",
    "hilbert-top",
    "socle-unique",
    "uniqueness-support",
    "ideal-equal-series",
    "chern-matches-series",
    "chern-relations",
    "invariant-dimensions",
)
FROM_GENUS_2 = (
    "tangent-vanishing",
    "tangent-negative-control",
    "betti-cross-check",
    "pairing-socle",
)
AT_GENUS_2 = ("pairing-spot-values",)


def required_verify_checks(lo: int, hi: int) -> List[Tuple[str, str]]:
    """(scope, name) of every check `verify -g lo..hi` must report ok."""
    required = []
    for g in range(lo, hi + 1):
        names = PER_GENUS
        if g >= 2:
            names += FROM_GENUS_2
        if g == 2:
            names += AT_GENUS_2
        required += [(f"g={g}", name) for name in names]
    required += [(f"g={g}->g={g + 1}", "gamma-inclusion") for g in range(lo, hi)]
    required.append(("global", "functional-equation"))
    return required


def check_verify(exit_code: int, payload, lo: int, hi: int) -> Tuple[int, List[str]]:
    """Gate one `verify --format json` result.

    One operation is the command itself (exit code 0 and ``all_ok``); one
    more per required check, which must be present and ok.
    """
    required = required_verify_checks(lo, hi)
    failures = []
    if exit_code != 0:
        failures.append(f"verify exited with code {exit_code}")
    elif not isinstance(payload, dict) or payload.get("all_ok") is not True:
        failures.append("verify did not report all_ok")
    reported: Dict[Tuple[str, str], bool] = {}
    checks = payload.get("checks", []) if isinstance(payload, dict) else []
    for entry in checks:
        key = (entry.get("scope"), entry.get("name"))
        reported[key] = reported.get(key, True) and entry.get("ok") is True
    for scope, name in required:
        ok = reported.get((scope, name))
        if ok is None:
            failures.append(f"{scope} {name}: missing")
        elif not ok:
            failures.append(f"{scope} {name}: FAILED")
    return 1 + len(required), failures


def nf_digest(text: str) -> str:
    """Short digest of a canonical normal-form string, as kept in refs.json."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def check_ideal_answers(
    genus: int, answers: dict, ref: dict, nf_ref: Optional[Sequence[str]] = None
) -> Tuple[int, List[str]]:
    """Gate the answers of one genus of the ideal-queries workload.

    ``answers`` holds ``basis`` (element strings), ``pairings`` (monomial
    string -> ratio string), ``hilbert`` (list of ints), ``ideal_equal``
    (bool), ``nf`` (result strings) and ``nf_support`` (for each result, the
    exponent triples of its terms).  ``ref`` holds the first four as
    recorded; ``nf_ref`` holds the digests of the nf results for this seed,
    or None when the seed has no reference.  Every nf result must lie on
    standard monomials, i.e. on monomials a^i b^j c^k with i + j + k < g.
    """
    failures = []
    attempted = 3
    if answers["basis"] != ref["basis"]:
        failures.append(f"g={genus} basis differs from reference")
    if answers["hilbert"] != ref["hilbert"]:
        failures.append(f"g={genus} hilbert {answers['hilbert']} != {ref['hilbert']}")
    if answers["ideal_equal"] is not True:
        failures.append(f"g={genus} relation triple and basis span different ideals")
    for mono, ratio in ref["pairings"].items():
        attempted += 1
        got = answers["pairings"].get(mono)
        if got != ratio:
            failures.append(f"g={genus} pairing {mono}: {got} != {ratio}")
    extra = set(answers["pairings"]) - set(ref["pairings"])
    if extra:
        attempted += len(extra)
        failures += [f"g={genus} pairing {mono}: unexpected" for mono in sorted(extra)]
    if nf_ref is not None and len(nf_ref) != len(answers["nf"]):
        attempted += 1
        failures.append(f"g={genus} {len(answers['nf'])} nf results, {len(nf_ref)} expected")
        nf_ref = None
    for i, (text, support) in enumerate(zip(answers["nf"], answers["nf_support"])):
        attempted += 1
        if any(a + b + c >= genus for a, b, c in support):
            failures.append(f"g={genus} nf #{i} has a non-standard term: {text}")
        elif nf_ref is not None and nf_digest(text) != nf_ref[i]:
            failures.append(f"g={genus} nf #{i} differs from reference")
    return attempted, failures
