"""End-to-end and per-layer benchmark of the newstead package.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload verify-cold --seed 1 --seconds 40 --trace 0

Workloads (one client, closed loop: a pass starts when the previous ends):

  verify-cold    `newstead verify -g 1..10 --format json` into a fresh, empty
                 cache directory on every pass.
  verify-warm    the same command against a cache primed in set-up with
                 `newstead groebner -g G --cache-dir D` for G = 1..10.
  ideal-queries  library calls for g = 14 and 16: `relation_ideal_basis`,
                 `pairing_ratio` for every monomial of weight 3g-3,
                 `hilbert_series`, `ideal_equal` of the relation triple and
                 the basis, and `normal_form` on polynomials made from the
                 seed.

The package is driven only through `newstead.cli.main(argv)` and the names
in `newstead.__all__`, imported from `src/` of the checkout.  Set-up (fresh
import, input generation, cache priming) is repeated and its median
reported as `setup_s`.  Passes then repeat until one more would end past
`--seconds` (at least one pass), and every answer of every pass goes
through the gate in `gate.py`.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1`, untraced and traced passes alternate
and the object holds the per-layer metrics of `spans.py`, plus the tracing
overhead.  Spans of a traced run are written to
`.perfbench_out/trace-<workload>-seed<seed>.jsonl`.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, NamedTuple

import gate
from spans import Tracer, layer_names, self_times

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFS = Path(__file__).resolve().parent / "refs.json"

# Set-up is repeated a fixed number of times and its median reported.  The
# count is fixed because every fresh import leaves some memory behind, which
# would otherwise make peak_rss_mb depend on the host's speed.
SETUP_REPEATS = 5
VERIFY_RANGE = (1, 10)
IDEAL_GENERA = (14, 16)
NF_PER_GENUS = 24
NF_TERMS = 6
NF_ABOVE_TOP = 6


class Pass(NamedTuple):
    seconds: float
    queries: List[float]
    attempted: int
    failures: List[str]


def import_newstead():
    """Import the package afresh from the checkout; return it and the seconds taken."""
    for name in [n for n in sys.modules if n == "newstead" or n.startswith("newstead.")]:
        del sys.modules[name]
    start = time.perf_counter()
    ns = importlib.import_module("newstead")
    importlib.import_module("newstead.cli")
    seconds = time.perf_counter() - start
    if Path(ns.__file__).resolve().parent != SRC / "newstead":
        raise ImportError(f"newstead imported from {ns.__file__}, not from {SRC}")
    return ns, seconds


def _run_cli(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class VerifyWorkload:
    """`verify -g 1..10 --format json`, with a cold or a primed cache."""

    def __init__(self, warm: bool) -> None:
        self.warm = warm
        self.cache_dir = None

    def setup(self, ns, seed: int) -> None:
        # The inputs are the fixed genus range; the seed changes nothing.
        self.cli = sys.modules["newstead.cli"]
        if not self.warm:
            return
        self.close()
        self.cache_dir = tempfile.mkdtemp(dir=OUT, prefix="warm-")
        for g in range(VERIFY_RANGE[0], VERIFY_RANGE[1] + 1):
            argv = ["groebner", "-g", str(g), "--cache-dir", self.cache_dir]
            code, _ = _run_cli(self.cli, argv)
            if code != 0:
                raise RuntimeError(f"priming the cache: {argv} exited {code}")

    def run_pass(self) -> Pass:
        lo, hi = VERIFY_RANGE
        cache_dir = self.cache_dir or tempfile.mkdtemp(dir=OUT, prefix="cold-")
        argv = ["verify", "-g", f"{lo}..{hi}", "--cache-dir", cache_dir, "--format", "json"]
        try:
            start = time.perf_counter()
            code, text = _run_cli(self.cli, argv)
            seconds = time.perf_counter() - start
        finally:
            if not self.warm:
                shutil.rmtree(cache_dir)
        try:
            payload = json.loads(text)
        except ValueError:
            payload = None
        attempted, failures = gate.check_verify(code, payload, lo, hi)
        return Pass(seconds, [seconds], attempted, failures)

    def close(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir)
            self.cache_dir = None


def nf_inputs(rng: random.Random, genus: int) -> List[Dict[tuple, Fraction]]:
    """Seeded normal-form inputs, as {(a, b, c): coefficient}.

    Kinds cycle so that every seed gets the same mix: weighted homogeneous
    of one weight in [g, 3g-3]; non-homogeneous with every term at or below
    3g-3; and half the terms above 3g-3, where the quotient is zero.
    """
    top = 3 * genus - 3
    inputs = []
    for i in range(NF_PER_GENUS):
        kind = i % 3
        if kind == 0:
            weights = [rng.randint(genus, top)] * NF_TERMS
        elif kind == 1:
            weights = [rng.randint(0, top) for _ in range(NF_TERMS)]
        else:
            half = NF_TERMS // 2
            weights = [rng.randint(top + 1, top + NF_ABOVE_TOP) for _ in range(half)]
            weights += [rng.randint(0, top) for _ in range(NF_TERMS - half)]
        terms = {}
        for w in weights:
            c = rng.randint(0, w // 3)
            b = rng.randint(0, (w - 3 * c) // 2)
            num = rng.choice([n for n in range(-9, 10) if n])
            terms[(w - 3 * c - 2 * b, b, c)] = Fraction(num, rng.randint(1, 7))
        inputs.append(terms)
    return inputs


def polynomial(ns, terms: Dict[tuple, Fraction]):
    return ns.Polynomial({ns.Monomial(*k): v for k, v in terms.items()})


def top_monomials(genus: int) -> List[tuple]:
    """Exponents (a, b, c) of every monomial of weight 3g-3."""
    top = 3 * genus - 3
    return [
        (top - 3 * c - 2 * b, b, c)
        for c in range(top // 3 + 1)
        for b in range((top - 3 * c) // 2 + 1)
    ]


class IdealWorkload:
    """Basis, socle pairings, Hilbert series and normal forms for large genus."""

    def setup(self, ns, seed: int) -> None:
        self.ns = ns
        self.seed = seed
        rng = random.Random(seed)
        self.inputs = {
            g: [polynomial(ns, terms) for terms in nf_inputs(rng, g)] for g in IDEAL_GENERA
        }
        self.monomials = {g: [ns.Monomial(*e) for e in top_monomials(g)] for g in IDEAL_GENERA}
        self.refs = json.loads(REFS.read_text(encoding="utf-8"))

    def run_pass(self) -> Pass:
        ns = self.ns
        queries: List[float] = []
        raw = {}

        def timed(fn, *args, **kwargs):
            start = time.perf_counter()
            value = fn(*args, **kwargs)
            queries.append(time.perf_counter() - start)
            return value

        start = time.perf_counter()
        for g in IDEAL_GENERA:
            gb = ns.relation_ideal_basis(g)
            triple = ns.relations_by_recursion(g)
            raw[g] = {
                "gb": gb,
                "pairings": [timed(ns.pairing_ratio, m, gb) for m in self.monomials[g]],
                "hilbert": timed(ns.hilbert_series, gb),
                "ideal_equal": timed(
                    ns.ideal_equal, triple.polynomials(), gb.elements, basis1=gb, basis2=gb
                ),
                "nf": [timed(gb.normal_form, p) for p in self.inputs[g]],
            }
        seconds = time.perf_counter() - start

        attempted, failures = 0, []
        nf_refs = self.refs["nf"].get(str(self.seed), {})
        for g, got in raw.items():
            answers = {
                "basis": [str(p) for p in got["gb"].elements],
                "pairings": {
                    str(m): str(r) for m, r in zip(self.monomials[g], got["pairings"])
                },
                "hilbert": list(got["hilbert"]),
                "ideal_equal": got["ideal_equal"],
                "nf": [str(p) for p in got["nf"]],
                "nf_support": [list(p.terms) for p in got["nf"]],
            }
            n, bad = gate.check_ideal_answers(
                g, answers, self.refs["genera"][str(g)], nf_refs.get(str(g))
            )
            attempted += n
            failures += bad
        return Pass(seconds, queries, attempted, failures)

    def close(self) -> None:
        pass


WORKLOADS = {
    "verify-cold": lambda: VerifyWorkload(warm=False),
    "verify-warm": lambda: VerifyWorkload(warm=True),
    "ideal-queries": IdealWorkload,
}


def _percentile(values: List[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(passes: List[Pass], setup_times: List[float]) -> dict:
    queries_ms = [1000 * q for p in passes for q in p.queries]
    return {
        "wall_s": _metric(statistics.median(p.seconds for p in passes), "s"),
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
        "query_ms.p50": _metric(statistics.median(queries_ms), "ms"),
        "query_ms.p90": _metric(_percentile(queries_ms, 90), "ms"),
    }


def per_layer_metrics(
    tracer: Tracer, plain: List[Pass], traced: List[Pass], failed_frac: float
) -> dict:
    n = len(traced)
    metrics = {}
    totals = self_times(tracer.spans)
    for name in layer_names():
        seconds, calls = totals[name]
        metrics[f"{name}.s"] = _metric(seconds / n, "s")
        metrics[f"{name}.calls"] = _metric(calls / n, "count")
    counts = tracer.counts
    for name in ("chern.tangent_terms", "groebner.basis_size", "groebner.normal_form.terms_in"):
        metrics[name] = _metric(counts[name] / n, "count")
    metrics["groebner.coeff_bits_max"] = _metric(counts["groebner.coeff_bits_max"], "count")
    loads = totals["cli.load_cached_basis"][1]
    metrics["cli.cache_hit_ratio"] = _metric(
        counts["cli.cache_hits"] / loads if loads else 0.0, "frac"
    )
    overhead = statistics.median(p.seconds for p in traced) / statistics.median(
        p.seconds for p in plain
    )
    metrics["tracing_overhead_frac"] = _metric(overhead - 1, "frac")
    metrics["failed_ops_frac"] = _metric(failed_frac, "frac")
    return metrics


def _logged(label: str, p: Pass) -> Pass:
    print(
        f"{label} pass: {p.seconds:.3f} s, {p.attempted} ops, {len(p.failures)} failed",
        file=sys.stderr,
    )
    return p


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "newstead" / "__init__.py").is_file():
        print(f"error: no package sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    workload = WORKLOADS[args.workload]()
    plain: List[Pass] = []
    traced: List[Pass] = []
    tracer = Tracer()
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            ns, seconds = import_newstead()
            start = time.perf_counter()
            workload.setup(ns, args.seed)
            setup_times.append(seconds + time.perf_counter() - start)
        # Stop before a round that would end past the deadline, so that a
        # run measures at most --seconds (and at least one round).
        start = time.perf_counter()
        deadline = start + args.seconds
        while True:
            plain.append(_logged("plain", workload.run_pass()))
            if args.trace:
                with tracer:
                    traced.append(_logged("traced", workload.run_pass()))
            now = time.perf_counter()
            rounds = len(plain)
            if now + (now - start) / rounds > deadline:
                break
    finally:
        workload.close()

    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    for line in failures[:20]:
        print(f"FAILED: {line}", file=sys.stderr)
    if args.trace:
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        metrics = per_layer_metrics(tracer, plain, traced, len(failures) / attempted)
    else:
        metrics = end_to_end_metrics(plain, setup_times)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
