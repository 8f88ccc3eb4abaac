"""Per-layer spans for a traced benchmark pass, installed from outside.

A traced pass swaps each function named in ``LAYERS``, in every
``newstead.*`` module namespace that binds it, for a wrapper that records a
span (id, name, start, end, parent, thread).  Patching every binding, not
just the defining module, is what catches every call: ``cli`` imports names
directly, and ``GroebnerBasis.normal_form`` resolves the module global
``groebner.normal_form``.

``ring`` is not wrapped: it is the inner arithmetic, and wrapping it would
cost more than it measures.  Its cost shows up as self time of the callers.

Spans are kept in memory and written out when the run ends.  A span opened
on a worker thread with no open span of its own takes as parent the span
open on the main thread, so the per-genus work that ``verify`` fans out to
its thread pool nests under ``cli.run_verify``.  Self time is a span's
duration minus the union of its children's intervals.  With two threads
interleaving under the interpreter lock, a span's duration includes the
time its thread waited for the lock, so summed self times can exceed wall
time.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, List, Tuple

LAYERS: Dict[str, Tuple[str, ...]] = {
    "chern": (
        "tangent_chern",
        "quotient_chern",
        "tangent_vanishing_check",
        "chern_relations_check",
    ),
    "groebner": (
        "buchberger",
        "normal_form",
        "pairing_ratio",
        "standard_monomials",
        "ideal_equal",
        "is_groebner_basis",
    ),
    "cli": ("load_cached_basis", "save_cached_basis", "run_verify"),
    "textform": ("parse_poly",),
    "series": ("generating_series", "functional_equation_residual"),
    "relations": ("relations_by_recursion", "relations_by_definition"),
    "betti": ("betti_cross_check", "newstead_betti"),
}

# Exact counts derived from the wrapped functions' inputs and outputs.
COUNTS = (
    "chern.tangent_terms",
    "groebner.basis_size",
    "groebner.coeff_bits_max",
    "groebner.normal_form.terms_in",
    "cli.cache_hits",
)

Span = Tuple[int, str, float, float, object, int]


def layer_names() -> List[str]:
    return [f"{module}.{name}" for module, names in LAYERS.items() for name in names]


def _coeff_bits(polys) -> int:
    return max(
        (
            max(v.numerator.bit_length(), v.denominator.bit_length())
            for p in polys
            for v in p.terms.values()
        ),
        default=0,
    )


class Tracer:
    """Records spans and counts while installed; restores the package on exit."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = dict.fromkeys(COUNTS, 0)
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._stacks: Dict[int, List[int]] = {}
        self._main = threading.main_thread().ident
        self._patched: List[Tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for module, names in LAYERS.items():
            mod = sys.modules[f"newstead.{module}"]
            for name in names:
                original = getattr(mod, name)
                wrappers[original] = self._wrap(f"{module}.{name}", original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "newstead" and not mod_name.startswith("newstead."):
                continue
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    self._patched.append((mod, attr, value))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- recording --------------------------------------------------------

    def _stack(self) -> List[int]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            self._stacks[threading.get_ident()] = stack
            return stack

    def _foreign_parent(self):
        if threading.get_ident() == self._main:
            return None
        try:
            return self._stacks.get(self._main, [])[-1]
        except IndexError:
            return None

    def _wrap(self, qualname: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(self._ids)
            stack = self._stack()
            parent = stack[-1] if stack else self._foreign_parent()
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    (sid, qualname, start, end, parent, threading.get_ident())
                )
            self._observe(qualname, args, result)
            return result

        return wrapper

    def _observe(self, qualname: str, args, result) -> None:
        with self._lock:
            counts = self.counts
            if qualname == "chern.tangent_chern":
                counts["chern.tangent_terms"] += sum(len(c) for c in result.components)
            elif qualname == "groebner.buchberger":
                counts["groebner.basis_size"] += len(result.elements)
                counts["groebner.coeff_bits_max"] = max(
                    counts["groebner.coeff_bits_max"], _coeff_bits(result.elements)
                )
            elif qualname == "groebner.normal_form":
                counts["groebner.normal_form.terms_in"] += len(args[0])
            elif qualname == "cli.load_cached_basis":
                counts["cli.cache_hits"] += result is not None

    # -- results ----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, start, end, parent, thread in self.spans:
                record = {
                    "id": sid,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "thread": thread,
                }
                handle.write(json.dumps(record) + "\n")


def self_times(spans: List[Span]) -> Dict[str, Tuple[float, int]]:
    """Total self time in seconds and call count per wrapped name."""
    children = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals: Dict[str, List] = {name: [0.0, 0] for name in layer_names()}
    for sid, name, start, end, _, _ in spans:
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        entry = totals.setdefault(name, [0.0, 0])
        entry[0] += (end - start) - covered
        entry[1] += 1
    return {name: (s, n) for name, (s, n) in totals.items()}
