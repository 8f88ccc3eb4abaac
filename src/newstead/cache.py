"""On-disk cache of reduced Groebner bases, one JSON file per genus.

A loaded file is never trusted.  Only a regular file of at most
`_MAX_CHARS` characters is read, so a FIFO, a device or a longer file at
the path is recomputed and replaced.  Its header must match, and its
element list must hold C(g+2, 2) strings, one per lead of the
genus-g basis, before a single element is parsed.  The parsed basis is
handed out only if `groebner.is_relation_basis` certifies it against the
relation triple, and then it is bit-identical to a freshly computed basis;
anything else is recomputed and rewritten by `relation_basis_cached`.
"""

from __future__ import annotations

import json
import os
import stat
import tempfile
from math import comb
from pathlib import Path
from typing import Optional

from .groebner import ORDER_TAG, GroebnerBasis, is_relation_basis, relation_ideal_basis
from .relations import RelationTriple, relations_by_recursion
from .textform import ParseError, parse_poly

CACHE_VERSION = 1
# a file longer than this is a miss, read no further; the genus-30 file,
# the largest one written, has about 470 KB
_MAX_CHARS = 16 * 2**20

__all__ = [
    "cache_path", "save_cached_basis", "load_cached_basis", "relation_basis_cached"
]


def cache_path(cache_dir: str, genus: int) -> Path:
    return Path(cache_dir) / f"ideal_g{genus}.json"


def save_cached_basis(cache_dir: str, gb: GroebnerBasis) -> Path:
    """Write one cache file per genus, atomically (write + rename)."""
    if gb.genus is None:
        raise ValueError("only genus-tagged bases are cached")
    directory = Path(cache_dir)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": CACHE_VERSION,
        "genus": gb.genus,
        "order_tag": ORDER_TAG,
        "elements": [str(p) for p in gb.elements],
    }
    target = cache_path(cache_dir, gb.genus)
    fd, tmp_name = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, indent=2)
            handle.write("\n")
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return target


def load_cached_basis(
    cache_dir: str, genus: int, triple: Optional[RelationTriple] = None
) -> Optional[GroebnerBasis]:
    """Load a cached basis, or None when missing, corrupt or invalid.  It is
    certified against `triple`, by default the recursion's genus-g triple."""
    path = cache_path(cache_dir, genus)
    try:
        # opening a FIFO would block and a device may never end: read only a
        # regular file, and open without blocking to find out what it is
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_NONBLOCK", 0))
        with os.fdopen(fd, encoding="utf-8") as handle:
            if not stat.S_ISREG(os.fstat(fd).st_mode):
                return None
            text = handle.read(_MAX_CHARS + 1)
            if len(text) > _MAX_CHARS:
                return None
            payload = json.loads(text)
    # ValueError also covers a number past the int digit limit, and deep
    # nesting raises RecursionError
    except (OSError, ValueError, RecursionError):
        return None
    if not isinstance(payload, dict) or (
        payload.get("version"), payload.get("genus"), payload.get("order_tag")
    ) != (CACHE_VERSION, genus, ORDER_TAG):
        return None
    raw = payload.get("elements")
    # one string per lead, checked before any parse: a long list or a
    # non-string entry is never parsed at all
    if not isinstance(raw, list) or len(raw) != comb(genus + 2, 2) or not all(
        isinstance(text, str) for text in raw
    ):
        return None
    try:
        gb = GroebnerBasis(tuple(map(parse_poly, raw)), genus=genus)
    except ParseError:
        return None
    if triple is None:
        triple = relations_by_recursion(genus)
    return gb if is_relation_basis(gb, triple) else None


def relation_basis_cached(
    genus: int,
    cache_dir: Optional[str],
    previous: Optional[GroebnerBasis] = None,
    triple: Optional[RelationTriple] = None,
) -> GroebnerBasis:
    """The genus-g basis, read from and written to `cache_dir` when given;
    `previous` and `triple` go to `relation_ideal_basis` on a miss, and
    `triple` to the certificate of a load."""
    if cache_dir is None:
        return relation_ideal_basis(genus, previous, triple)
    cached = load_cached_basis(cache_dir, genus, triple)
    if cached is not None:
        return cached
    gb = relation_ideal_basis(genus, previous, triple)
    save_cached_basis(cache_dir, gb)
    return gb
