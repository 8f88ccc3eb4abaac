"""Record the reference answers of the ideal-queries workload in refs.json.

Run from the root of a source checkout whose answers are trusted:

    python3 perfbench/make_refs.py

It stores, for each genus of the workload, the reduced basis as canonical
strings, every socle pairing ratio and the Hilbert series, and for each of
the seeds in REF_SEEDS the digests of the normal forms of that seed's
inputs.  Seeds without a reference are still gated on the support of their
normal forms.
"""

from __future__ import annotations

import json
import random
import sys

import gate
import run

REF_SEEDS = range(32)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    ns, _ = run.import_newstead()
    genera = {}
    bases = {}
    for g in run.IDEAL_GENERA:
        gb = bases[g] = ns.relation_ideal_basis(g)
        genera[str(g)] = {
            "basis": [str(p) for p in gb.elements],
            "pairings": {
                str(ns.Monomial(*e)): str(ns.pairing_ratio(ns.Monomial(*e), gb))
                for e in run.top_monomials(g)
            },
            "hilbert": list(ns.hilbert_series(gb)),
        }
    nf = {}
    for seed in REF_SEEDS:
        rng = random.Random(seed)
        nf[str(seed)] = {
            str(g): [
                gate.nf_digest(str(bases[g].normal_form(run.polynomial(ns, terms))))
                for terms in run.nf_inputs(rng, g)
            ]
            for g in run.IDEAL_GENERA
        }
    payload = {"genera": genera, "nf": nf}
    run.REFS.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {run.REFS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
