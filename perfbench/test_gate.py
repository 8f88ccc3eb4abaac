"""The benchmark's correctness gate must report wrong answers.

Run from the root of a source checkout:

    python3 perfbench/test_gate.py

The answers fed to the gate are built from the recorded references, so the
test needs no package computation.
"""

from __future__ import annotations

import copy
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
from spans import self_times  # noqa: E402

REFS = json.loads((Path(__file__).resolve().parent / "refs.json").read_text("utf-8"))


def verify_payload(lo, hi):
    checks = [
        {"scope": scope, "name": name, "ok": True, "detail": ""}
        for scope, name in gate.required_verify_checks(lo, hi)
    ]
    checks.append({"scope": "g=3", "name": "betti-monotone-note", "ok": True, "detail": ""})
    return {"range": [lo, hi], "checks": checks, "all_ok": True}


def ideal_answers(genus):
    ref = REFS["genera"][str(genus)]
    return {
        "basis": list(ref["basis"]),
        "pairings": dict(ref["pairings"]),
        "hilbert": list(ref["hilbert"]),
        "ideal_equal": True,
        "nf": ["0", "c^3", "1/2*a*b"],
        "nf_support": [[], [(0, 0, 3)], [(1, 1, 0)]],
    }


def nf_ref(answers):
    return [gate.nf_digest(text) for text in answers["nf"]]


class VerifyGate(unittest.TestCase):
    def test_correct_payload_passes(self):
        attempted, failures = gate.check_verify(0, verify_payload(1, 10), 1, 10)
        self.assertEqual(failures, [])
        self.assertEqual(attempted, 1 + len(gate.required_verify_checks(1, 10)))

    def test_dropped_note_and_added_check_are_tolerated(self):
        payload = verify_payload(1, 4)
        payload["checks"] = [c for c in payload["checks"] if c["name"] != "betti-monotone-note"]
        payload["checks"].append({"scope": "g=2", "name": "new-check", "ok": True})
        self.assertEqual(gate.check_verify(0, payload, 1, 4)[1], [])

    def test_failing_check_is_reported(self):
        payload = verify_payload(1, 4)
        payload["all_ok"] = False
        for check in payload["checks"]:
            if check["scope"] == "g=3" and check["name"] == "tangent-vanishing":
                check["ok"] = False
        failures = gate.check_verify(1, payload, 1, 4)[1]
        self.assertEqual(
            failures, ["verify exited with code 1", "g=3 tangent-vanishing: FAILED"]
        )

    def test_missing_check_is_reported(self):
        payload = verify_payload(1, 4)
        payload["checks"] = [c for c in payload["checks"] if c["scope"] != "global"]
        failures = gate.check_verify(0, payload, 1, 4)[1]
        self.assertEqual(failures, ["global functional-equation: missing"])

    def test_all_ok_false_with_exit_zero_is_reported(self):
        payload = verify_payload(1, 2)
        payload["all_ok"] = False
        self.assertEqual(gate.check_verify(0, payload, 1, 2)[1], ["verify did not report all_ok"])

    def test_unparsable_output_fails_every_check(self):
        attempted, failures = gate.check_verify(0, None, 1, 2)
        self.assertEqual(len(failures), attempted)


class IdealGate(unittest.TestCase):
    def check(self, answers, ref=None, digests=None):
        ref = ref if ref is not None else REFS["genera"]["14"]
        return gate.check_ideal_answers(14, answers, ref, digests)

    def test_reference_answers_pass(self):
        answers = ideal_answers(14)
        attempted, failures = self.check(answers, digests=nf_ref(answers))
        self.assertEqual(failures, [])
        self.assertEqual(attempted, 3 + len(answers["pairings"]) + len(answers["nf"]))

    def test_tampered_reference_pairing_fails(self):
        answers = ideal_answers(14)
        ref = copy.deepcopy(REFS["genera"]["14"])
        mono = sorted(ref["pairings"])[0]
        ref["pairings"][mono] = "12345/7"
        failures = self.check(answers, ref=ref)[1]
        self.assertEqual(len(failures), 1)
        self.assertIn(mono, failures[0])

    def test_wrong_basis_hilbert_and_ideal_answer_fail(self):
        answers = ideal_answers(14)
        answers["basis"][0] += " + c"
        answers["hilbert"][3] += 1
        answers["ideal_equal"] = False
        self.assertEqual(len(self.check(answers)[1]), 3)

    def test_nf_against_reference_digest(self):
        answers = ideal_answers(14)
        digests = nf_ref(answers)
        answers["nf"][1] = "2*c^3"
        failures = self.check(answers, digests=digests)[1]
        self.assertEqual(failures, ["g=14 nf #1 differs from reference"])

    def test_nf_on_non_standard_monomial_fails_without_reference(self):
        answers = ideal_answers(14)
        answers["nf"].append("a^14")
        answers["nf_support"].append([(14, 0, 0)])
        failures = self.check(answers)[1]
        self.assertEqual(failures, ["g=14 nf #3 has a non-standard term: a^14"])

    def test_every_recorded_seed_has_digests_for_each_genus(self):
        for seed, per_genus in REFS["nf"].items():
            self.assertEqual(sorted(per_genus), sorted(REFS["genera"]), seed)


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        spans = [
            (0, "cli.run_verify", 0.0, 10.0, None, 1),
            (1, "chern.tangent_chern", 1.0, 4.0, 0, 2),
            (2, "groebner.normal_form", 3.0, 6.0, 0, 3),
            (3, "groebner.normal_form", 3.5, 4.5, 1, 2),
        ]
        totals = self_times(spans)
        self.assertEqual(totals["cli.run_verify"], (5.0, 1))
        self.assertEqual(totals["chern.tangent_chern"], (2.5, 1))
        self.assertEqual(totals["groebner.normal_form"], (4.0, 2))
        self.assertEqual(totals["betti.newstead_betti"], (0.0, 0))


if __name__ == "__main__":
    unittest.main()
