"""Tests of the benchmark itself (stdlib unittest; pytest also collects them).

    python3 decbench/test_decbench.py
"""

from __future__ import annotations

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

PROG = workloads.Program()
OUT = os.path.join(ROOT, ".decbench_out", "test")
_LOADED: dict = {}


def load(name: str):
    if name not in _LOADED:
        wl = workloads.make(name, OUT)
        wl.setup(PROG)
        wl.prepare(PROG)
        _LOADED[name] = wl
    return _LOADED[name]


def decisions(name: str, rounds: int = 1, seed: int = 7) -> list:
    wl = load(name)
    return [dec for i in range(rounds) for dec in wl.round(run.round_rng(seed, name, i))]


def first(name: str, family: str, planted: str = "yes"):
    return next(d for d in decisions(name) if d.family == family and d.planted == planted)


class CorruptedWitness(unittest.TestCase):
    """A witness that no longer re-substitutes is judged wrong."""

    def assert_caught(self, dec, corrupt):
        result = dec.call()
        self.assertEqual(dec.judge(result)[0], "ok")
        self.assertEqual(dec.judge(corrupt(result))[0], "wrong")

    def test_postprocessing(self):
        def corrupt(nu):
            rows = [list(r) for r in nu]
            rows[0][0] += 0.01
            rows[0][1] -= 0.01   # still row-stochastic, no longer reproduces the target
            return rows
        self.assert_caught(first("relations-float", "pp"), corrupt)

    def test_simulation_exact(self):
        def corrupt(w):
            mats = [[list(r) for r in m] for m in w.matrices]
            mats[0][0][0] += check.MARGIN
            return type(w)(w.weights, tuple(mats))
        self.assert_caught(first("relations-exact", "sim"), corrupt)

    def test_joint_observable(self):
        def corrupt(joint):
            effects = list(joint.effects)
            effects[0] = effects[0][:-1] + (effects[0][-1] + 0.01,)
            return type(joint)(joint.space, tuple(effects), joint.outcomes)
        self.assert_caught(first("relations-float", "compat.triple"), corrupt)

    def test_dichotomic_functional(self):
        dec = first("relations-float", "compat.g")
        self.assertTrue(dec.space.startswith("polygon"))  # unit functional (0, 0, 1)
        self.assert_caught(dec, lambda g: g[:-1] + (g[-1] + 2,))  # g > a everywhere

    def test_ultraweak_witness(self):
        def corrupt(res):
            left = [list(r) for r in res.left]
            left[0] = left[0][1:] + left[0][:1]
            return type(res)(res.verdict, tuple(map(tuple, left)), res.right)
        self.assert_caught(first("comm-search", "identity.target"), corrupt)

    def test_cli_simulation_report(self):
        dec = first("cli-tables", "check.sim")
        self.assertEqual(dec.judge(dec.call())[0], "ok")
        with open(dec.report) as fh:
            report = json.load(fh)
        report["witness"]["matrices"][0][0][0] += 0.01
        with open(dec.report, "w") as fh:
            json.dump(report, fh)
        self.assertEqual(dec.judge(0)[0], "wrong")


class FlippedVerdict(unittest.TestCase):
    """An answer opposite to the planted verdict is judged wrong."""

    def test_relations(self):
        for name in ("relations-float", "relations-exact"):
            for dec in decisions(name):
                result = dec.call()
                self.assertEqual(dec.judge(result)[0], "ok", (dec.family, dec.space))
                if dec.family == "compat.margin":
                    flipped = -result if result else (-1 if dec.planted == "yes" else 1)
                elif dec.family.startswith("noise."):
                    flipped = not result
                elif dec.planted == "yes":
                    flipped = None
                else:
                    continue  # a "no" flipped to "yes" needs a witness: see below
                self.assertEqual(dec.judge(flipped)[0], "wrong", (dec.family, dec.space))

    def test_yes_on_planted_no(self):
        """A "yes" on a planted "no" is wrong, whatever witness comes with it."""
        pp_yes, pp_no = first("relations-float", "pp"), first("relations-float", "pp", "no")
        self.assertEqual(pp_no.judge(pp_yes.call())[0], "wrong")

    def test_communication(self):
        res_type = type(PROG.g.ultraweak_leq(PROG.g.identity_matrix(2),
                                             PROG.g.identity_matrix(2)))
        for dec in decisions("comm-search"):
            if dec.family.endswith(".planted"):
                continue
            opposite = "no" if dec.planted == "yes" else "yes"
            self.assertEqual(dec.judge(res_type(opposite))[0], "wrong", dec.family)

    def test_tables(self):
        for family, key in (("tables.dims", "lambda_max"), ("tables.irreducibles", "trichotomic")):
            dec = first("cli-tables", family)
            self.assertEqual(dec.judge(dec.call())[0], "ok")
            with open(dec.report) as fh:
                report = json.load(fh)
            report["rows"][-1][key] += 1
            with open(dec.report, "w") as fh:
                json.dump(report, fh)
            self.assertEqual(dec.judge(0)[0], "wrong", family)


class PlantedNoCertified(unittest.TestCase):
    """Every planted "no" carries a certificate from the benchmark's own
    monotones, and it holds on every instance drawn."""

    def test_certificates(self):
        for name in ("relations-float", "relations-exact", "comm-search"):
            for seed in range(3):
                for dec in decisions(name, rounds=3, seed=seed):
                    if dec.planted == "no":
                        self.assertIsNotNone(dec.certify, (name, dec.family))
                    if dec.certify is not None:
                        self.assertTrue(dec.certify(), (name, dec.family, dec.space))

    def test_norm_criterion(self):
        g = check.Geometry("square", True)
        self.assertGreater(check.psym_criterion(g, (check.Fraction(1, 2), 0, check.Fraction(1, 2)),
                                                (0, check.Fraction(1, 2), check.Fraction(1, 2))), 2)


class Determinism(unittest.TestCase):
    def test_same_seed_same_decisions(self):
        for name in workloads.WORKLOADS:
            lists = []
            for _ in range(2):
                wl = workloads.make(name, OUT)
                wl.setup(PROG)
                wl.prepare(PROG)
                recs, _ = run.run_passes(run.draw(wl, name, 5, rounds=1), 0, once=True)
                lists.append([(r.round, r.family, r.space, r.planted, r.outcome, r.verdict)
                              for r in recs])
            self.assertEqual(lists[0], lists[1], name)
            self.assertTrue(all(r[4] in ("ok", "inconclusive") for r in lists[0]), name)


if __name__ == "__main__":
    unittest.main()
