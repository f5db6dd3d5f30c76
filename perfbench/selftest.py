"""Self-tests of the benchmark itself (not of pvtower).

Run from the repository root:

    python3 perfbench/selftest.py

Checks that the generator is deterministic, that the reference agrees
with pvtower on small datums and symbolic jobs, that the modular
invariant factors agree with sympy's, and that a corrupted, failed or
unreadable output is counted as failed.
"""

from __future__ import annotations

import json
import os
import random
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pvtower import cli  # noqa: E402


def small_datum(rng: random.Random) -> dict:
    """n <= 3; each parity free under powers of one unimodular A, or (Z/m)^h under signed shifts."""
    n = rng.randint(1, 3)
    datum = {"n": n, "endos": [{} for _ in range(n)]}
    for parity in reference.PARITIES:
        if rng.random() < 0.5:
            g = rng.randint(0, 3)
            a = workloads.dense_unimodular(g, 2, rng) if g else []
            power = a
            for e in datum["endos"]:
                e[parity] = power
                power = workloads.matmul(power, a) if g else []
            datum[parity] = {"free_rank": g, "relations": []}
        else:
            h, m = rng.randint(1, 3), rng.choice((2, 3, 4, 6))
            for e in datum["endos"]:
                e[parity] = workloads.signed_shift(h, rng.randrange(h), rng.choice((1, -1)))
            rel = [[m if i == j else 0 for j in range(h)] for i in range(h)]
            datum[parity] = {"free_rank": h, "relations": rel}
    return datum


def datum_jobs(datum: dict) -> list[workloads.Job]:
    cmds = ("tower", "koszul", "rank1") if datum["n"] == 1 else ("tower", "koszul")
    return [workloads.datum_job(cmd, datum) for cmd in cmds]


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_jobs(self):
        for name in workloads.WORKLOADS:
            a, b = workloads.generate(name, 7), workloads.generate(name, 7)
            self.assertEqual([(j.argv, j.payload) for j in a], [(j.argv, j.payload) for j in b])
            self.assertEqual(workloads.digest(a), workloads.digest(b))

    def test_other_seed_other_jobs(self):
        for name in workloads.WORKLOADS:
            self.assertNotEqual(
                workloads.digest(workloads.generate(name, 1)),
                workloads.digest(workloads.generate(name, 2)),
            )


class ReferenceTest(unittest.TestCase):
    def test_invariant_factors_match_sympy(self):
        rng = random.Random(5)
        for _ in range(200):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            k = rng.randint(0, min(rows, cols))
            left = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(rows)]
            right = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(k)]
            mat = [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(cols)]
                   for i in range(rows)]
            got = reference.invariant_torsion(mat, rows, cols)
            self.assertEqual((list(got[0]), got[1]), reference.sympy_factors(mat, rows, cols), mat)

    def test_agrees_with_pvtower_on_small_datums(self):
        rng = random.Random(11)
        for _ in range(25):
            datum = small_datum(rng)
            for job in datum_jobs(datum):
                code, out = tracing.call_cli(cli, job)
                problems = reference.check(job, reference.expectation(job), code, out)
                self.assertEqual(problems, [], (job.label, datum))

    def test_agrees_with_pvtower_on_symbolic_jobs(self):
        jobs = [j for j in workloads.generate("symbolic", 3) if j.spec.get("n", 0) <= 7]
        for job in jobs:
            code, out = tracing.call_cli(cli, job)
            self.assertEqual(reference.check(job, reference.expectation(job), code, out), [])


class FailureCountTest(unittest.TestCase):
    def setUp(self):
        rng = random.Random(3)
        self.jobs = [j for _ in range(3) for j in datum_jobs(small_datum(rng))]
        self.expected = [reference.expectation(j) for j in self.jobs]
        self.outputs = []
        for i, job in enumerate(self.jobs):
            code, out = tracing.call_cli(cli, job)
            self.outputs.append((i, code, out))

    def test_clean_outputs_pass(self):
        failed, _ = run.count_failures(self.jobs, self.expected, self.outputs)
        self.assertEqual(failed, 0)

    def test_corrupted_group_is_counted(self):
        i, code, out = self.outputs[0]
        obj = json.loads(out)
        obj["final"]["even"] = "Z^99 + Z/7"
        outputs = [(i, code, json.dumps(obj).encode())] + self.outputs[1:]
        failed, notes = run.count_failures(self.jobs, self.expected, outputs)
        self.assertEqual(failed, 1)
        self.assertIn("final.even", notes[0])

    def test_flipped_flag_exit_code_and_garbage_are_counted(self):
        i, code, out = self.outputs[0]
        obj = json.loads(out)
        obj["ambiguous"] = not obj["ambiguous"]
        outputs = [
            (i, code, json.dumps(obj).encode()),
            (1, 1, self.outputs[1][2]),
            (2, 0, b"not json"),
            (3, 0, b'{"K0": "Z"}'),
        ] + self.outputs[4:]
        failed, _ = run.count_failures(self.jobs, self.expected, outputs)
        self.assertEqual(failed, 4)


class TailTest(unittest.TestCase):
    def test_ten_jobs_beyond(self):
        self.assertEqual(run.tail([float(x) for x in range(100)], 100), (89.0, 90.0))

    def test_same_percentile_over_more_rounds(self):
        self.assertEqual(run.tail([float(x) for x in range(300)], 100), (269.0, 90.0))


if __name__ == "__main__":
    unittest.main()
