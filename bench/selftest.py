"""Self-test of the benchmark at tiny scale.

  python3 bench/selftest.py

Checks that every workload generator is deterministic for a seed, that
every workload's output check passes the program's real answers and counts
a deliberately corrupted answer as a failure, and that the tracer survives
a missing hook, restores what it wrapped and repeats its exact counters.
The file name keeps it out of the package's own pytest run.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

GENBINOM = run.load_program()


def _cheap(workload: str, count: int = 6):
    """The first few requests of seed 0 that touch compositions with |r| <= 6,
    one per command, route or identity id where the list has several."""
    seen, out = set(), []
    for request in workloads.generate(workload, 0):
        if request[0] == "c_table":
            parts, kind = request[1], request[2]
        else:
            args = dict(zip(request[1][1::2], request[1][2::2]))
            parts = [int(x) for x in args.get("--r", "1").split(",")]
            kind = (request[1][0], args.get("--id"), args.get("--basis"), "--k" in args,
                    args.get("--format"))
            if int(args.get("--n", 1)) > 6:
                continue
        if sum(parts) <= 6 and kind not in seen:
            seen.add(kind)
            out.append(request)
        if len(out) == count:
            break
    return out


def _corrupt(request, result):
    """A wrong answer of the same shape as ``result``."""
    if request[0] == "c_table":
        bad = dict(result)
        bad[1] += 1
        return bad
    code, out = result
    if request[1][0] == "verify":
        return code, out.replace('"verified"', '"failed"', 1)
    if "--k" in request[1]:
        return code, json.dumps(str(int(json.loads(out)) + 1)) + "\n"
    if "--format" in request[1]:  # csv: bump the last value
        head, _, last = out.rstrip("\n").rpartition(",")
        return code, f"{head},{int(last) + 1}\n"
    table = json.loads(out)
    key = max(table, key=int)
    table[key] = str(checks.Fraction(table[key]) + 1)
    return code, json.dumps(table) + "\n"


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_requests(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                first, again = workloads.generate(name, 7), workloads.generate(name, 7)
                self.assertEqual(first, again)
                self.assertEqual(workloads.digest(first), workloads.digest(again))
                self.assertGreaterEqual(len(first), run.MIN_REQUESTS)

    def test_other_seed_other_requests(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertNotEqual(workloads.digest(workloads.generate(name, 7)),
                                    workloads.digest(workloads.generate(name, 8)))


class CheckTest(unittest.TestCase):
    def test_real_answers_pass_and_corrupted_fail(self):
        execute = run.make_executor(GENBINOM)
        for name in workloads.WORKLOADS:
            requests = _cheap(name)
            self.assertTrue(requests)
            results, _, _ = run.run_loop(requests, execute, deadline_s=60)
            self.assertEqual(run.count_failures(requests, results)[0], 0, name)
            for i, request in enumerate(requests):
                with self.subTest(request=request):
                    bad = list(results)
                    bad[i] = _corrupt(request, results[i])
                    self.assertEqual(run.count_failures(requests, bad)[0], 1)

    def test_no_output_and_errors_fail(self):
        argv = ["verify", "--id", "injections", "--n", "2"]
        self.assertIsNotNone(checks.check(("cli", argv), (0, "")))
        one_line = '{"id":"injections","params":{},"status":"verified"}\n'
        self.assertIsNotNone(checks.check(("cli", argv), (0, one_line)))
        self.assertIsNotNone(checks.check(("cli", ["coeff", "--r", "2,1"]), (1, '{"1":"3"}')))
        self.assertEqual(run.count_failures([("c_table", [2, 1], "explicit")],
                                            [ValueError("boom")])[0], 1)


class TracerTest(unittest.TestCase):
    def test_missing_hook_is_absent_and_originals_return(self):
        coefficients = GENBINOM.coefficients
        before = (coefficients.c_table, GENBINOM.series.MPoly.__mul__, checks.Fraction.__new__)
        hooks = list(tracer.HOOKS)
        tracer.HOOKS.append(("series.gone", ["genbinom.series:no_such_function",
                                             "genbinom.no_such_module:f"], {}))
        try:
            t = tracer.Tracer()
            t.install()
            try:
                t.begin_request(0)
                coefficients.c_table(coefficients.Composition([2, 1]))
                t.end_request()
            finally:
                t.uninstall()
        finally:
            tracer.HOOKS[:] = hooks
        self.assertEqual(t.absent, ["genbinom.series:no_such_function",
                                    "genbinom.no_such_module:f"])
        self.assertEqual(t.metrics()["coefficients.c_table.calls"], 1)
        after = (coefficients.c_table, GENBINOM.series.MPoly.__mul__, checks.Fraction.__new__)
        self.assertEqual(before, after)

    def test_exact_counters_repeat_in_fresh_interpreters(self):
        code = (
            "import json, sys\n"
            f"sys.path.insert(0, {str(run.BENCH)!r})\n"
            "import run, selftest, tracer\n"
            "t = tracer.Tracer()\n"
            "execute = run.make_executor(selftest.GENBINOM, t)\n"
            "requests = [r for w in run.workloads.WORKLOADS for r in selftest._cheap(w)]\n"
            "t.install()\n"
            "run.run_loop(requests, execute, 60, t)\n"
            "t.uninstall()\n"
            "m = t.metrics()\n"
            "print(json.dumps({k: v for k, v in m.items() if not k.endswith('ms')}))\n"
        )
        outs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               timeout=120, check=True).stdout for _ in range(2)]
        first = json.loads(outs[0])
        self.assertEqual(first, json.loads(outs[1]))
        for name in ("exactnum.fraction_new", "series.mpoly_mul.term_pairs",
                     "polybasis.upoly_mul.coeff_pairs", "partitions.yielded",
                     "coefficients.memo.misses"):
            self.assertGreater(first[name], 0, name)


if __name__ == "__main__":
    unittest.main()
