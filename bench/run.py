"""Benchmark of the genbinom CLI and library: one seeded workload per run.

Usage, from the root of a checkout:

  python3 bench/run.py --workload route_crosscheck --seed 1 --seconds 45 --trace 0

Each run is a closed loop with one client in this single-threaded process:
the next request is sent when the previous one has returned.  The process
is fresh, so the package's memos start cold, as for a CLI call.  Requests
are generated from the seed (see workloads.py) and are sent in order until
the list is done or ``--seconds`` have passed.  Every output is checked
after the timed region (see checks.py).

With ``--trace 0`` the last line of stdout is the result with the
end-to-end metrics.  With ``--trace 1`` the whole list is run with the
per-layer tracer on (see tracer.py), the same list is run untraced in a
fresh interpreter to measure the tracing overhead, and the result carries
the per-layer metrics.  The line before the result is run metadata.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# Set-up is timed this many times before the timed region and again after
# it, so that its median spans the run rather than one moment of it.
SETUP_REPEATS = 10
# A traced run sends the whole list so that its counters repeat exactly, then
# sends it again untraced; the caps keep both within a 180 s run.
TRACE_CAP_SECONDS = 100
UNTRACED_CAP_SECONDS = 60
MIN_REQUESTS = 200

# Started in a fresh interpreter to time the set-up a CLI user pays on every
# call: interpreter start, `import genbinom.cli` and the argument parser.
_SETUP_CHILD = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import genbinom.cli as cli\n"
    "cli.build_parser()\n"
    "sys.stdout.write('ready\\n')\n"
    "sys.stdout.flush()\n"
)


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def load_program():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "genbinom" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'genbinom'}")
    sys.path.insert(0, str(SRC))
    import genbinom
    import genbinom.cli
    import genbinom.coefficients

    if Path(genbinom.__file__).resolve().parent != (SRC / "genbinom").resolve():
        raise BenchError(f"imported genbinom from {genbinom.__file__}, not {SRC}")
    return genbinom


def time_setup(repeats: int) -> list:
    """Seconds from starting a fresh interpreter to the parser built, once
    per repeat."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", _SETUP_CHILD, str(SRC)], cwd=ROOT,
                              stdout=subprocess.PIPE, stdin=subprocess.DEVNULL) as child:
            line = child.stdout.readline()
            t1 = time.perf_counter()
            child.stdout.read()
            code = child.wait(timeout=60)
        if line != b"ready\n" or code != 0:
            raise BenchError(f"set-up child failed with exit code {code}")
        times.append(t1 - t0)
    return times


def make_executor(genbinom, tracer=None):
    """Return execute(request) -> result, calling the package through module
    attributes so that the tracer's wrappers are seen."""
    cli = genbinom.cli
    coefficients = genbinom.coefficients

    def execute(request):
        if request[0] == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(request[1]))
            text = out.getvalue()
            if tracer is not None:
                tracer.counts["cli.out_bytes"] += len(text.encode())
            return (code, text)
        _, parts, method = request
        return dict(coefficients.c_table(coefficients.Composition(parts), method).values)

    return execute


def run_loop(requests, execute, deadline_s, tracer=None):
    """Send requests one after another until the list is done or the
    deadline passes.  Returns (results, latencies in seconds, busy seconds).
    An exception is a result too; it counts as a failure."""
    results, latencies = [], []
    start = time.perf_counter()
    for i, request in enumerate(requests):
        if time.perf_counter() - start >= deadline_s and len(results) >= MIN_REQUESTS:
            break
        if tracer is not None:
            tracer.begin_request(i)
        t0 = time.perf_counter()
        try:
            result = execute(request)
        except Exception as exc:  # a failed request, recorded and checked below
            result = exc
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_request()
        results.append(result)
        latencies.append(t1 - t0)
    return results, latencies, time.perf_counter() - start


def count_failures(requests, results):
    """(number failed, first few reasons).  Runs outside the timed region."""
    failed, reasons = 0, []
    for request, result in zip(requests, results):
        if isinstance(result, Exception):
            reason = f"raised {result!r}"
        else:
            reason = checks.check(request, result)
        if reason is not None:
            failed += 1
            if len(reasons) < 5:
                reasons.append({"request": request, "reason": reason})
    return failed, reasons


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least q% of the
    values at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def source_digest() -> str:
    """sha256 over the package sources, identifying the code measured even
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "genbinom").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def metadata(args, requests, run_count):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "requests_generated": len(requests),
        "requests_run": run_count,
        "requests_digest": workloads.digest(requests),
        "commit": git_commit(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def declared_metrics(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def emit(meta, attempted, failed, values, kind):
    """Print the metadata line, then the result line with every metric that
    BENCHMARK.json declares for this kind of run."""
    units = declared_metrics(kind)
    missing = sorted(set(units) - set(values))
    if kind == "end_to_end" and missing:
        raise BenchError(f"no value for declared metrics {missing}")
    if kind == "per_layer":
        # Not exercised by this workload, or its hook is absent (see meta
        # "absent_hooks"): it reads 0.
        meta["per_layer_zero"] = missing
        values = {**dict.fromkeys(missing, 0), **values}
    print(json.dumps({"meta": meta}, separators=(",", ":")))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }, separators=(",", ":")))


def run_untraced(args, requests):
    genbinom = load_program()
    time_setup(1)  # writes the bytecode cache, as a first call would
    setup_times = time_setup(SETUP_REPEATS)
    results, latencies, busy = run_loop(requests, make_executor(genbinom), args.seconds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_times += time_setup(SETUP_REPEATS)
    setup_s = statistics.median(setup_times)
    failed, reasons = count_failures(requests, results)
    n = len(results)
    p95 = percentile(latencies, 95)
    values = {
        "setup_s": setup_s,
        "throughput_rps": n / busy,
        "latency_p50_ms": percentile(latencies, 50) * 1000,
        "latency_p95_ms": p95 * 1000,
        "peak_rss_mib": peak_rss_mib,
        "ok_frac": (n - failed) / n,
    }
    meta = metadata(args, requests, n)
    meta.update(samples=n, beyond_p95=sum(x > p95 for x in latencies), busy_s=busy,
                failures=reasons)
    emit(meta, n, failed, values, "end_to_end")


def run_traced(args, requests):
    genbinom = load_program()
    tracer = Tracer()
    tracer.install()
    try:
        results, _, busy = run_loop(
            requests, make_executor(genbinom, tracer), TRACE_CAP_SECONDS, tracer)
    finally:
        tracer.uninstall()
    values = tracer.metrics()
    failed, reasons = count_failures(requests, results)
    n = len(results)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.spans.write(spans_file)

    # The same requests, untraced, in a fresh interpreter: the tracing overhead.
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(UNTRACED_CAP_SECONDS), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=UNTRACED_CAP_SECONDS + 60)
    if child.returncode != 0:
        raise BenchError(f"untraced comparison run failed: {child.stderr.strip()[-500:]}")
    plain = json.loads(child.stdout.strip().splitlines()[-1])
    plain_mean_ms = 1000 / plain["metrics"]["throughput_rps"]["value"]
    traced_mean_ms = busy / n * 1000
    values["trace.overhead_pct"] = (traced_mean_ms / plain_mean_ms - 1) * 100
    values["trace.requests"] = n

    meta = metadata(args, requests, n)
    meta.update(
        complete=n == len(requests), absent_hooks=tracer.absent,
        spans_file=str(spans_file.relative_to(ROOT)), spans_kept=len(tracer.spans),
        spans_dropped=tracer.spans.dropped, traced_mean_ms=traced_mean_ms,
        untraced_mean_ms=plain_mean_ms, failures=reasons)
    emit(meta, n, failed, values, "per_layer")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="stop sending requests after this long (untraced runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    requests = workloads.generate(args.workload, args.seed)
    try:
        (run_traced if args.trace else run_untraced)(args, requests)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
