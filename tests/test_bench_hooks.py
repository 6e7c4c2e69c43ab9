"""The benchmark's tracer wraps package functions by "module:attribute"
name.  A hook it cannot resolve is reported as absent rather than failing
the run, so this guard makes a rename in the package fail here instead.
The benchmark's self-test also runs here, so a package change that breaks
its tracer or output checks fails the package's own tests."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_resolve():
    targets = [t for _, ts, _ in _load_tracer().HOOKS for t in ts if t.startswith("genbinom")]
    assert targets
    missing = []
    for target in targets:
        module_name, path = target.split(":")
        owner = importlib.import_module(module_name)
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if owner is None:
            missing.append(target)
    assert missing == []


def test_bench_selftest_passes():
    # the benchmark's own tests: generators, output checks and tracer
    proc = subprocess.run(
        [sys.executable, str(TRACER.parent / "selftest.py")],
        cwd=TRACER.parent.parent, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
