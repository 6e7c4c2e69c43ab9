import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import genbinom
from genbinom import cli, coefficients
from genbinom.cli import main
from genbinom.identities import IDENTITY_IDS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeff_table(capsys):
    code, out, _ = run(capsys, "coeff", "--r", "3")
    assert code == 0
    assert out.strip() == '{"1":"3","2":"3","3":"1"}'


def test_coeff_table_two_species(capsys):
    code, out, _ = run(capsys, "coeff", "--r", "1,1")
    assert code == 0
    assert out.strip() == '{"1":"2","2":"2"}'


def test_coeff_single_k(capsys):
    code, out, _ = run(capsys, "coeff", "--r", "2,1", "--k", "3")
    assert code == 0
    assert out.strip() == '"3"'


def test_coeff_methods_agree(capsys):
    outputs = set()
    for method in ("explicit", "genfun", "recurrence", "finite_diff"):
        code, out, _ = run(capsys, "coeff", "--r", "2,2", "--method", method)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_coeff_bad_composition(capsys):
    code, _, err = run(capsys, "coeff", "--r", "0,0")
    assert code == 2
    assert "error" in err
    code, _, _ = run(capsys, "coeff", "--r", "2,x")
    assert code == 2
    code, out, _ = run(capsys, "coeff", "--r", "2.5")
    assert (code, out) == (2, "")


def test_coeff_hyp3f2_shape_mismatch(capsys):
    code, _, err = run(capsys, "coeff", "--r", "1,1,1", "--method", "hyp3f2")
    assert code == 3
    assert "hyp3f2" in err


def test_coeff_genfun_over_budget(capsys):
    code, out, err = run(capsys, "coeff", "--r", "20,20,20,20,20,20", "--method", "genfun")
    assert (code, out) == (3, "")
    assert "budget" in err


def test_exit_codes_come_from_exception_types(capsys, monkeypatch):
    for argv, want in [
        (["coeff", "--r", "1,1,1", "--method", "hyp3f2"], 3),
        (["coeff", "--r", "20,20,20,20,20,20", "--method", "genfun"], 3),
        (["coeff", "--r", "2,1", "--k", "0"], 2),
        (["coeff", "--r", "1,1,1", "--method", "hyp3f2", "--k", "0"], 2),  # the k rule wins
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (want, ""), argv
        assert err.startswith("error: "), argv
    # the type alone picks the code, wherever the exception is raised
    for exc, want in [(coefficients.ShapeError, 3), (ValueError, 2), (ArithmeticError, 1)]:
        def kernel(r, exc=exc):
            raise exc("raised in the kernel")
        monkeypatch.setitem(coefficients._KERNELS, coefficients.DEFAULT_C_METHOD, kernel)
        code, out, err = run(capsys, "coeff", "--r", "2,1")
        assert (code, out, err) == (want, "", "error: raised in the kernel\n"), exc


def test_coeff_csv(capsys):
    code, out, _ = run(capsys, "coeff", "--r", "2,1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,value"
    assert lines[1:] == ["1,3", "2,6", "3,3"]


def test_coeff_text(capsys):
    code, out, _ = run(capsys, "coeff", "--r", "3", "--format", "text")
    assert code == 0
    assert out.strip().splitlines() == ["1 3", "2 3", "3 1"]


def test_coeff_json_round_trip(capsys):
    code, out, _ = run(capsys, "coeff", "--r", "4,4,4")
    assert code == 0
    values = json.loads(out)
    assert list(values) == [str(k) for k in range(1, 13)]
    assert all(Fraction(v) >= 1 for v in values.values())


def test_verify_sweep_ok(capsys):
    code, out, _ = run(capsys, "verify", "--id", "las", "--n-max", "4", "--m-max", "2", "--r-max", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines
    for line in lines:
        decoded = json.loads(line)
        assert decoded["id"] == "las"
        assert decoded["status"] == "verified"


def test_verify_mac(capsys):
    code, out, _ = run(capsys, "verify", "--id", "mac", "--n-max", "12")
    assert code == 0
    assert len(out.strip().splitlines()) == 12


def test_verify_fixed_instance(capsys):
    code, out, _ = run(capsys, "verify", "--id", "las", "--n", "4", "--r", "2,1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "id": "las",
        "params": {"n": 4, "r": [2, 1]},
        "status": "verified",
    }


def test_verify_fixed_p(capsys):
    code, out, _ = run(capsys, "verify", "--id", "las0pp", "--n", "5", "--p", "2", "--r", "1,1")
    assert code == 0
    decoded = [json.loads(line) for line in out.strip().splitlines()]
    assert decoded == [{"id": "las0pp", "params": {"n": 5, "p": 2, "r": [1, 1]}, "status": "verified"}]


def test_verify_waring_with_caps(capsys):
    code, out, _ = run(capsys, "verify", "--id", "waring", "--r", "2,2")
    assert code == 0
    assert json.loads(out.strip())["params"]["caps"] == [2, 2]


def test_verify_bad_fixed_args(capsys):
    code, _, _ = run(capsys, "verify", "--id", "las", "--r", "0,0")
    assert code == 2
    code, _, _ = run(capsys, "verify", "--id", "las", "--n", "0")
    assert code == 2
    code, _, _ = run(capsys, "verify", "--id", "binom2", "--r", "1,1,1")
    assert code == 2


def test_verify_bigeq_rejects_fixed_zero_species(capsys):
    # the fixed composition is rejected by the species rule, not dropped from the grid
    code, out, err = run(capsys, "verify", "--id", "bigeq", "--n", "2", "--r", "1,0")
    assert (code, out) == (2, "")
    assert "a species with zero representatives cannot send a delegation" in err
    assert "no instance" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--id", "las", "--n-max", "-1"],
        ["--id", "las0pp", "--n", "3", "--p", "9"],
        ["--id", "injections", "--n-max", "8"],
        ["--id", "mac", "--n-max", "0"],
    ],
    ids=["negative-n-max", "p-above-n", "over-oracle-budget", "zero-n-max"],
)
def test_verify_rejects_grid_before_output(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert "error" in err


# the fixed parameters each id takes; verify rejects any other one
_TAKES = {"las": "nr", "bigeq": "nr", "las0p": "nr", "las0pp": "npr", "mac": "n", "lemma1": "n",
          "waring": "r", "linm": "r", "linbin": "r", "linlas": "r", "binom2": "r", "injections": "n"}
_FIXED_VALUE = {"n": "2", "p": "1", "r": "2,1"}


def test_takes_table_covers_every_id():
    assert sorted(_TAKES) == sorted(IDENTITY_IDS)


@pytest.mark.parametrize("ident,flag", [(i, f) for i in sorted(_TAKES) for f in "npr" if f not in _TAKES[i]])
def test_verify_rejects_unused_fixed_parameter(capsys, ident, flag):
    argv = ["verify", "--id", ident, "--n-max", "2", "--m-max", "1", "--r-max", "2"]
    code, out, err = run(capsys, *argv, f"--{flag}", _FIXED_VALUE[flag])
    assert (code, out) == (2, "")
    assert f"{ident} takes no fixed {flag}" in err


@pytest.mark.parametrize("ident,flag", [(i, f) for i in sorted(_TAKES) for f in _TAKES[i]])
def test_verify_accepts_used_fixed_parameter(capsys, ident, flag):
    argv = ["verify", "--id", ident, "--n-max", "2", "--m-max", "1", "--r-max", "2"]
    code, out, _ = run(capsys, *argv, f"--{flag}", _FIXED_VALUE[flag])
    assert code == 0 and out


def test_verify_never_prints_then_rejects(capsys):
    # degenerate bounds either check at least one instance or print nothing
    for ident in IDENTITY_IDS:
        for n_max, m_max, r_max in product(("-1", "0", "2"), repeat=3):
            argv = ["verify", "--id", ident, "--n-max", n_max, "--m-max", m_max, "--r-max", r_max]
            code, out, _ = run(capsys, *argv)
            assert (code, bool(out)) in ((0, True), (2, False)), argv


def test_verify_partition_budget_edge(capsys):
    # n = 45 is the largest n a partition-sum id enumerates; above it, exit 2 before any output
    code, out, _ = run(capsys, "verify", "--id", "bigeq", "--n", "45", "--r", "1")
    assert code == 0
    assert json.loads(out) == {"id": "bigeq", "params": {"n": 45, "r": [1]}, "status": "verified"}
    for argv in (["--id", "bigeq", "--n", "46", "--r", "1"], ["--id", "bigeq", "--n-max", "46", "--r", "1"],
                 ["--id", "mac", "--n", "200"]):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, ""), argv
        assert "partition-sum budget PARTITION_N_MAX = 45" in err, argv


def test_verify_unknown_id(capsys):
    code, _, err = run(capsys, "verify", "--id", "nosuch")
    assert code == 2
    assert "unknown identity" in err


def test_verify_usage_error(capsys):
    code, _, _ = run(capsys, "verify")
    assert code == 2


def test_linearize_examples(capsys):
    code, out, _ = run(capsys, "linearize", "--r", "2,2", "--basis", "falling")
    assert code == 0
    assert out.strip() == '{"2":"2","3":"4","4":"1"}'
    code, out, _ = run(capsys, "linearize", "--r", "1,1", "--basis", "falling")
    assert code == 0
    assert out.strip() == '{"1":"1","2":"1"}'
    code, out, _ = run(capsys, "linearize", "--r", "3", "--basis", "rising_over_binom")
    assert code == 0
    assert out.strip() == '{"1":"1","2":"2","3":"1"}'


def test_linearize_binom_basis(capsys):
    code, out, _ = run(capsys, "linearize", "--r", "1,1", "--basis", "binom")
    assert code == 0
    assert out.strip() == '{"1":"1","2":"2"}'


def test_linearize_bad_args(capsys):
    code, _, _ = run(capsys, "linearize", "--r", "")
    assert code == 2
    code, _, _ = run(capsys, "linearize", "--r", "2", "--basis", "nosuch")
    assert code == 2


def test_coeff_zero_entry_exits_1(capsys, monkeypatch):
    # c_k is positive for 1 <= k <= |r|: a kernel returning 0 at k = 3 is caught
    real = coefficients._KERNELS[coefficients.DEFAULT_C_METHOD]
    monkeypatch.setitem(coefficients._KERNELS, coefficients.DEFAULT_C_METHOD, lambda r: real(r)[:-1] + [0])
    for argv in (["coeff", "--r", "2,1"], ["coeff", "--r", "2,1", "--k", "3", "--format", "text"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert "k=[3]" in err


def _broken_kernel(r):
    return coefficients._exact([r.total], [2])  # |r| = 3: 3 / 2 at k = 1


@pytest.mark.parametrize("argv", [
    ["coeff", "--r", "2,1"],
    ["coeff", "--r", "2,1", "--k", "2", "--format", "csv"],
    ["linearize", "--r", "2,1", "--basis", "rising_over_binom"],
])
def test_remainder_in_kernel_exits_1(capsys, monkeypatch, argv):
    monkeypatch.setitem(coefficients._KERNELS, coefficients.DEFAULT_C_METHOD, _broken_kernel)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert "remainder at k=1" in err


@pytest.mark.parametrize("basis", ["falling", "binom"])
def test_remainder_in_linearization_exits_1(capsys, monkeypatch, basis):
    # Delta^2 f(0) + 1 is divisible neither by 2! (d) nor by 2! 1! (d-tilde)
    real = coefficients.forward_differences
    monkeypatch.setattr(coefficients, "forward_differences",
                        lambda v: [d + (k == 2) for k, d in enumerate(real(v))])
    code, out, err = run(capsys, "linearize", "--r", "2,1", "--basis", basis)
    assert (code, out) == (1, "")
    assert "remainder at k=2" in err


def test_main_builds_parser_once(capsys, monkeypatch):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    assert main(["coeff", "--r", "2,1"]) == 0
    assert main(["coeff", "--r", "3", "--k", "2"]) == 0
    assert capsys.readouterr().out == '{"1":"3","2":"6","3":"3"}\n"3"\n'
    assert len(built) == 1


@pytest.mark.parametrize("argv", [
    ["coeff", "--r", "2,1"],
    ["verify", "--id", "las", "--n", "3", "--r", "2,1"],
    ["linearize", "--r", "2,2"],
])
def test_unknown_option_is_reported_by_its_command(capsys, argv):
    # a known command's line is parsed once, by that command's own parser
    code, out, err = run(capsys, *argv, "--bogus", "1")
    assert (code, out) == (2, "")
    assert f"genbinom {argv[0]}: error: unrecognized arguments: --bogus 1" in err
    assert err.startswith(f"usage: genbinom {argv[0]} ")


def test_top_level_parser_handles_help_and_bad_commands(capsys):
    code, out, err = run(capsys)
    assert (code, out) == (2, "")
    assert "genbinom: error:" in err
    code, out, _ = run(capsys, "-h")
    assert code == 0
    assert all(command in out for command in ("coeff", "verify", "linearize"))
    code, out, err = run(capsys, "nosuch", "--r", "2,1")
    assert (code, out) == (2, "")
    assert "invalid choice: 'nosuch'" in err
    code, out, _ = run(capsys, "verify", "-h")
    assert code == 0
    assert out.startswith("usage: genbinom verify ")


def test_verify_waring_budget_edge(capsys):
    # the largest box accepted runs; the smallest box over it, a |caps| over
    # WARING_DEGREE_MAX and a grid reaching either exit 2 before any output
    code, out, _ = run(capsys, "verify", "--id", "waring", "--r", "15,15")
    assert code == 0
    assert json.loads(out) == {"id": "waring", "params": {"caps": [15, 15], "t_max": 4}, "status": "verified"}
    for argv, budget in ((["--r", "3,4,12"], "WARING_BOX_MAX = 256"), (["--r", "31"], "WARING_DEGREE_MAX = 30"),
                         (["--r", "3,3,3,3,3,3"], "WARING_BOX_MAX = 256"),
                         (["--m-max", "5", "--r-max", "3"], "WARING_BOX_MAX = 256")):
        code, out, err = run(capsys, "verify", "--id", "waring", *argv)
        assert (code, out) == (2, ""), argv
        assert "over the budget" in err and budget in err, argv


def test_output_deterministic(capsys):
    a = run(capsys, "coeff", "--r", "3,2")
    b = run(capsys, "coeff", "--r", "3,2")
    assert a == b


# Modules that only verify (and the library's identities and oracles names) need.
# The probe runs in a fresh interpreter without site (-S), so nothing but the
# package itself can have loaded them, and imports the package from this checkout.
_LAZY_MODULES = ("dataclasses", "inspect", "genbinom.identities", "genbinom.oracles",
                 "genbinom.polybasis", "genbinom.series", "genbinom.partitions")
_IMPORT_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
lazy = sys.argv[2].split(",")
loaded = lambda: [m for m in lazy if m in sys.modules]
seen = {}
import genbinom.cli
seen["import genbinom.cli"] = loaded()
genbinom.c_table((2, 1))
seen["c_table"] = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["coeff", "--r", "2,1"], ["linearize", "--r", "2,2"],
                 ["verify", "--id", "las", "--n", "2", "--r", "1"]):
        assert genbinom.cli.main(argv) == 0, argv
        seen[argv[0]] = loaded()
for name in genbinom.__all__:
    exec(f"from genbinom import {name}")
exec("from genbinom import *")
seen["dir"] = sorted(set(genbinom.__all__) - set(dir(genbinom)))
print(json.dumps(seen))
"""


def test_commands_import_only_what_they_run():
    src = Path(genbinom.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-S", "-c", _IMPORT_PROBE, str(src), ",".join(_LAZY_MODULES)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    for step in ("import genbinom.cli", "c_table", "coeff", "linearize"):
        assert seen[step] == [], step
    assert "genbinom.identities" in seen["verify"]
    assert seen["dir"] == []
    with pytest.raises(AttributeError):
        genbinom.no_such_name


def test_closed_stdout_exits_141_quietly():
    # the grid prints about 430 KB, far over the 64 KB pipe and the 8 KB
    # buffer, so the writer is still printing when the reader stops after
    # one line, as `| head -1` does
    src = Path(genbinom.__file__).resolve().parent.parent
    argv = ["verify", "--id", "las", "--n-max", "20", "--m-max", "4", "--r-max", "3"]
    with subprocess.Popen([sys.executable, "-m", "genbinom.cli", *argv], cwd=src, env={**os.environ, "PYTHONPATH": str(src)},
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, stdin=subprocess.DEVNULL) as proc:
        assert proc.stdout.readline().startswith(b'{"id":"las"')
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (141, b"")
