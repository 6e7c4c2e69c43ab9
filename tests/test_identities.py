import inspect
import json
import math
from fractions import Fraction

import pytest

from genbinom import identities
from genbinom.cli import main
from genbinom.coefficients import Composition, c_coeff, iter_compositions
from genbinom.exactnum import binomial, factorial, rising
from genbinom.identities import IDENTITY_IDS, extract_c_from_las, sweep, verify
from genbinom.partitions import ferrers_choose, partitions_of, z_mu
from genbinom.polybasis import UPoly
from genbinom.series import MPoly


def test_las_example():
    report = verify("las", n=2, r=Composition([1]))
    assert report.verified
    assert report.params == {"n": 2, "r": [1]}


def test_mac_example():
    # at n=2 the weighted sum is X/2 + X^2/2 = binomial(X+1, 2)
    assert verify("mac", n=2).verified


def test_lemma1_example():
    assert verify("lemma1", n=1).verified


def test_unknown_identity():
    with pytest.raises(ValueError):
        verify("nosuch", n=1)
    with pytest.raises(ValueError):
        list(sweep("nosuch"))


def test_report_json_line():
    report = verify("las", n=3, r=Composition([2, 1]))
    decoded = json.loads(report.to_json_line())
    assert decoded == {"id": "las", "params": {"n": 3, "r": [2, 1]}, "status": "verified"}


def test_all_identities_verify_small():
    for ident in IDENTITY_IDS:
        for report in sweep(ident, n_max=4, m_max=2, r_max=2, t_max=3):
            assert report.verified, (ident, report.params, report.lhs, report.rhs)


def test_sweep_rejects_bad_grid_up_front():
    assert len(IDENTITY_IDS) == 12 and "vraif" not in IDENTITY_IDS
    # sweep raises on the call itself, before any instance is checked
    for ident, bounds in [
        ("vraif", {}),
        ("las", {"n_max": -1}),
        ("las", {"n": 0}),
        ("las0pp", {"n": 3, "p": 9}),
        ("injections", {"n_max": 8}),
        ("mac", {"n_max": 0}),
        ("bigeq", {"r": Composition([1, 0])}),
    ]:
        with pytest.raises(ValueError):
            sweep(ident, **bounds)


def test_sweep_deterministic():
    first = [r.to_json_line() for r in sweep("las", n_max=3, m_max=2, r_max=2)]
    second = [r.to_json_line() for r in sweep("las", n_max=3, m_max=2, r_max=2)]
    assert first == second


def test_extract_c_examples():
    for r in (Composition([1]), Composition([2, 1]), Composition([1, 1, 2])):
        assert extract_c_from_las(1, r).values == {1: r.total}
    table = extract_c_from_las(5, Composition([3]))
    assert table.values == {1: 3, 2: 3, 3: 1}


def test_extract_c_matches_methods():
    for r in iter_compositions(3, 3):
        for n in range(1, 7):
            table = extract_c_from_las(n, r)
            for k in range(1, min(n, r.total) + 1):
                assert table.value(k) == c_coeff(r, k, "finite_diff"), (n, r, k)
            for k in range(r.total + 1, n + 1):
                assert table.value(k) == 0


def test_extract_c_n_independent():
    for r in iter_compositions(2, 3):
        tables = [extract_c_from_las(n, r).values for n in (r.total, r.total + 1, r.total + 2)]
        assert tables[0] == tables[1] == tables[2]


def test_las0pp_at_p_equals_n_matches_las0p():
    # the marked-cells identity specializes to the plain one at p = n
    for n in range(1, 6):
        for r in iter_compositions(2, 2):
            assert verify("las0pp", n=n, p=n, r=r).verified
            assert verify("las0p", n=n, r=r).verified


def test_failure_reports_sides():
    # a deliberately broken comparison exercises the failure path
    from genbinom import identities

    report = identities.IdentityReport("las", {"n": 1}, "failed", lhs="X", rhs="X + 1")
    assert not report.verified
    assert report.lhs == "X"
    assert json.loads(report.to_json_line())["status"] == "failed"


def test_las_requires_valid_params():
    with pytest.raises(ValueError):
        verify("las0pp", n=2, p=3, r=Composition([1]))
    with pytest.raises(ValueError):
        verify("bigeq", n=2, r=Composition([1, 0]))
    with pytest.raises(ValueError):
        extract_c_from_las(0, Composition([1]))


def _takes(ident):
    return inspect.signature(identities._IDENTITIES[ident][0]).parameters


@pytest.mark.parametrize("ident", [i for i in IDENTITY_IDS if "n" in _takes(i)])
def test_verify_rejects_empty_instance(ident):
    # n = 0 has no instance to check, so it is not "verified"
    sample = {"n": 0, "p": 1, "r": Composition([1]), "k": 0}
    with pytest.raises(ValueError):
        verify(ident, **{name: sample[name] for name in _takes(ident)})


def test_ids_taking_n():
    expected = {"las", "bigeq", "las0p", "las0pp", "mac", "lemma1", "injections"}
    assert {i for i in IDENTITY_IDS if "n" in _takes(i)} == expected


def test_failed_check_end_to_end(monkeypatch, capsys):
    def unequal(n):
        return [(UPoly.one(), UPoly.one()), (UPoly.x(), UPoly([n]))]

    monkeypatch.setitem(identities._IDENTITIES, "mac", (unequal, identities._IDENTITIES["mac"][1]))
    report = verify("mac", n=2)
    assert report.status == "failed" and not report.verified
    assert (report.lhs, report.rhs) == ("X", "2")
    assert main(["verify", "--id", "mac", "--n", "2"]) == 1
    line = capsys.readouterr().out.strip()
    assert json.loads(line) == {"id": "mac", "params": {"n": 2}, "status": "failed"}


# The partition loops the class-size table replaced, kept as references.

def _old_las_lhs(n, r, weight=None):
    """sum over |mu| = n of weight(mu) * X^(l(mu)-1) / z_mu *
    sum_i prod_k rising(mu_i, r_k)/r_k!."""
    coeffs = [Fraction(0)] * max(n, 1)
    rfact = [factorial(rk) for rk in r.parts]
    for mu in partitions_of(n):
        inner = Fraction(0)
        for part in mu.parts:
            term = Fraction(1)
            for rk, fk in zip(r.parts, rfact):
                term *= Fraction(rising(part, rk), fk)
            inner += term
        w = inner / z_mu(mu)
        if weight is not None:
            w *= weight(mu)
        coeffs[mu.length - 1] += w
    return UPoly(coeffs)


def _seating_f1(j, rl):
    """Seatings of one species with rl representatives at a j-chair table."""
    return j * binomial(j + rl - 1, rl - 1)


def _old_bigeq_lhs(n, r):
    coeffs = [Fraction(0)] * max(n, 1)
    for mu in partitions_of(n):
        inner = 0
        for part in mu.parts:
            inner += math.prod(_seating_f1(part, rl) for rl in r.parts)
        coeffs[mu.length - 1] += Fraction(factorial(n) * inner, z_mu(mu))
    return UPoly(coeffs)


def _old_mac_lhs(n):
    body = [Fraction(0)] * (n + 1)
    deriv = [Fraction(0)] * max(n, 1)
    for mu in partitions_of(n):
        body[mu.length] += Fraction(1, z_mu(mu))
        deriv[mu.length - 1] += Fraction(mu.length, z_mu(mu))
    return [UPoly(body), UPoly(deriv)]


def _old_lemma1_lhs(n):
    caps = (max(n - 1, 0), n)
    lhs = MPoly.zero(caps)
    for mu in partitions_of(n):
        ypoly = {}
        for part in mu.parts:
            ypoly[(0, part)] = ypoly.get((0, part), Fraction(0)) + 1
        ypoly[(0, 0)] = ypoly.get((0, 0), Fraction(0)) - mu.length
        xfac = MPoly(caps, {(mu.length - 1, 0): Fraction(1, z_mu(mu))})
        lhs = lhs + xfac * MPoly(caps, ypoly)
    return lhs


def test_class_table_matches_las_loop():
    for n in range(1, 10):
        for r in iter_compositions(3, 2):
            assert identities._las_lhs(n, r) == _old_las_lhs(n, r), (n, r)
            for p in range(1, n + 1):
                expected = _old_las_lhs(n, r, weight=lambda mu: ferrers_choose(mu, p))
                assert identities._las_lhs(n, r, p) == expected, (n, p, r)


def test_class_table_matches_bigeq_loop():
    for n in range(1, 10):
        for r in iter_compositions(3, 2):
            if 0 not in r.parts:
                assert identities._check_bigeq(n, r)[0][0] == _old_bigeq_lhs(n, r), (n, r)


def test_class_table_matches_mac_and_lemma1_loops():
    for n in range(1, 15):
        assert [lhs for lhs, _ in identities._check_mac(n)] == _old_mac_lhs(n), n
        assert identities._check_lemma1(n)[0][0] == _old_lemma1_lhs(n), n


def test_class_table_invariants():
    assert identities._class_table.cache_info().maxsize is not None
    for n in range(1, 15):
        table = identities._class_table(n)
        # each mu |- n counts its class size once per part, l(mu) times in all
        assert sum(Fraction(sum(row), l) for l, row in enumerate(table) if l) == factorial(n)
        assert table[n][1] == n  # mu = 1^n, the identity class
        assert table[1][n] == factorial(n - 1)  # mu = (n), the n-cycles
