import inspect
import json
import math
from fractions import Fraction
from functools import lru_cache
from itertools import product as _cartesian
from typing import Iterator, List, Sequence, Tuple

import pytest

from genbinom import identities
from genbinom.cli import main
from genbinom.coefficients import Composition, c_coeff, c_table, iter_compositions
from genbinom.exactnum import binomial, factorial, rising
from genbinom.identities import IDENTITY_IDS, Pair, _class_table, extract_c_from_las, sweep, verify
from genbinom.partitions import ferrers_choose, partitions_of
from genbinom.polybasis import UPoly, shifted_binom_poly
from genbinom.series import MPoly, homogeneous_h
from test_partitions import z_mu


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
        ("waring", {"t_max": 0}),
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


def test_verify_rejects_instance_without_pairs(monkeypatch):
    # no pair compared is no instance checked, so it is not "verified"
    for caps, t_max in (((2,), -3), ((0,), 2), ((0, 0), 2)):
        with pytest.raises(ValueError):
            verify("waring", caps=caps, t_max=t_max)
    monkeypatch.setitem(identities._IDENTITIES, "mac", (lambda n: [], identities._IDENTITIES["mac"][1]))
    with pytest.raises(ValueError):
        verify("mac", n=2)


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


def _nonzero(p):
    """Stored nonzero coefficients of a UPoly or an MPoly."""
    return sum(1 for c in p.coeffs if c) if isinstance(p, UPoly) else len(p.terms)


def test_class_table_matches_mac_and_lemma1_loops():
    for n in range(1, 15):
        assert [lhs for lhs, _ in identities._check_mac(n)] == _old_mac_lhs(n), n
        old = _old_lemma1_lhs(n)
        slices = [lhs for lhs, _ in identities._check_lemma1(n)]
        assert len(slices) == n + 1 and all(lhs.degree < n for lhs in slices), n
        for l, j in _box(old.caps):
            assert slices[j].coeff(l) == old.coeff((l, j)), (n, l, j)
        assert sum(map(_nonzero, slices)) == len(old.terms), n


def test_class_table_invariants():
    assert identities._class_tables.cache_info().maxsize is not None
    for n in range(1, 15):
        table = identities._class_table(n)
        # each mu |- n counts its class size once per part, l(mu) times in all
        assert sum(Fraction(sum(row), l) for l, row in enumerate(table) if l) == factorial(n)
        assert table[n][1] == n  # mu = 1^n, the identity class
        assert table[1][n] == factorial(n - 1)  # mu = (n), the n-cycles
        for p in range(1, n + 1):
            # fewer picks than rows: no cell choice hits all l(mu) rows
            assert all(not any(row) for row in identities._class_table(n, p)[p + 1:]), (n, p)


# The per-p class-size table the one-pass (n, weighted) tables replaced, kept
# verbatim.  Its partitions_of and ferrers_choose are the package's, each
# checked against its own former version in test_partitions.py; its z_mu is
# the reference kept there.

@lru_cache(maxsize=256)
def _old_class_table(n: int, p: int | None = None) -> Tuple[Tuple[int, ...], ...]:
    """T[l][j] = sum over mu |- n, l(mu) = l of w(mu) * m_j(mu) * n!/z_mu, for
    j <= n + 1 - l, the largest part; w = ferrers_choose(., p), or 1 if p is
    None.  Memoized by (n, p): sweeps repeat each (n, p) across compositions."""
    nfact = factorial(n)
    table = [[0] * (n + 2 - l) for l in range(n + 1)]
    for mu in partitions_of(n):
        w = nfact // z_mu(mu) * (1 if p is None else ferrers_choose(mu, p))
        row = table[mu.length]
        for part, mult in mu.mults.items():
            row[part] += w * mult
    return tuple(tuple(row) for row in table)


def test_class_tables_match_per_p_reference():
    for n in range(1, 29):
        assert identities._class_table(n) == _old_class_table(n), n
    for n in range(1, 16):
        for p in range(1, n + 1):
            assert identities._class_table(n, p) == _old_class_table(n, p), (n, p)


# The lemma1 and waring checkers as they were before each became one pair per
# power of its extra variable, kept verbatim: one truncated MPoly pair, lemma1
# in (X, y) with its UPoly bases embedded, waring in (t,) + caps with every
# h_lambda lifted by t^l(lambda).

def _embed(p: UPoly, caps: Tuple[int, ...], var: int) -> MPoly:
    terms = {}
    for d in range(p.degree + 1):
        c = p.coeff(d)
        if c:
            e = [0] * len(caps)
            e[var] = d
            terms[tuple(e)] = c
    return MPoly(caps, terms)


def _old_check_lemma1(n: int) -> List[Pair]:
    # sum over mu |- n of X^(l(mu)-1) / z_mu * (sum_i y^mu_i - l(mu)), in (X, y)
    caps = (n - 1, n)
    nfact = factorial(n)
    terms = {}
    for l, row in enumerate(_class_table(n)[1:]):
        terms.update({(l, j): Fraction(t, nfact) for j, t in enumerate(row) if t})
        terms[(l, 0)] = Fraction(-sum(row), nfact)
    lhs = MPoly(caps, terms)
    rhs = MPoly.zero(caps)
    ym1 = MPoly(caps, {(0, 1): 1, (0, 0): -1})
    power = MPoly.const(caps, 1)  # (y - 1)^k, one product per k
    for k in range(1, n + 1):
        power = power * ym1
        rhs = rhs + _embed(shifted_binom_poly(n, k), caps, 0) * power.scale(Fraction(1, k))
    return [(lhs, rhs)]


def _box(caps: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
    yield from _cartesian(*(range(c + 1) for c in caps))


def _old_check_waring(caps: Sequence[int], t_max: int) -> List[Pair]:
    caps = tuple(int(c) for c in caps)
    full = (t_max,) + caps
    terms = {}
    for parts in _box(caps):
        if sum(parts) == 0:
            continue
        r = Composition(parts)
        c = c_table(r).values
        for k in range(1, min(t_max, r.total) + 1):
            terms[(k,) + parts] = c[k]
    lhs = MPoly(full, terms)
    rhs = MPoly.zero(full)
    for size in range(1, sum(caps) + 1):
        for lam in partitions_of(size):
            if lam.length > t_max:
                continue
            coef = Fraction(size * factorial(lam.length - 1))
            for mult in lam.mults.values():
                coef /= factorial(mult)
            hpart = MPoly.const(caps, 1)
            for part in lam.parts:
                hpart = hpart * homogeneous_h(part, caps)
            lifted = MPoly(full, {(lam.length,) + e: c for e, c in hpart.terms.items()})
            rhs = rhs + lifted.scale(coef)
    return [(lhs, rhs)]


def test_lemma1_slices_match_reference():
    for n in range(1, 15):
        [ref] = _old_check_lemma1(n)
        slices = identities._check_lemma1(n)
        assert len(slices) == n + 1, n
        for side in (0, 1):
            # every slice is a UPoly in X of degree below n, so the box is all of it
            assert all(isinstance(pair[side], UPoly) and pair[side].degree < n for pair in slices), n
            for l, j in _box(ref[side].caps):
                assert slices[j][side].coeff(l) == ref[side].coeff((l, j)), (n, side, l, j)
            assert sum(_nonzero(pair[side]) for pair in slices) == len(ref[side].terms), (n, side)


def test_waring_slices_match_reference():
    for caps in iter_compositions(3, 3):
        for t_max in range(1, 6):
            [ref] = _old_check_waring(caps.parts, t_max)
            slices = identities._check_waring(caps.parts, t_max)
            assert len(slices) == t_max, (caps, t_max)
            for side in (0, 1):
                assert all(pair[side].caps == caps.parts for pair in slices), (caps, t_max)
                for e in _box(ref[side].caps):
                    got = slices[e[0] - 1][side].coeff(e[1:]) if e[0] else 0
                    assert got == ref[side].coeff(e), (caps, t_max, side, e)
                assert sum(_nonzero(pair[side]) for pair in slices) == len(ref[side].terms), (caps, t_max)


def _plus_one(basis):
    """The basis polynomial (or, for newton_sum, the whole expansion) plus 1:
    a wrong right side for every checker below."""
    def wrong(*args, **kwargs):
        p = basis(*args, **kwargs)
        return p + (UPoly.one() if isinstance(p, UPoly) else MPoly.const(p.caps, 1))
    return wrong


@pytest.mark.parametrize("ident,basis,params", [
    ("lemma1", "newton_sum", dict(n=4)),
    ("waring", "homogeneous_h", dict(caps=(2, 1), t_max=3)),
    ("las0p", "newton_sum", dict(n=4, r=Composition([2, 1]))),
    ("las0pp", "newton_sum", dict(n=4, p=2, r=Composition([2, 1]))),
    ("bigeq", "newton_sum", dict(n=4, r=Composition([2, 1]))),
    ("linm", "falling_poly", dict(r=Composition([2, 1]))),
])
def test_wrong_basis_fails(monkeypatch, ident, basis, params):
    assert verify(ident, **params).verified
    monkeypatch.setattr(identities, basis, _plus_one(getattr(identities, basis)))
    assert verify(ident, **params).status == "failed"
