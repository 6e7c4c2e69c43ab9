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
from genbinom.coefficients import Composition, c_coeff, c_table, iter_compositions, linearization_d, seating_counts
from genbinom.exactnum import binomial, factorial, forward_differences, multinomial, rising
from genbinom.identities import IDENTITY_IDS, Pair, _class_table, _two_factor, extract_c_from_las, sweep, verify
from genbinom.oracles import COVERING_K_MAX, oracle_covering_choices, oracle_transversal_partitions
from genbinom.partitions import ferrers_choose, partitions_of
from genbinom.polybasis import UPoly, binom_poly, falling_poly, from_falling_basis, newton_sum, rising_poly, shifted_binom_poly
from genbinom.series import MPoly, homogeneous_h
from test_partitions import partition_objects, z_mu


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
    # a plain sequence r is taken through Composition, as waring's caps are
    assert verify("las", n=3, r=(2, 1)).to_json_line() == report.to_json_line()
    assert [x.to_json_line() for x in sweep("las", n=3, r=(2, 1))] == [report.to_json_line()]
    assert [x.params for x in sweep("binom2", r=[2, 1])] == [{"r1": 2, "r2": 1}]


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


def test_sweep_builds_its_compositions_once(monkeypatch):
    # one list per sweep call, in the order every n (and p) repeats it
    built = []

    def counted(m_max, r_max):
        built.append((m_max, r_max))
        return iter_compositions(m_max, r_max)

    monkeypatch.setattr(identities, "iter_compositions", counted)
    comps = list(iter_compositions(2, 2))
    for ident, expected in (
        ("las0pp", [dict(n=n, p=p, r=r) for n in range(1, 5) for p in range(1, n + 1) for r in comps]),
        ("las", [dict(n=n, r=r) for n in range(1, 5) for r in comps]),
        ("bigeq", [dict(n=n, r=r) for n in range(1, 5) for r in comps if 0 not in r.parts]),
        ("linm", [dict(r=r) for r in comps]),
    ):
        built.clear()
        got = [report.params for report in sweep(ident, n_max=4, m_max=2, r_max=2)]
        assert built == [(2, 2)], ident
        assert got == [{k: list(v.parts) if k == "r" else v for k, v in e.items()} for e in expected], ident
    built.clear()
    assert [report.params for report in sweep("las0pp", n_max=3, r=(2, 1))] == [
        dict(n=n, p=p, r=[2, 1]) for n in range(1, 4) for p in range(1, n + 1)]
    assert built == []  # a fixed r is the whole list


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
        verify("linm", r=[0, 0])
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


def test_partition_budget_rejects_before_enumerating():
    # the six ids whose left side sums over the partitions of n, the ids taking
    # n except injections, refuse n > PARTITION_N_MAX before any enumeration
    assert identities.PARTITION_N_MAX == 45
    partition_sum_ids = ("bigeq", "las", "las0p", "las0pp", "lemma1", "mac")
    assert set(partition_sum_ids) == {i for i in IDENTITY_IDS if "n" in _takes(i)} - {"injections"}
    sample = {"n": 46, "p": 1, "r": Composition([1])}
    for ident in partition_sum_ids:
        for call in (lambda: sweep(ident, n=46), lambda: sweep(ident, n_max=46),
                     lambda: verify(ident, **{name: sample[name] for name in _takes(ident)})):
            with pytest.raises(ValueError, match="partition-sum budget PARTITION_N_MAX = 45"):
                call()
    with pytest.raises(ValueError, match="PARTITION_N_MAX"):
        extract_c_from_las(46, (1,))


def test_waring_budget_edge(monkeypatch):
    # the largest box, |caps| and t_max are accepted, one past any of them is
    # rejected by sweep and by verify before any c_table or product
    assert (identities.WARING_BOX_MAX, identities.WARING_DEGREE_MAX) == (256, 30)
    for caps, t_max in (((15, 15), 30), ((3, 3, 15), 4), ((30,), 30), ((1,), 30)):
        sweep("waring", r=caps, t_max=t_max)  # the grid is checked when sweep is called
    assert verify("waring", caps=(1,), t_max=30).verified
    monkeypatch.setattr(identities, "c_table", None)
    monkeypatch.setattr(identities, "homogeneous_h", None)
    for caps, t_max in (((3, 4, 12), 4), ((31,), 4), ((1,), 31), ((3,) * 6, 4)):
        for call in (lambda: sweep("waring", r=caps, t_max=t_max), lambda: verify("waring", caps=caps, t_max=t_max)):
            with pytest.raises(ValueError, match="over the budget"):
                call()
    with pytest.raises(ValueError, match="WARING_BOX_MAX = 256"):
        sweep("waring", m_max=5, r_max=3)


def test_failed_check_end_to_end(monkeypatch, capsys):
    def unequal(n):
        return [(UPoly.one(), UPoly.one()), (UPoly((0, 1)), UPoly([n]))]

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
    for mu in partition_objects(n):
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
    for mu in partition_objects(n):
        inner = 0
        for part in mu.parts:
            inner += math.prod(_seating_f1(part, rl) for rl in r.parts)
        coeffs[mu.length - 1] += Fraction(factorial(n) * inner, z_mu(mu))
    return UPoly(coeffs)


def _old_mac_lhs(n):
    body = [Fraction(0)] * (n + 1)
    deriv = [Fraction(0)] * max(n, 1)
    for mu in partition_objects(n):
        body[mu.length] += Fraction(1, z_mu(mu))
        deriv[mu.length - 1] += Fraction(mu.length, z_mu(mu))
    return [UPoly(body), UPoly(deriv)]


def _old_lemma1_lhs(n):
    caps = (max(n - 1, 0), n)
    lhs = MPoly.zero(caps)
    for mu in partition_objects(n):
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
                expected = _old_las_lhs(n, r, weight=lambda mu: ferrers_choose(tuple(mu.mults.items()), p))
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
# verbatim but for reading partitions through `partition_objects`, which
# expands the package's `partitions_of`.  That enumerator and `ferrers_choose`
# are each checked against their former versions in test_partitions.py; its
# z_mu is the reference kept there.

@lru_cache(maxsize=256)
def _old_class_table(n: int, p: int | None = None) -> Tuple[Tuple[int, ...], ...]:
    """T[l][j] = sum over mu |- n, l(mu) = l of w(mu) * m_j(mu) * n!/z_mu, for
    j <= n + 1 - l, the largest part; w = ferrers_choose(., p), or 1 if p is
    None.  Memoized by (n, p): sweeps repeat each (n, p) across compositions."""
    nfact = factorial(n)
    table = [[0] * (n + 2 - l) for l in range(n + 1)]
    for mu in partition_objects(n):
        w = nfact // z_mu(mu) * (1 if p is None else ferrers_choose(tuple(mu.mults.items()), p))
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
        for lam in partition_objects(size):
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


# The waring checker as it was when it keyed h_lambda by the parts of a
# `Partition`, kept verbatim but for reading partitions through
# `partition_objects`.

def _parts_check_waring(caps: Sequence[int], t_max: int) -> List[Pair]:
    # sum over x^r in the caps box of sum_k c_k(r) t^k against sum over lambda of
    # |lambda| (l-1)! / prod_j m_j! * t^l(lambda) * h_lambda: one MPoly pair per power t^l
    caps = Composition(caps).parts  # the rule sweep's grid applies: no empty box
    tables = [(parts, c_table(Composition(parts)).values)
              for parts in _cartesian(*(range(c + 1) for c in caps)) if any(parts)]
    h = {j: homogeneous_h(j, caps) for j in range(1, sum(caps) + 1)}
    # h_lambda by parts: lambda less its last part has a smaller size, so it is
    # already here and each h_lambda is one product
    h_lam = {(): MPoly.const(caps, 1)}
    rhs = {l: MPoly.zero(caps) for l in range(1, t_max + 1)}
    for size in h:
        for lam in partition_objects(size):
            if lam.length <= t_max:
                h_lam[lam.parts] = h_lam[lam.parts[:-1]] * h[lam.parts[-1]]
                coef = Fraction(size * factorial(lam.length - 1), math.prod(map(factorial, lam.mults.values())))
                rhs[lam.length] = rhs[lam.length] + h_lam[lam.parts].scale(coef)
    return [(MPoly(caps, {parts: c.get(l, 0) for parts, c in tables}), rhs[l]) for l in rhs]


def test_waring_matches_parts_keyed_checker():
    for caps in iter_compositions(3, 3):
        for t_max in range(1, 7):
            got = identities._check_waring(caps.parts, t_max)
            assert got == _parts_check_waring(caps.parts, t_max), (caps, t_max)


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


# The checker inputs as they were built with one call per entry, kept verbatim
# as references for the integer runs that replaced them.

def _ref_partition_sum(n: int, g: Sequence[int], p: int | None = None) -> List[int]:
    return [sum(gj * t for gj, t in zip(g, row)) for row in _class_table(n, p)[1:]]


def _ref_species_products(n: int, r: Composition) -> List[int]:
    return [0] + [math.prod(binomial(j + rk - 1, rk) for rk in r.parts) for j in range(1, n + 1)]


def _ref_las_lhs(n: int, r: Composition, p: int | None = None, P: Sequence[int] | None = None) -> UPoly:
    g = _ref_species_products(n, r) if P is None else P
    return UPoly(_ref_partition_sum(n, g, p)).scale(Fraction(1, factorial(n)))


def _ref_mchoose(a: int, q: int) -> int:
    """Multisets of size q from a >= 0 symbols: C(a+q-1, q); (0, 0) -> 1."""
    return math.comb(a + q - 1, q) if a else int(q == 0)


def _ref_las0pp_a(n: int, p: int, P: Sequence[int]) -> List[Fraction]:
    return [Fraction(sum(binomial(j - 1, k - 1) * _ref_mchoose(p - k, n - p - j + k) * P[j]
                         for j in range(k, n - p + k + 1)), k)
            for k in range(p, 0, -1)]  # indexed by p-k, on binomial(X+p-k-1, p-k)


def _ref_two_factor(r1: int, r2: int, sign: int) -> List[int]:
    # a[i] = sign^l multinomial(i, (l, r1-l, r2-l)) at l = r1+r2-i <= min(r1, r2), else 0
    return [sign ** (r1 + r2 - i) * multinomial(i, (r1 + r2 - i, i - r2, i - r1)) if i >= max(r1, r2) else 0
            for i in range(r1 + r2 + 1)]


def _coeffs_den(pairs):
    return [((a.coeffs, a.den), (b.coeffs, b.den)) for a, b in pairs]


def test_mchoose_is_rising_over_factorial():
    # multisets of size q from a symbols, the las0pp right side's weights
    for a in range(9):
        for q in range(9):
            assert _ref_mchoose(a, q) == rising(a, q) // factorial(q), (a, q)


def test_las_inputs_match_per_entry_reference():
    for n in range(1, 21):
        for r in iter_compositions(3, 3):
            P = identities._species_products(n, r)
            assert P == _ref_species_products(n, r), (n, r)
            assert all(type(x) is int for x in P), (n, r)
            for p in (None, *range(1, n + 1)):
                assert identities._partition_sum(n, P, p) == _ref_partition_sum(n, P, p), (n, r, p)
                got, ref = identities._las_lhs(n, r, p), _ref_las_lhs(n, r, p)
                assert (got.coeffs, got.den) == (ref.coeffs, ref.den), (n, r, p)
                if p is not None:
                    ref_pair = [(ref, identities.newton_sum(0, -1, _ref_las0pp_a(n, p, P)))]
                    assert _coeffs_den(identities._check_las0pp(n, p, r)) == _coeffs_den(ref_pair), (n, r, p)


def test_two_factor_matches_per_entry_reference():
    for r1 in range(13):
        for r2 in range(13):
            for sign in (1, -1):
                got = identities._two_factor(r1, r2, sign)
                assert got == _ref_two_factor(r1, r2, sign), (r1, r2, sign)
                assert all(type(x) is int for x in got), (r1, r2, sign)


# The oracle sides of linm, linbin and linlas read one memo keyed by the sorted
# nonzero species sizes; below, its premise, its bound, a wrong oracle seen
# through it, and the checkers as they were, calling the oracles per instance.

_ORACLE_KINDS = {"transversal": identities.TRANSVERSAL_T_MAX, "set": COVERING_K_MAX, "multiset": COVERING_K_MAX}


@pytest.fixture
def cold_oracle_memo():
    identities._oracle_counts.cache_clear()
    yield
    identities._oracle_counts.cache_clear()


def test_oracles_invariant_under_permuting_and_padding_species():
    # each oracle count depends only on the multiset of nonzero species sizes
    for r in iter_compositions(3, 3):
        key = Composition(r.species)
        for k in range(1, r.total + 2):  # |r| + 1 has no partition into k blocks
            assert oracle_transversal_partitions(r, k) == oracle_transversal_partitions(key, k), (r, k)
        if r.total <= 8:  # the covering oracle's budget
            for k in range(1, COVERING_K_MAX + 1):
                for mode in ("set", "multiset"):
                    assert oracle_covering_choices(r, k, mode) == oracle_covering_choices(key, k, mode), (r, k, mode)


def test_oracle_memo_never_evicts(cold_oracle_memo):
    # every key the checkers can reach: each partition of t up to the kind's budget
    keys = {(kind, tuple(sorted(part for part, mult in mults for _ in range(mult))))
            for kind, t_max in _ORACLE_KINDS.items() for t in range(1, t_max + 1) for mults, _, _ in partitions_of(t)}
    assert len(keys) == 102 <= identities._oracle_counts.cache_info().maxsize
    # a grid with every permutation and zero padding enumerates each key it reaches
    # once: up to four species of size <= 2 reach the 14 multisets of at most four
    # 1s and 2s, 12 of them with t <= 6 for each covering mode and 13 with t <= 7 for linm
    for ident in ("linm", "linbin", "linlas"):
        assert all(report.verified for report in sweep(ident, m_max=4, r_max=2))
    info = identities._oracle_counts.cache_info()
    assert info.currsize == info.misses == 12 + 12 + 13


def _off_by_one_at(oracle, k_wrong):
    def wrong(r, k, *mode):
        return oracle(r, k, *mode) + (k == k_wrong)
    return wrong


@pytest.mark.parametrize("ident,oracle", [
    ("linm", "oracle_transversal_partitions"),
    ("linbin", "oracle_covering_choices"),
    ("linlas", "oracle_covering_choices"),
])
def test_wrong_oracle_fails_through_the_memo(monkeypatch, cold_oracle_memo, ident, oracle):
    assert verify(ident, r=(1, 0, 2)).verified
    identities._oracle_counts.cache_clear()
    monkeypatch.setattr(identities, oracle, _off_by_one_at(getattr(identities, oracle), 2))
    for r in ((1, 0, 2), (2, 1), (0, 1, 2)):  # one key, read from the memo after the first
        assert verify(ident, r=r).status == "failed", r


def _ref_check_linm(r: Composition) -> List[Pair]:
    lhs = math.prod((falling_poly(ri) for ri in r.parts), start=UPoly.one())
    pairs: List[Pair] = [(lhs, from_falling_basis(linearization_d(r, "d").values))]
    if r.m == 2:
        r1, r2 = r.parts
        closed = {r1 + r2 - k: binomial(r1, k) * binomial(r2, k) * factorial(k) for k in range(min(r1, r2) + 1)}
        pairs.append((lhs, from_falling_basis(closed)))
    if r.total <= 7:
        oracle = {k: oracle_transversal_partitions(r, k) for k in range(1, r.total + 1)}
        pairs.append((lhs, from_falling_basis(oracle)))
    return pairs


def _ref_check_linbin(r: Composition) -> List[Pair]:
    lhs = math.prod((binom_poly(ri) for ri in r.parts), start=UPoly.one())
    table = linearization_d(r, "d_tilde").values  # every right side on binomial(X, k), k = 0..|r|
    sides = [[table.get(k, 0) for k in range(r.total + 1)]]
    if r.m == 2:
        sides.append(_two_factor(*r.parts, 1))
    if r.total <= COVERING_K_MAX:  # k runs up to |r|
        sides.append([0] + [oracle_covering_choices(r, k, "set") for k in range(1, r.total + 1)])
    return [(lhs, newton_sum(0, 1, a)) for a in sides]


def _ref_check_linlas(r: Composition) -> List[Pair]:
    lhs = math.prod((rising_poly(ri).scale(Fraction(1, factorial(ri))) for ri in r.parts), start=UPoly.one())
    table = linearization_d(r, "c_tilde").values
    sides = [[table.get(k, 0) for k in range(r.total + 1)]]
    if r.total <= COVERING_K_MAX:
        sides.append([0] + [oracle_covering_choices(r, k, "multiset") for k in range(1, r.total + 1)])
    return [(lhs, newton_sum(0, 1, a)) for a in sides]


def test_oracle_memo_checkers_match_per_instance_reference(cold_oracle_memo):
    for r in [*iter_compositions(4, 2), *iter_compositions(3, 3)]:
        for check, ref in ((identities._check_linm, _ref_check_linm), (identities._check_linbin, _ref_check_linbin),
                           (identities._check_linlas, _ref_check_linlas)):
            assert _coeffs_den(check(r)) == _coeffs_den(ref(r)), (check.__name__, r)


def _ref_check_bigeq(n: int, r: Composition) -> List[Pair]:
    # the checker with F_j taken from one seating_counts call per j
    F = [0] + [seating_counts(r, j, "F") for j in range(1, n + 1)]
    lhs = UPoly(identities._partition_sum(n, F))
    nfact, c, S = factorial(n), c_table(r).values, forward_differences(F)  # S_k = Delta^k F(0)
    form_c = [Fraction(c.get(k, 0) * nfact * math.prod(r.parts), r.total) for k in range(n, 0, -1)]
    form_s = [nfact // k * S[k] for k in range(n, 0, -1)]
    form_f = [nfact // k * F[k] for k in range(n, 0, -1)]
    return [(lhs, newton_sum(1 - n, 1, form_c)), (lhs, newton_sum(1 - n, 1, form_s)),
            (lhs, newton_sum(0, -1, form_f))]


def test_bigeq_matches_per_entry_reference():
    for n in range(1, 17):
        for r in iter_compositions(3, 3):
            if 0 not in r.parts:
                assert _coeffs_den(identities._check_bigeq(n, r)) == _coeffs_den(_ref_check_bigeq(n, r)), (n, r)
