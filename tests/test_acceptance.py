"""Acceptance suite: every criterion is exact (no tolerances) and prints
one PASS/FAIL line.  Run with `pytest -s tests/test_acceptance.py` to see
the lines as they complete."""

import random
from fractions import Fraction

from genbinom.coefficients import (
    C_METHODS,
    Composition,
    c_coeff,
    hypergeom_terminating,
    iter_compositions,
    linearization_d,
    seating_counts,
    t_coeff,
)
from genbinom.exactnum import binomial, rising
from genbinom.identities import extract_c_from_las, sweep
from genbinom.oracles import (
    oracle_covering_choices,
    oracle_injection_cycle_poly,
    oracle_seatings,
    oracle_transversal_partitions,
)
from genbinom.polybasis import UPoly, from_falling_basis, rising_poly, to_falling_basis


def report(num: int, label: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num} [{status}]: {label}" + (f" — first failure: {failures[0]}" if failures else ""))
    assert not failures, (num, label, failures[:5])


def test_criterion_1_cross_method_agreement():
    failures = []
    methods = [m for m in C_METHODS if m != "hyp3f2"]
    for r in iter_compositions(3, 4):
        for k in range(1, r.total + 1):
            values = {m: c_coeff(r, k, m) for m in methods}
            if len(set(values.values())) != 1:
                failures.append((r.parts, k, {m: str(v) for m, v in values.items()}))
                continue
            v = values["genfun"]
            if v.denominator != 1 or v < 1:
                failures.append((r.parts, k, str(v)))
    report(1, "six-method agreement and positive integrality (m<=3, r_i<=4)", failures)


def test_criterion_2_single_species_closed_form():
    failures = []
    for r1 in range(1, 13):
        r = Composition([r1])
        for k in range(1, r1 + 1):
            for method in ("explicit", "entiere", "genfun", "inclusion_exclusion", "finite_diff", "recurrence"):
                if c_coeff(r, k, method) != binomial(r1, k):
                    failures.append((r1, k, method))
    report(2, "c_k(r1) = binomial(r1, k) for r1 <= 12, every method", failures)


def test_criterion_3_two_species_hypergeometric_forms():
    failures = []
    for r1 in range(7):
        for r2 in range(7):
            if r1 + r2 == 0:
                continue
            r = Composition([r1, r2])
            for k in range(1, r1 + r2 + 1):
                ref = c_coeff(r, k, "genfun")
                form1 = c_coeff(r, k, "hyp3f2")
                form2 = binomial(r1 + r2, k) * hypergeom_terminating(
                    [1 - k, -r1, -r2], [1 - r1 - r2, 1], 1
                )
                form3 = (
                    binomial(r1 + r2, k)
                    * binomial(r1 + r2, r1)
                    * hypergeom_terminating(
                        [-r1, -r2, k - r1 - r2], [1 - r1 - r2, -r1 - r2], 1
                    )
                )
                if not ref == form1 == form2 == form3:
                    failures.append((r1, r2, k, str(ref), str(form1), str(form2), str(form3)))
    report(3, "all three terminating 3F2 forms match genfun (r_i <= 6)", failures)


def test_criterion_4_main_identity_and_extraction():
    failures = []
    for rep in sweep("las", n_max=8, m_max=3, r_max=3):
        if not rep.verified:
            failures.append(rep.params)
    for r in iter_compositions(3, 3):
        tables = [extract_c_from_las(n, r).values for n in (r.total, r.total + 1, r.total + 2)]
        if not tables[0] == tables[1] == tables[2]:
            failures.append(("extract", r.parts))
        for k, v in tables[0].items():
            if v != c_coeff(r, k, "genfun"):
                failures.append(("extract-vs-c", r.parts, k))
    report(4, "main expansion identity (n<=8, m<=3, r_i<=3) and n-independent extraction", failures)


def test_criterion_5_companion_identities():
    failures = []
    sweeps = [
        ("las0p", dict(n_max=8, m_max=3, r_max=3)),
        ("las0pp", dict(n_max=6, m_max=2, r_max=3)),
        ("bigeq", dict(n_max=6, m_max=3, r_max=3)),
        ("lemma1", dict(n_max=8)),
        ("mac", dict(n_max=12)),
        ("waring", dict(m_max=2, r_max=3, t_max=4)),
    ]
    for ident, bounds in sweeps:
        for rep in sweep(ident, **bounds):
            if not rep.verified:
                failures.append((ident, rep.params))
    report(5, "companion identities (las0', las0'', bigeq, lemma1, mac, waring)", failures)


def test_criterion_6_oracle_equivalence():
    failures = []
    for r in iter_compositions(3, 4):
        if r.total <= 7:
            d = linearization_d(r, "d")
            for k in range(1, r.total + 1):
                if d.value(k) != oracle_transversal_partitions(r, k):
                    failures.append(("d", r.parts, k))
    for r in iter_compositions(3, 4):
        if r.total <= 6:
            ct = linearization_d(r, "c_tilde")
            dt = linearization_d(r, "d_tilde")
            for k in range(1, min(r.total, 5) + 1):
                if ct.value(k) != oracle_covering_choices(r, k, "multiset"):
                    failures.append(("c_tilde", r.parts, k))
                if dt.value(k) != oracle_covering_choices(r, k, "set"):
                    failures.append(("d_tilde", r.parts, k))
    for r in (q for q in iter_compositions(3, 2) if 0 not in q.parts):
        for k in range(1, 4):
            if oracle_seatings(r, k, "F") != seating_counts(r, k, "F"):
                failures.append(("F", r.parts, k))
            if oracle_seatings(r, k, "S") != seating_counts(r, k, "S"):
                failures.append(("S", r.parts, k))
            turnstile = Fraction(0)
            for j in range(1, r.m + 1):
                tj = t_coeff(r, k, j)
                if oracle_seatings(r, k, "T", j=j) != tj:
                    failures.append(("T", r.parts, k, j))
                turnstile += tj
            if k <= r.total and turnstile != c_coeff(r, k):
                failures.append(("sum T != c", r.parts, k))
    report(6, "closed forms match transversal/covering/seating oracles", failures)


def test_criterion_7_injection_cycle_identity():
    failures = []
    for n in range(1, 7):
        for k in range(n + 1):
            if oracle_injection_cycle_poly(n, k) != rising_poly(n - k, shift=k):
                failures.append((n, k))
    report(7, "injection cycle-count polynomial equals rising factorial (n<=6)", failures)


def test_criterion_8_whipple_transformation():
    rng = random.Random(20260810)

    def no_pole(x, n):
        return all(x + i != 0 for i in range(n))

    failures = []
    done = 0
    while done < 200:
        n = rng.randint(1, 6)
        a, b, c, d = (Fraction(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(4))
        if not (no_pole(c, n) and no_pole(d, n) and no_pole(a + 1 - n - c, n)):
            continue
        lhs = hypergeom_terminating([-n, a, b], [c, d], 1)
        rhs = Fraction(rising(c - a, n), rising(c, n)) * hypergeom_terminating(
            [-n, a, d - b], [d, a + 1 - n - c], 1
        )
        if lhs != rhs:
            failures.append((n, str(a), str(b), str(c), str(d)))
        done += 1
    done = 0
    while done < 60:
        n = rng.randint(1, 6)
        a, c, d = (Fraction(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(3))
        if not (no_pole(c, n) and no_pole(d, n)):
            continue
        lhs = hypergeom_terminating([-n, a, d], [c, d], 1)
        if lhs != Fraction(rising(c - a, n), rising(c, n)):
            failures.append(("cvd", n, str(a), str(c), str(d)))
        done += 1
    report(8, "Whipple transformation on 200 random terminating sets (+60 b=d reductions)", failures)


def test_criterion_9_falling_basis_round_trip():
    rng = random.Random(987654321)
    failures = []
    for trial in range(500):
        deg = rng.randint(0, 10)
        coeffs = [
            Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(deg + 1)
        ]
        p = UPoly(coeffs)
        if from_falling_basis(to_falling_basis(p)) != p:
            failures.append((trial, [str(c) for c in coeffs]))
    report(9, "falling-basis round trip on 500 random rational polynomials", failures)
