import tracemalloc
from itertools import product

import pytest

import reference as ref
from genbinom.coefficients import (
    Composition,
    c_coeff,
    iter_compositions,
    linearization_d,
    seating_counts,
    t_coeff,
)
from genbinom import oracles
from genbinom.oracles import (
    oracle_covering_choices,
    oracle_injection_cycle_poly,
    oracle_seatings,
    oracle_transversal_partitions,
)
from genbinom.polybasis import UPoly, rising_poly


def test_transversal_partitions_examples():
    assert oracle_transversal_partitions(Composition([1, 1]), 1) == 1
    assert oracle_transversal_partitions(Composition([1, 1]), 2) == 1
    assert oracle_transversal_partitions(Composition([2, 2]), 3) == 4


def test_transversal_budget():
    with pytest.raises(ValueError):
        oracle_transversal_partitions(Composition([4, 4, 3]), 2)


def test_transversal_budget_rejects_before_listing_elements():
    # |E| is read off r, not off a list of one entry per element (0.48 s and
    # 90 MiB at |E| = 10^7 before)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"\|E\| = 1000000 > 10"):
            oracle_transversal_partitions((10**6,), 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10, peak


@pytest.mark.parametrize("budget, value, call, message", [
    ("TRANSVERSAL_E_MAX", 10, lambda: oracle_transversal_partitions((11,), 2), "budget exceeded: |E| = 11 > 10"),
    ("COVERING_R_MAX", 8, lambda: oracle_covering_choices((5, 4), 2, "set"),
     "budget exceeded: need |r| <= 8 and k <= 6, got |r|=9, k=2"),
    ("COVERING_K_MAX", 6, lambda: oracle_covering_choices((2,), 7, "multiset"),
     "budget exceeded: need |r| <= 8 and k <= 6, got |r|=2, k=7"),
    ("SEATING_K_MAX", 4, lambda: oracle_seatings((1,), 5, "F"),
     "budget exceeded: need k <= 4 and r_l <= 3, got k=5, r=1"),
    ("SEATING_R_MAX", 3, lambda: oracle_seatings((4, 1), 2, "S"),
     "budget exceeded: need k <= 4 and r_l <= 3, got k=2, r=4,1"),
    ("INJECTION_N_MAX", 7, lambda: oracle_injection_cycle_poly(8, 0), "budget exceeded: n = 8 > 7"),
], ids=["transversal-E", "covering-r", "covering-k", "seating-k", "seating-r", "injection-n"])
def test_each_budget_is_one_name(monkeypatch, budget, value, call, message):
    # one past the budget raises this message; with the one name raised, the same call runs
    assert getattr(oracles, budget) == value
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
    monkeypatch.setattr(oracles, budget, value + 1)
    call()


def test_transversal_matches_linearization():
    for r in iter_compositions(3, 4):
        if r.total > 7:
            continue
        table = linearization_d(r, "d")
        for k in range(1, r.total + 1):
            assert table.value(k) == oracle_transversal_partitions(r, k), (r, k)


def test_transversal_matches_linearization_at_budget():
    # |E| = 10, the oracle's own budget
    for parts in [(5, 5), (4, 3, 3), (3, 3, 2, 2)]:
        r = Composition(parts)
        table = linearization_d(r, "d")
        for k in range(1, r.total + 1):
            assert table.value(k) == oracle_transversal_partitions(r, k), (parts, k)


def test_covering_examples():
    assert oracle_covering_choices(Composition([3]), 2, "multiset") == 2
    assert oracle_covering_choices(Composition([1, 1]), 2, "set") == 2
    assert oracle_covering_choices(Composition([1, 1]), 2, "multiset") == 2
    assert oracle_covering_choices(Composition([1, 2]), 4, "set") == 0  # r_i > k


def test_covering_budget_and_validation():
    with pytest.raises(ValueError):
        oracle_covering_choices(Composition([3, 3, 3]), 2, "multiset")
    with pytest.raises(ValueError):
        oracle_covering_choices(Composition([1]), 7, "set")
    with pytest.raises(ValueError):
        oracle_covering_choices(Composition([1]), 1, "bag")


def test_covering_matches_linearization():
    for r in iter_compositions(3, 3):
        if r.total > 6:
            continue
        ct = linearization_d(r, "c_tilde")
        dt = linearization_d(r, "d_tilde")
        for k in range(1, min(r.total, 5) + 1):
            assert ct.value(k) == oracle_covering_choices(r, k, "multiset"), (r, k)
            assert dt.value(k) == oracle_covering_choices(r, k, "set"), (r, k)


def test_seating_examples():
    r = Composition([1, 1])
    assert oracle_seatings(r, 2, "F") == 4
    assert oracle_seatings(r, 2, "S") == 2
    assert oracle_seatings(r, 2, "T", j=1) == 1


def test_seating_validation():
    with pytest.raises(ValueError):
        oracle_seatings(Composition([1, 0]), 2, "F")
    with pytest.raises(ValueError):
        oracle_seatings(Composition([1]), 5, "F")  # budget
    with pytest.raises(ValueError):
        oracle_seatings(Composition([1]), 2, "T")  # missing species index
    with pytest.raises(ValueError):
        oracle_seatings(Composition([1]), 2, "X")


def test_seatings_match_closed_forms():
    # the whole budget: 1-3 species of sizes 1..SEATING_R_MAX, k = 1..SEATING_K_MAX
    for r in (q for q in iter_compositions(3, oracles.SEATING_R_MAX) if 0 not in q.parts):
        for k in range(1, oracles.SEATING_K_MAX + 1):
            assert oracle_seatings(r, k, "F") == seating_counts(r, k, "F"), (r, k)
            assert oracle_seatings(r, k, "S") == seating_counts(r, k, "S"), (r, k)
            for j in range(1, r.m + 1):
                assert oracle_seatings(r, k, "T", j=j) == t_coeff(r, k, j), (r, k, j)


def test_turnstile_sum_equals_c():
    for r in (q for q in iter_compositions(3, oracles.SEATING_R_MAX) if 0 not in q.parts):
        for k in range(1, oracles.SEATING_K_MAX + 1):
            total = sum(oracle_seatings(r, k, "T", j=j) for j in range(1, r.m + 1))
            assert total == c_coeff(r, k), (r, k)


def test_injection_cycles_examples():
    assert oracle_injection_cycle_poly(2, 1) == UPoly((1, 1))  # X + 1
    for n in range(1, 6):
        assert oracle_injection_cycle_poly(n, n) == UPoly.one()
    assert oracle_injection_cycle_poly(3, 1) == rising_poly(2, shift=1)


def test_injection_cycles_closed_form():
    for n in range(1, oracles.INJECTION_N_MAX + 1):
        for k in range(n + 1):
            assert oracle_injection_cycle_poly(n, k) == rising_poly(n - k, shift=k), (n, k)


def test_injection_budget_and_validation():
    with pytest.raises(ValueError):
        oracle_injection_cycle_poly(8, 0)
    with pytest.raises(ValueError):
        oracle_injection_cycle_poly(3, 4)
    with pytest.raises(ValueError):
        oracle_injection_cycle_poly(0, 0)


# The oracles against the tables they count, from their defining alternating sums
# (tests/reference.py): transversal partitions d_k, covering sets d~_k, covering
# multisets c~_k, each 0 past |r|.

def test_transversal_matches_set_partition_reference():
    for r in iter_compositions(4, 4):
        if r.total > 7:
            continue
        with pytest.raises(ValueError):
            oracle_transversal_partitions(r, 0)
        d = ref.d(r.parts)
        for k in range(1, r.total + 2):
            assert oracle_transversal_partitions(r, k) == d.get(k, 0), (r, k)


def test_covering_matches_set_union_reference():
    # zero entries up to four species, positive ones up to six
    comps = [*iter_compositions(4, 6),
             *(Composition(p) for m in (5, 6) for p in product(range(1, 7), repeat=m))]
    for r in comps:
        if r.total > 6:
            continue
        tables = {"set": ref.d_tilde(r.parts), "multiset": ref.c_tilde(r.parts)}
        for k in range(1, 7):
            for mode, table in tables.items():
                assert oracle_covering_choices(r, k, mode) == table.get(k, 0), (r, k, mode)
