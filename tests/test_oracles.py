from itertools import combinations, combinations_with_replacement, product
from typing import Iterator, List, Sequence

import pytest

from genbinom.coefficients import (
    Composition,
    c_coeff,
    iter_compositions,
    linearization_d,
    seating_counts,
    t_coeff,
)
from genbinom.oracles import (
    COVERING_K_MAX,
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
    for r in (q for q in iter_compositions(3, 2) if 0 not in q.parts):
        for k in range(1, 4):
            assert oracle_seatings(r, k, "F") == seating_counts(r, k, "F"), (r, k)
            assert oracle_seatings(r, k, "S") == seating_counts(r, k, "S"), (r, k)
            for j in range(1, r.m + 1):
                assert oracle_seatings(r, k, "T", j=j) == t_coeff(r, k, j), (r, k, j)


def test_turnstile_sum_equals_c():
    for r in (q for q in iter_compositions(3, 2) if 0 not in q.parts):
        for k in range(1, min(r.total, 3) + 1):
            total = sum(oracle_seatings(r, k, "T", j=j) for j in range(1, r.m + 1))
            assert total == c_coeff(r, k), (r, k)


def test_injection_cycles_examples():
    assert oracle_injection_cycle_poly(2, 1) == UPoly((1, 1))  # X + 1
    for n in range(1, 6):
        assert oracle_injection_cycle_poly(n, n) == UPoly.one()
    assert oracle_injection_cycle_poly(3, 1) == rising_poly(2, shift=1)


def test_injection_cycles_closed_form():
    for n in range(1, 7):
        for k in range(n + 1):
            assert oracle_injection_cycle_poly(n, k) == rising_poly(n - k, shift=k), (n, k)


def test_injection_budget_and_validation():
    with pytest.raises(ValueError):
        oracle_injection_cycle_poly(8, 0)
    with pytest.raises(ValueError):
        oracle_injection_cycle_poly(3, 4)
    with pytest.raises(ValueError):
        oracle_injection_cycle_poly(0, 0)


# The oracles before their bitmask rewrite, kept verbatim as references.

def _set_partitions(items: Sequence) -> Iterator[List[list]]:
    """All set partitions, via restricted-growth strings."""
    n = len(items)
    if n == 0:
        yield []
        return
    a = [0] * n

    def rec(i: int, mx: int):
        if i == n:
            blocks: List[list] = [[] for _ in range(mx + 1)]
            for j, b in enumerate(a):
                blocks[b].append(items[j])
            yield blocks
            return
        for b in range(mx + 2):
            a[i] = b
            yield from rec(i + 1, max(mx, b))

    yield from rec(1, 0)


def _old_oracle_transversal_partitions(r: Composition, k: int) -> int:
    """Partitions of the disjoint union E = [r_1] + ... + [r_m] into exactly
    k nonempty blocks, each block meeting every species at most once."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    elements = [(sp, idx) for sp, rl in enumerate(r.parts) for idx in range(1, rl + 1)]
    if len(elements) > 10:
        raise ValueError(f"budget exceeded: |E| = {len(elements)} > 10")
    count = 0
    for blocks in _set_partitions(elements):
        if len(blocks) != k:
            continue
        if all(len({sp for sp, _ in block}) == len(block) for block in blocks):
            count += 1
    return count


def _old_oracle_covering_choices(r: Composition, k: int, mode: str) -> int:
    """Tuples of selections from [k], one per species, covering all of [k].

    mode "multiset": species l picks a multiset of size r_l (repeats allowed).
    mode "set":      species l picks an r_l-subset (0 if some r_l > k).
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if mode not in ("multiset", "set"):
        raise ValueError(f"unknown mode {mode!r}")
    if r.total > 8 or k > COVERING_K_MAX:
        raise ValueError(f"budget exceeded: need |r| <= 8 and k <= {COVERING_K_MAX}, got |r|={r.total}, k={k}")
    if mode == "set" and any(rl > k for rl in r.parts):
        return 0
    universe = range(1, k + 1)
    pick = combinations_with_replacement if mode == "multiset" else combinations
    full = set(universe)
    count = 0
    for choice in product(*(list(pick(universe, rl)) for rl in r.parts)):
        union = set()
        for sel in choice:
            union.update(sel)
        if union == full:
            count += 1
    return count


def test_transversal_matches_set_partition_reference():
    for r in iter_compositions(4, 4):
        if r.total > 7:
            continue
        for oracle in (oracle_transversal_partitions, _old_oracle_transversal_partitions):
            with pytest.raises(ValueError):
                oracle(r, 0)
        for k in range(1, r.total + 2):
            assert oracle_transversal_partitions(r, k) == _old_oracle_transversal_partitions(r, k), (r, k)


def test_covering_matches_set_union_reference():
    # zero entries up to four species, positive ones up to six
    comps = [*iter_compositions(4, 6),
             *(Composition(p) for m in (5, 6) for p in product(range(1, 7), repeat=m))]
    for r in comps:
        if r.total > 6:
            continue
        for k in range(1, 7):
            for mode in ("set", "multiset"):
                expected = _old_oracle_covering_choices(r, k, mode)
                assert oracle_covering_choices(r, k, mode) == expected, (r, k, mode)
