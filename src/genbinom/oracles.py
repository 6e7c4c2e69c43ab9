"""Brute-force enumerators for the combinatorial models.

Each counter here realizes a definition directly — set partitions into
transversals, covering selections, delegations seated around a table,
cycle counts of injections — with no shortcuts, so it can serve as ground
truth for the closed forms at tiny scale.  "No shortcuts" means every
counted object is enumerated and tested one at a time, and no closed form
or count of a class of objects stands in for them.  Pruning is allowed
only where a partial assignment already breaks the definition (a block
holding a species twice, more than k blocks).  Budgets are hard errors; an
oracle never returns a partial count.

Conventions shared with the closed forms: species elements are labeled
1..r_l, and "eldest" always means the largest label.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, permutations, product
from typing import List, Tuple

from .coefficients import Composition, as_composition, check_positive_species
from .exactnum import as_int
from .polybasis import UPoly

INJECTION_N_MAX = 7  # largest n oracle_injection_cycle_poly enumerates (n!/k! injections)
COVERING_K_MAX = 6  # largest k oracle_covering_choices enumerates (binomial(k, r_l) picks per species)


def oracle_transversal_partitions(r: Composition, k: int) -> int:
    """Partitions of the disjoint union E = [r_1] + ... + [r_m] into exactly
    k nonempty blocks, each block meeting every species at most once.

    Restricted-growth backtracking: element i joins an earlier block that
    lacks its species, or opens a new block while fewer than k are open; a
    block is the bitmask of the species it holds.  Each full assignment
    with k blocks is one counted partition."""
    k = as_int(k)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    r = as_composition(r)
    if r.total > 10:
        raise ValueError(f"budget exceeded: |E| = {r.total} > 10")
    species = [1 << sp for sp, rl in enumerate(r.parts) for _ in range(rl)]
    blocks: List[int] = []

    def place(i: int) -> int:
        if i == len(species):
            return len(blocks) == k
        bit, count = species[i], 0
        for b, held in enumerate(blocks):
            if not held & bit:
                blocks[b] = held | bit
                count += place(i + 1)
                blocks[b] = held
        if len(blocks) < k:
            blocks.append(bit)
            count += place(i + 1)
            blocks.pop()
        return count

    return place(0)


def oracle_covering_choices(r: Composition, k: int, mode: str) -> int:
    """Tuples of selections from [k], one per species, covering all of [k].

    mode "multiset": species l picks a multiset of size r_l (repeats allowed).
    mode "set":      species l picks an r_l-subset (0 if some r_l > k).

    A selection is the bitmask of its distinct elements.  The union of every
    tuple over all species but the longest-listed one is kept, one entry per
    tuple, and each is completed with every selection of that species: a
    full tuple covers [k] when its union is the full mask.
    """
    k = as_int(k)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if mode not in ("multiset", "set"):
        raise ValueError(f"unknown mode {mode!r}")
    r = as_composition(r)
    if r.total > 8 or k > COVERING_K_MAX:
        raise ValueError(f"budget exceeded: need |r| <= 8 and k <= {COVERING_K_MAX}, got |r|={r.total}, k={k}")
    if mode == "set" and any(rl > k for rl in r.parts):
        return 0
    pick = combinations_with_replacement if mode == "multiset" else combinations
    masks = [[sum(1 << e for e in set(sel)) for sel in pick(range(k), rl)] for rl in r.parts]
    *heads, last = sorted(masks, key=len)
    unions = [0]
    for selections in heads:
        unions = [u | mask for u in unions for mask in selections]
    full = (1 << k) - 1
    return sum(u | mask == full for u in unions for mask in last)


def _species_seatings(rl: int, k: int) -> List[Tuple[frozenset, frozenset, int]]:
    """All (delegation, chair set, elder's chair) triples for one species:
    a nonempty delegation D of [rl], |D| chairs A of [k], and the chair
    taken by the delegation's elder."""
    out = []
    for a in range(1, min(rl, k) + 1):
        for deleg in combinations(range(1, rl + 1), a):
            for chairs in combinations(range(1, k + 1), a):
                for elder_chair in chairs:
                    out.append((frozenset(deleg), frozenset(chairs), elder_chair))
    return out


def oracle_seatings(r: Composition, k: int, which: str, j: int | None = None) -> int:
    """Seating scenarios for all species around a k-chair table.

    which "F": every tuple of per-species seatings counts.
    which "S": additionally every chair must be occupied.
    which "T": as S, with the delegation elder of species j on chair k and,
               for every other species, the species' eldest member seated
               and its delegation elder on the species' largest chair.
    """
    k, j = as_int(k), None if j is None else as_int(j)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    r = as_composition(r)
    check_positive_species(r)
    if which not in ("F", "S", "T"):
        raise ValueError(f"unknown kind {which!r}")
    if which == "T":
        if j is None or not 1 <= j <= r.m:
            raise ValueError(f"T needs a species index 1..{r.m}, got {j}")
    if k > 4 or any(rl > 3 for rl in r.parts):
        raise ValueError(f"budget exceeded: need k <= 4 and r_l <= 3, got k={k}, r={r}")
    per_species = [_species_seatings(rl, k) for rl in r.parts]
    full = set(range(1, k + 1))
    count = 0
    for combo in product(*per_species):
        if which in ("S", "T"):
            occupied = set()
            for _, chairs, _ in combo:
                occupied.update(chairs)
            if occupied != full:
                continue
        if which == "T":
            assert j is not None
            if combo[j - 1][2] != k:
                continue
            ok = True
            for l, (deleg, chairs, elder_chair) in enumerate(combo, start=1):
                if l == j:
                    continue
                if r.parts[l - 1] not in deleg or elder_chair != max(chairs):
                    ok = False
                    break
            if not ok:
                continue
        count += 1
    return count


def oracle_injection_cycle_poly(n: int, k: int) -> UPoly:
    """sum over injections f: [n-k] -> [n] of X^(number of cycles of f).

    A cycle is an orbit contained in the domain [n-k] and closed under f.
    n = k means the empty injection: one scenario, zero cycles, so 1.
    """
    n, k = as_int(n), as_int(k)
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}")
    if n > INJECTION_N_MAX:
        raise ValueError(f"budget exceeded: n = {n} > {INJECTION_N_MAX}")
    dom = n - k
    coeffs = [0] * (dom + 1)
    for image in permutations(range(1, n + 1), dom):  # f(i) = image[i - 1]
        seen = set()
        cycles = 0
        for start in range(1, dom + 1):
            if start in seen:
                continue
            # walk f from start until it leaves the domain or meets a seen element;
            # f is injective, so a walk that meets itself closes back on start
            seen.add(start)
            x = image[start - 1]
            while x <= dom and x not in seen:
                seen.add(x)
                x = image[x - 1]
            cycles += x == start
        coeffs[cycles] += 1
    return UPoly(coeffs)
