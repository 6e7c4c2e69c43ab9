"""Brute-force enumerators for the combinatorial models.

Each counter here realizes a definition directly — set partitions into
transversals, covering selections, delegations seated around a table,
cycle counts of injections — with no shortcuts, so it can serve as ground
truth for the closed forms at tiny scale.  "No shortcuts" means every
counted object is enumerated and tested one at a time, and no closed form
or count of a class of objects stands in for them.  Pruning is allowed
only where a partial assignment already breaks the definition (a block
holding a species twice, more than k blocks, one species' seating that
breaks T's rule for that species).  Budgets are hard errors; an oracle
never returns a partial count.

Selections and seatings hold their chairs (elements of [k]) as bitmasks,
and a tuple covers [k] when its masks OR to the full mask.  T's rules
each concern one species, so they filter that species' seatings before
the product.  Injections count each cycle at its least element: the walk
from it is the one walk that closes on its start.

Conventions shared with the closed forms: species elements are labeled
1..r_l, and "eldest" always means the largest label.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, combinations_with_replacement, permutations, product
from operator import or_
from typing import List, Tuple

from .coefficients import Composition, as_composition, check_positive_species
from .exactnum import as_int
from .polybasis import UPoly

INJECTION_N_MAX = 7  # largest n oracle_injection_cycle_poly enumerates (n!/k! injections)
TRANSVERSAL_E_MAX = 10  # largest |E| = |r| oracle_transversal_partitions enumerates (set partitions of E)
COVERING_R_MAX = 8  # largest |r| oracle_covering_choices enumerates (one selection per species element)
COVERING_K_MAX = 6  # largest k oracle_covering_choices enumerates (binomial(k, r_l) picks per species)
SEATING_K_MAX = 4  # largest k oracle_seatings enumerates (chairs at the table)
SEATING_R_MAX = 3  # largest r_l oracle_seatings enumerates (delegations of one species)


def oracle_transversal_partitions(r: Composition, k: int) -> int:
    """Partitions of the disjoint union E = [r_1] + ... + [r_m] into exactly
    k nonempty blocks, each block meeting every species at most once.

    Restricted-growth backtracking: element i joins an earlier block that
    lacks its species, or opens a new block while fewer than k are open; a
    block is the bitmask of the species it holds.  Each full assignment
    with k blocks is one counted partition."""
    k = as_int(k, 1, "k")
    r = as_composition(r)
    if r.total > TRANSVERSAL_E_MAX:
        raise ValueError(f"budget exceeded: |E| = {r.total} > {TRANSVERSAL_E_MAX}")
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
    k = as_int(k, 1, "k")
    if mode not in ("multiset", "set"):
        raise ValueError(f"unknown mode {mode!r}")
    r = as_composition(r)
    if r.total > COVERING_R_MAX or k > COVERING_K_MAX:
        raise ValueError(f"budget exceeded: need |r| <= {COVERING_R_MAX} and k <= {COVERING_K_MAX}, "
                         f"got |r|={r.total}, k={k}")
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


def _species_seatings(rl: int, k: int) -> List[Tuple[Tuple[int, ...], int, int]]:
    """All (delegation, chair mask, elder's chair) triples for one species:
    a nonempty delegation D of [rl], the bitmask of |D| chairs of [k]
    (chair c is bit c - 1), and the chair taken by the delegation's elder,
    as its bit c - 1."""
    return [(deleg, sum(1 << c for c in chairs), elder_chair)
            for a in range(1, min(rl, k) + 1)
            for deleg in combinations(range(1, rl + 1), a)
            for chairs in combinations(range(k), a)
            for elder_chair in chairs]


def oracle_seatings(r: Composition, k: int, which: str, j: int | None = None) -> int:
    """Seating scenarios for all species around a k-chair table.

    which "F": every tuple of per-species seatings counts.
    which "S": additionally every chair must be occupied.
    which "T": as S, with the delegation elder of species j on chair k and,
               for every other species, the species' eldest member seated
               and its delegation elder on the species' largest chair.

    Each of T's rules is broken by one species alone, so each filters its
    species' seatings before the product; a tuple then counts for S and T
    when its chair masks OR to the full mask.
    """
    j = None if j is None else as_int(j)  # every type before any bound
    k = as_int(k, 1, "k")
    r = as_composition(r)
    check_positive_species(r)
    if which not in ("F", "S", "T"):
        raise ValueError(f"unknown kind {which!r}")
    if which == "T" and (j is None or not 1 <= j <= r.m):
        raise ValueError(f"T needs a species index 1..{r.m}, got {j}")
    if k > SEATING_K_MAX or any(rl > SEATING_R_MAX for rl in r.parts):
        raise ValueError(f"budget exceeded: need k <= {SEATING_K_MAX} and r_l <= {SEATING_R_MAX}, got k={k}, r={r}")
    per_species = [_species_seatings(rl, k) for rl in r.parts]
    if which == "T":
        per_species = [[(deleg, mask, elder) for deleg, mask, elder in seatings
                        if (elder == k - 1 if l == j else rl in deleg and elder == mask.bit_length() - 1)]
                       for l, (rl, seatings) in enumerate(zip(r.parts, per_species), start=1)]
    full = (1 << k) - 1
    return sum(which == "F" or reduce(or_, (mask for _, mask, _ in combo)) == full
               for combo in product(*per_species))


def oracle_injection_cycle_poly(n: int, k: int) -> UPoly:
    """sum over injections f: [n-k] -> [n] of X^(number of cycles of f).

    A cycle is an orbit contained in the domain [n-k] and closed under f.
    n = k means the empty injection: one scenario, zero cycles, so 1.
    """
    k = as_int(k)  # every type before any bound
    n = as_int(n, 1, "n")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}")
    if n > INJECTION_N_MAX:
        raise ValueError(f"budget exceeded: n = {n} > {INJECTION_N_MAX}")
    dom = n - k
    coeffs = [0] * (dom + 1)
    for image in permutations(range(1, n + 1), dom):  # f(i) = image[i - 1]
        cycles = 0
        for start in range(1, dom + 1):
            # count each cycle at its least element: f is injective, so the walk
            # from a cycle's least element closes on it, and every other walk
            # leaves the domain or falls below its start first
            x = image[start - 1]
            while start < x <= dom:
                x = image[x - 1]
            cycles += x == start
        coeffs[cycles] += 1
    return UPoly(coeffs)
