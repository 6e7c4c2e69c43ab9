"""Seeded request lists for the benchmark workloads.

A request is a plain tuple, so a list of them can be digested and compared
between runs:

  ("cli", argv)              argv sent to ``genbinom.cli.main``
  ("c_table", parts, method) library call ``c_table(Composition(parts), method)``

The same seed always gives the same list.  Each list is stratified: the
seed picks which compositions and parameters appear and in what order, but
every seed gets the same mix of commands, routes, identity ids and cost
bands.  That keeps the total work of a run nearly independent of the seed,
so runs with different seeds can be compared.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from itertools import product
from typing import Callable, Dict, List, Sequence, Tuple

Request = tuple


def compositions(m: int, lo: int, hi: int, total_max: int) -> List[Tuple[int, ...]]:
    """All m-tuples with entries in lo..hi, positive total at most total_max,
    in lexicographic order."""
    return [
        p for p in product(range(lo, hi + 1), repeat=m) if 0 < sum(p) <= total_max
    ]


def genfun_cost(parts: Sequence[int]) -> int:
    """Proxy for the cost of the generating-function route on ``parts``:
    |r| powers of a truncated series with prod(r_i + 1) terms.  Its rank
    correlation with measured c_table time is above 0.99 on the coeff_cli
    pool, which is all it is used for."""
    return sum(parts) * math.prod(p + 1 for p in parts) ** 2


def _rstr(parts: Sequence[int]) -> str:
    return ",".join(str(p) for p in parts)


def _random_composition(rng: random.Random, m: int, total: int) -> Tuple[int, ...]:
    """Uniform composition of ``total`` into m positive parts."""
    cuts = sorted(rng.sample(range(1, total), m - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))


# ---------------------------------------------------------------------------
# coeff_cli: what a command-line user sends
# ---------------------------------------------------------------------------

# Command mix per block of 20 requests: 45% `coeff --r`, 15% `coeff --k`,
# 10% `coeff --format csv`, 30% `linearize` split over the three bases.
_CLI_MIX = {"coeff": 9, "coeff_k": 3, "coeff_csv": 2, "falling": 2, "binom": 2,
            "rising_over_binom": 2}
# The mix laid out with each command spread evenly along the block.
_CLI_SLOTS = [
    cmd for _, _, cmd in sorted(
        ((j + 0.5) / n, i, cmd)
        for i, (cmd, n) in enumerate(_CLI_MIX.items()) for j in range(n)
    )
]
_CLI_ZERO_ENTRY = 30  # compositions with a zero entry, out of about 300


def coeff_cli(rng: random.Random) -> List[Request]:
    """Every composition with m <= 4, 1 <= r_i <= 4 and |r| <= 11, plus a
    few drawn with a zero entry, each used by exactly one request.

    Distinct compositions mean the memos are almost never shared across
    requests, as for separate CLI calls.  Commands are dealt in blocks of
    20 compositions of similar cost, each block taking the evenly spread
    mix, so every cost band gets the same mix; the `--k` values of a block
    are drawn from its lower, middle and upper thirds of 1..|r|.  The seed
    draws the zero-entry compositions, the `--k` values and the order."""
    full = [p for m in range(1, 5) for p in compositions(m, 0, 4, 11)]
    pool = [p for p in full if 0 not in p]
    pool += rng.sample([p for p in full if 0 in p], _CLI_ZERO_ENTRY)
    pool.sort(key=lambda p: (genfun_cost(p), p))
    requests: List[Request] = []
    thirds = _CLI_MIX["coeff_k"]
    for start in range(0, len(pool), len(_CLI_SLOTS)):
        k_slot = 0
        for parts, slot in zip(pool[start:start + len(_CLI_SLOTS)], _CLI_SLOTS):
            r = _rstr(parts)
            if slot == "coeff":
                argv = ["coeff", "--r", r]
            elif slot == "coeff_k":
                k = 1 + int((k_slot + rng.random()) / thirds * sum(parts))
                k_slot += 1
                argv = ["coeff", "--r", r, "--k", str(k)]
            elif slot == "coeff_csv":
                argv = ["coeff", "--r", r, "--format", "csv"]
            else:
                argv = ["linearize", "--r", r, "--basis", slot]
            requests.append(("cli", argv))
    rng.shuffle(requests)
    return requests


# ---------------------------------------------------------------------------
# route_crosscheck: every c_k route on the same compositions
# ---------------------------------------------------------------------------

# The route lists are fixed.  `genfun` is left out of the large band because
# it takes minutes there; it stays out even once it gets faster, so that
# runs before and after such a change do the same work.
MID_ROUTES = (
    "explicit", "entiere", "genfun", "inclusion_exclusion", "finite_diff", "recurrence",
)
LARGE_ROUTES = ("explicit", "entiere", "inclusion_exclusion", "finite_diff", "recurrence")
# Compositions per m.  m = 1 and m = 2 take the whole mid band; with the
# large band, a quarter of all compositions have m = 2 (hyp3f2 runs on them).
MID_PER_M = {1: 4, 2: 16, 3: 48, 4: 100}
LARGE_PER_M = {2: 72, 3: 18, 4: 24, 5: 60}
LARGE_TOTALS = (25, 45)


def _stratified_sample(rng: random.Random, pool: List, k: int, key: Callable) -> List:
    """k items of ``pool`` without replacement, one from each of k
    equal-sized slices of the pool sorted by ``key``."""
    pool = sorted(pool, key=key)
    edges = [len(pool) * i // k for i in range(k + 1)]
    return [pool[rng.randrange(a, b)] for a, b in zip(edges, edges[1:])]


def route_crosscheck(rng: random.Random) -> List[Request]:
    """Compositions from a mid band (m <= 4, 1 <= r_i <= 4, |r| <= 10) that
    runs every route and a large band (2 <= m <= 5, 25 <= |r| <= 45) that
    runs every route but `genfun`; `hyp3f2` joins whenever m = 2.

    Each (composition, route) pair is one request.  The requests of one
    composition are consecutive, so its routes can be compared."""
    comps: List[Tuple[Tuple[int, ...], Sequence[str]]] = []
    for m, k in MID_PER_M.items():
        pool = compositions(m, 1, 4, 10)
        for parts in _stratified_sample(rng, pool, k, key=lambda p: (genfun_cost(p), p)):
            comps.append((parts, MID_ROUTES))
    lo, hi = LARGE_TOTALS
    seen = set()
    for m, k in LARGE_PER_M.items():
        for i in range(k):
            total = lo + (hi - lo) * i // max(k - 1, 1)
            parts = _random_composition(rng, m, total)
            while parts in seen:
                parts = _random_composition(rng, m, total)
            seen.add(parts)
            comps.append((parts, LARGE_ROUTES))
    rng.shuffle(comps)
    requests: List[Request] = []
    for parts, routes in comps:
        routes = list(routes) + (["hyp3f2"] if len(parts) == 2 else [])
        rng.shuffle(routes)
        requests.extend(("c_table", list(parts), method) for method in routes)
    return requests


# ---------------------------------------------------------------------------
# identity_sweep: one verify instance per request, heavy memo sharing
# ---------------------------------------------------------------------------

_FAMILY_POOL_PER_M = {1: 3, 2: 5, 3: 4}  # about a dozen compositions


def _family_pool(rng: random.Random) -> List[Tuple[int, ...]]:
    pool = []
    for m, k in _FAMILY_POOL_PER_M.items():
        pool += rng.sample(compositions(m, 1, 3, 9), k)
    return pool


def _identity_grids(family: List[Tuple[int, ...]]) -> Dict[str, List[List[str]]]:
    """For each id, the argument lists of its instances.  `vraif`, an alias
    of `las0p`, is left out.

    The bounds keep every instance inside the oracle budgets (for example
    injections n <= 7, oracle_covering_choices |r| <= 8)."""
    small = [p for m in range(1, 4) for p in compositions(m, 0, 4, 12)]
    small += compositions(4, 0, 2, 8)
    return {
        "las": [["--n", str(n), "--r", _rstr(r)] for n in range(1, 19) for r in family],
        "las0p": [["--n", str(n), "--r", _rstr(r)] for n in range(1, 21) for r in family],
        "las0pp": [
            ["--n", str(n), "--p", str(p), "--r", _rstr(r)]
            for n in range(1, 16) for p in range(1, n + 1) for r in family
        ],
        "bigeq": [["--n", str(n), "--r", _rstr(r)] for n in range(1, 17) for r in family],
        "mac": [["--n", str(n)] for n in range(1, 29)],
        "lemma1": [["--n", str(n)] for n in range(1, 21)],
        "waring": [
            ["--r", _rstr(c)] for m in range(1, 4) for c in compositions(m, 1, 3, 9)
        ],
        "linm": [["--r", _rstr(r)] for r in small],
        "linbin": [["--r", _rstr(r)] for r in small],
        "linlas": [["--r", _rstr(r)] for r in small],
        "binom2": [
            ["--r", f"{a},{b}"] for a in range(13) for b in range(13) if a + b
        ],
        "injections": [["--n", str(n)] for n in range(1, 8)],
    }


def identity_sweep(rng: random.Random) -> List[Request]:
    """Single `verify` instances over all twelve identity ids.

    The las/las0p/las0pp/bigeq family draws from one small pool of
    compositions, so the c_k memos are reused across n and p."""
    grids = _identity_grids(_family_pool(rng))
    requests: List[Request] = [
        ("cli", ["verify", "--id", ident] + args)
        for ident, grid in grids.items() for args in grid
    ]
    rng.shuffle(requests)
    return requests


WORKLOADS: Dict[str, Callable[[random.Random], List[Request]]] = {
    "coeff_cli": coeff_cli,
    "route_crosscheck": route_crosscheck,
    "identity_sweep": identity_sweep,
}


def generate(workload: str, seed: int) -> List[Request]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def digest(requests: List[Request]) -> str:
    """sha256 of the request list, to show two runs did identical work."""
    text = json.dumps(requests, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
