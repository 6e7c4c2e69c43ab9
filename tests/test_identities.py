import inspect
import json
import math
import time
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import product as _cartesian
from typing import Iterator, List, Sequence, Tuple

import pytest

from genbinom import coefficients, identities, polybasis
from genbinom.cli import main
from genbinom.coefficients import CoeffTable, Composition, c_coeff, c_table, iter_compositions, linearization_d, seating_counts
from genbinom.exactnum import binomial, factorial, forward_differences, multinomial, rising
from genbinom.identities import IDENTITY_IDS, Pair, _class_table, extract_c_from_las, sweep, verify
from genbinom.oracles import COVERING_K_MAX, oracle_covering_choices, oracle_transversal_partitions
from genbinom.partitions import ferrers_choose, partitions_of
from genbinom.polybasis import UPoly, binom_poly, falling_poly, from_falling_basis, rising_poly, shifted_binom_poly
from genbinom.series import MPoly, homogeneous_h
from test_partitions import partition_objects, z_mu
from test_polybasis import _ref_newton_coeffs


def _on_newton_basis(p: UPoly, start: int, step: int) -> UPoly:
    """p's coefficients on the Newton basis prod_{t<j} (X - s_t) / j!, s_t = start +
    t*step, by the Fraction reference `_ref_newton_coeffs`, as one UPoly in T: the
    form in which a checker compares a univariate side."""
    return UPoly(_ref_newton_coeffs(p, start, step))


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


@pytest.mark.parametrize("ident, params", [("mac", dict(n=3, r=(1,))), ("las", dict(n=3)), ("binom2", dict(r=(1, 2)))])
def test_verify_rejects_params_its_id_does_not_take(ident, params):
    # an extra or missing parameter is a ValueError naming the id, as in sweep,
    # not a TypeError from the private checker
    with pytest.raises(ValueError, match=f"^{ident} takes the parameters "):
        verify(ident, **params)


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
            assert report.verified, (ident, report.params, report.pair, report.first_diff)


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
        ("waring", {"m_max": 10**6}),  # the box budget stops it at m = 9
    ]:
        with pytest.raises(ValueError):
            sweep(ident, **bounds)


def test_sweep_table_budget_edge():
    # a swept grid whose largest |r| (binom2: r1 + r2) is TABLE_SIZE_MAX = 2000 is
    # taken and gives its first report at once; one step more is rejected by
    # the call itself, before any instance
    for ident, bounds in [
        ("las", dict(n=1, m_max=1, r_max=2000)),
        ("bigeq", dict(n=1, m_max=2, r_max=1000)),
        ("linm", dict(m_max=1, r_max=2000)),
        ("linbin", dict(m_max=4, r_max=500)),
        ("linlas", dict(m_max=1, r_max=2000)),
        ("binom2", dict(r_max=1000)),
    ]:
        start = time.perf_counter()
        assert next(sweep(ident, **bounds)).verified, ident
        assert time.perf_counter() - start < 1, ident
        with pytest.raises(ValueError, match="table budget"):
            sweep(ident, **{**bounds, "r_max": bounds["r_max"] + 1})
    # the ids that build no length-|r| table keep their grids
    assert next(sweep("las0p", n=1, m_max=1, r_max=3000)).verified
    assert next(sweep("las0pp", n=1, m_max=1, r_max=3000)).verified
    # binom2 checks r1 + r2 on a fixed pair, in sweep and in the checker
    for call in (lambda: sweep("binom2", r=(1000, 1001)), lambda: verify("binom2", r1=1000, r2=1001)):
        with pytest.raises(ValueError, match="r1 \\+ r2 = 2001 is over the table budget"):
            call()


@pytest.mark.parametrize("ident", ["las", "bigeq", "linm", "linbin", "linlas"])
def test_sweep_rejects_a_fixed_r_over_the_table_budget(ident):
    # a fixed r is held to TABLE_SIZE_MAX by the call itself, as a swept grid is,
    # not by the first instance drawn from the returned iterator
    with pytest.raises(ValueError, match=r"\|r\| = 3000 is over the table budget"):
        sweep(ident, r=[3000])


def test_sweep_deterministic():
    first = [r.to_json_line() for r in sweep("las", n_max=3, m_max=2, r_max=2)]
    second = [r.to_json_line() for r in sweep("las", n_max=3, m_max=2, r_max=2)]
    assert first == second


def test_sweep_draws_its_compositions_per_n(monkeypatch):
    # a fresh iterator per n (and p), each in the same order
    built = []

    def counted(m_max, r_max):
        built.append((m_max, r_max))
        return iter_compositions(m_max, r_max)

    monkeypatch.setattr(identities, "iter_compositions", counted)
    comps = list(iter_compositions(2, 2))
    for ident, expected, draws in (
        ("las0pp", [dict(n=n, p=p, r=r) for n in range(1, 5) for p in range(1, n + 1) for r in comps], 10),
        ("las", [dict(n=n, r=r) for n in range(1, 5) for r in comps], 4),
        ("bigeq", [dict(n=n, r=r) for n in range(1, 5) for r in comps if 0 not in r.parts], 4),
        ("linm", [dict(r=r) for r in comps], 1),
    ):
        built.clear()
        got = [report.params for report in sweep(ident, n_max=4, m_max=2, r_max=2)]
        assert built == [(2, 2)] * draws, ident
        assert got == [{k: list(v.parts) if k == "r" else v for k, v in e.items()} for e in expected], ident
    built.clear()
    assert [report.params for report in sweep("las0pp", n_max=3, r=(2, 1))] == [
        dict(n=n, p=p, r=[2, 1]) for n in range(1, 4) for p in range(1, n + 1)]
    assert built == []  # a fixed r is the whole list


def test_sweep_streams_a_huge_grid():
    # 10^8 compositions, and 10^6 pairs: the first report comes at once, in
    # a few MiB, as the grid is drawn and not listed
    for ident, bounds in (("linm", dict(m_max=8, r_max=9)), ("binom2", dict(r_max=1000))):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            report = next(sweep(ident, **bounds))
            elapsed, (_, peak) = time.perf_counter() - start, tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.verified and elapsed < 1 and peak < 4 * 2**20, (ident, elapsed, peak)


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
    from genbinom import coefficients, identities

    report = identities.IdentityReport("las", {"n": 1}, "failed", 0, {"at": 0, "lhs": "0", "rhs": "1"})
    assert not report.verified
    assert report.pair == 0 and report.first_diff["rhs"] == "1"
    assert report.to_json_line() == (
        '{"id":"las","params":{"n":1},"status":"failed","pair":0,"first_diff":{"at":0,"lhs":"0","rhs":"1"}}')
    # a verified line carries neither field
    assert identities.IdentityReport("las", {"n": 1}, "verified").to_json_line() == (
        '{"id":"las","params":{"n":1},"status":"verified"}')


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


def test_partition_budget_rejects_before_enumerating(monkeypatch):
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
    # called directly, not through sweep's grid, each rejects n = 10^5 before building
    # anything of length n or |r|: n!, lcm(1..n), a species run or c_table(r) (seconds
    # and MiB before)
    sample.update(n=10**5, r=Composition([1] * 2000))
    calls = [lambda ident=ident: verify(ident, **{name: sample[name] for name in _takes(ident)})
             for ident in partition_sum_ids]
    # las and bigeq, whose c_table(r) takes |r| <= TABLE_SIZE_MAX, reject an |r| over it
    # at an n within budget before they list the partitions of n (p(45) = 89,134)
    listed = []
    identities._class_tables.cache_clear()
    monkeypatch.setattr(identities, "partitions_of", lambda *args: listed.append(args) or partitions_of(*args))
    over = [lambda ident=ident, n=n, r=r: verify(ident, n=n, r=r)
            for ident in ("las", "bigeq") for n, r in ((45, Composition([2001])), (44, Composition([1] * 2001)))]
    for call, match in [*((call, "PARTITION_N_MAX = 45") for call in calls),
                        (lambda: extract_c_from_las(10**5, sample["r"]), "PARTITION_N_MAX = 45"),
                        *((call, r"\|r\| = 2001 is over the table budget") for call in over)]:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=match):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10, peak
    assert listed == []


def test_species_count_rejected_before_any_run():
    # las0p, las0pp and extract_c_from_las read one species run of length n per nonzero
    # species: more than TABLE_SIZE_MAX species is rejected before any run (before, at
    # n = 45, 10^5 ones took 35-43 s), by a direct call and by sweep's call itself
    r = Composition([1] * 2001)
    calls = [lambda: verify("las0p", n=3, r=r), lambda: verify("las0pp", n=3, p=1, r=r),
             lambda: extract_c_from_las(3, r)]
    for call in calls:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="species count of r = 2001 is over the table budget"):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10, peak
    for ident in ("las0p", "las0pp"):
        with pytest.raises(ValueError, match="species count of r = 2001"):
            sweep(ident, n=3, r=r)
    # zero parts are no species: their runs are all ones
    assert verify("las0p", n=3, r=[0] * 3000 + [1]).verified
    assert identities._species_products(4, Composition([0] * 3000 + [2])) == [0, 1, 3, 6, 10]


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
    # pair 0 is equal; pair 1, X against 2, first differs at degree 0
    assert (report.pair, report.first_diff) == (1, {"at": 0, "lhs": "0", "rhs": "2"})
    assert main(["verify", "--id", "mac", "--n", "2"]) == 1
    line = capsys.readouterr().out.strip()
    assert json.loads(line) == {"id": "mac", "params": {"n": 2}, "status": "failed",
                                "pair": 1, "first_diff": {"at": 0, "lhs": "0", "rhs": "2"}}


def _bump_identity_class(real):
    """_class_table with its entry for the identity class 1^n, row n at part 1, plus 1."""
    def wrong(n, p=None):
        table = real(n, p)
        return (*table[:n], (table[n][0], table[n][1] + 1))
    return wrong


@pytest.mark.parametrize("name, bump, ident, params, line", [
    # S_1 + 1: bigeq's pairs are the c, S and F forms, so the S form is pair 1; it compares
    # k prod(r) c_k with |r| S_k as integers, so it names k = 1 and 1*2*3 against 3*(2+1)
    ("forward_differences", lambda real: lambda F: [s + (k == 1) for k, s in enumerate(real(F))],
     "bigeq", dict(n=3, r=(2, 1)),
     '{"id":"bigeq","params":{"n":3,"r":[2,1]},"status":"failed",'
     '"pair":1,"first_diff":{"at":1,"lhs":"6","rhs":"9"}}'),
    # C(k, 2) + 1 enters only the right side of y^2, lemma1's pair 2, first at i = n - k = 0
    # on binomial(X+n-1, i)
    ("binomial", lambda real: lambda a, b: real(a, b) + (b == 2), "lemma1", dict(n=3),
     '{"id":"lemma1","params":{"n":3},"status":"failed",'
     '"pair":2,"first_diff":{"at":0,"lhs":"-1","rhs":"-4/3"}}'),
    # c_2 + 1 changes the left side of t^2, waring's pair 1, first at x^(0,1)
    ("c_table", lambda real: lambda r: real(r)._replace(values={**real(r).values, 2: real(r).values.get(2, 0) + 1}),
     "waring", dict(caps=(2, 2), t_max=3),
     '{"id":"waring","params":{"caps":[2,2],"t_max":3},"status":"failed",'
     '"pair":1,"first_diff":{"at":[0,1],"lhs":"1","rhs":"0"}}'),
    # the merge chain's w_1 + 1 enters only linm's chain side, pair 1
    ("_merge_chain", lambda real: lambda species, sign: [w + (s == 1) for s, w in enumerate(real(species, sign))],
     "linm", dict(r=(2, 1)),
     '{"id":"linm","params":{"r":[2,1]},"status":"failed",'
     '"pair":1,"first_diff":{"at":1,"lhs":"0","rhs":"2"}}'),
    # the multiset covering count at k = 2, + 1, enters only linlas's oracle side, pair 2,
    # compared with the c~ table as integers
    ("_oracle_counts", lambda real: lambda kind, parts: tuple(v + (k == 2) for k, v in enumerate(real(kind, parts), 1)),
     "linlas", dict(r=(2, 1, 2)),
     '{"id":"linlas","params":{"r":[2,1,2]},"status":"failed",'
     '"pair":2,"first_diff":{"at":2,"lhs":"16","rhs":"17"}}'),
    # c_2 + 1 enters only las's right side, c_k / |r| on binomial(X+n-1, j): the pair names
    # the Newton index j = n - k = 2 and c_2 / |r| as computed and as bumped
    ("c_table", lambda real: lambda r: real(r)._replace(values={**real(r).values, 2: real(r).values.get(2, 0) + 1}),
     "las", dict(n=4, r=(2, 1)),
     '{"id":"las","params":{"n":4,"r":[2,1]},"status":"failed",'
     '"pair":0,"first_diff":{"at":2,"lhs":"2","rhs":"7/3"}}'),
    # the identity class's entry + 1 enters only the partition sum, the left side, at X^(n-1):
    # las0p and las0pp on binomial(X+j-1, j), mac's pair 0 on binomial(X+n-1, j)
    ("_class_table", _bump_identity_class, "las0p", dict(n=4, r=(2, 1)),
     '{"id":"las0p","params":{"n":4,"r":[2,1]},"status":"failed",'
     '"pair":0,"first_diff":{"at":1,"lhs":"145/24","rhs":"6"}}'),
    ("_class_table", _bump_identity_class, "las0pp", dict(n=4, p=2, r=(2, 1)),
     '{"id":"las0pp","params":{"n":4,"p":2,"r":[2,1]},"status":"failed",'
     '"pair":0,"first_diff":{"at":1,"lhs":"601/24","rhs":"25"}}'),
    ("_class_table", _bump_identity_class, "mac", dict(n=4),
     '{"id":"mac","params":{"n":4},"status":"failed",'
     '"pair":0,"first_diff":{"at":0,"lhs":"27/32","rhs":"0"}}'),
    # the multichoose chain's w_2 + 1 enters only binom2's right side, on binomial(X+j-1, j)
    ("_merge_chain", lambda real: lambda species, sign: [w + (s == 2) for s, w in enumerate(real(species, sign))],
     "binom2", dict(r1=2, r2=1),
     '{"id":"binom2","params":{"r1":2,"r2":1},"status":"failed",'
     '"pair":0,"first_diff":{"at":2,"lhs":"-2","rhs":"-1"}}'),
    # d~_2 + 1 enters linbin's table, first compared with the product on binomial(X, k), pair 0
    ("linearization_d", lambda real: lambda r, variant: real(r, variant)._replace(
        values={**real(r, variant).values, 2: real(r, variant).values.get(2, 0) + 1}),
     "linbin", dict(r=(2, 1)),
     '{"id":"linbin","params":{"r":[2,1]},"status":"failed",'
     '"pair":0,"first_diff":{"at":2,"lhs":"2","rhs":"3"}}'),
], ids=["bigeq", "lemma1", "waring", "linm", "linlas", "las", "las0p", "las0pp", "mac", "binom2", "linbin"])
def test_failure_names_pair_and_first_diff(monkeypatch, name, bump, ident, params, line):
    monkeypatch.setattr(identities, name, bump(getattr(identities, name)))
    report = verify(ident, **params)
    assert report.to_json_line() == line
    decoded = json.loads(line)
    assert (report.pair, report.first_diff) == (decoded["pair"], decoded["first_diff"])


def test_waring_takes_one_table_per_species_multiset(monkeypatch):
    # c_k(r) reads only r's species: caps (3, 3, 3) have 63 nonzero box points
    # but 19 species multisets, so 19 tables
    calls = []
    real = identities.c_table
    monkeypatch.setattr(identities, "c_table", lambda r: calls.append(r.species) or real(r))
    assert verify("waring", caps=(3, 3, 3), t_max=2).verified
    assert len(calls) == len(set(calls)) == 19


def test_chain_pairs_run_within_the_merge_budget(monkeypatch):
    # each lin id compares its table, the merge chain at any shape within
    # RECURRENCE_STEPS_MAX and the oracle within its budget, in that order
    for q in iter_compositions(4, 5):
        chain = coefficients._recurrence_steps(q.species) <= coefficients.RECURRENCE_STEPS_MAX
        assert len(identities._check_linm(q)) == 1 + chain + (q.total <= identities.TRANSVERSAL_T_MAX), q
        assert len(identities._check_linbin(q)) == 1 + chain + (q.total <= COVERING_K_MAX), q
        assert len(identities._check_linlas(q)) == 1 + chain + (q.total <= COVERING_K_MAX), q
    for ident in ("linm", "linbin", "linlas"):
        check = identities._IDENTITIES[ident][0]
        assert len(check(Composition((1, 2, 3)))) == 3 and verify(ident, r=(1, 2, 3)).verified, ident
        assert len(check(Composition((2, 3, 4)))) == 2 and verify(ident, r=(2, 3, 4)).verified, ident
    # (1,)*1001 takes 1,001,000 merge steps, over the budget: the table alone
    assert not coefficients._within_merge_budget((1,) * 1001)
    monkeypatch.setattr(identities, "_merge_chain", lambda species, sign: pytest.fail("the chain ran"))
    monkeypatch.setattr(identities, "linearization_d", lambda r, variant: CoeffTable(variant, r, {}))
    monkeypatch.setattr(identities, "newton_coeffs", lambda p, start, step: ([], 1))
    for check in (identities._check_linm, identities._check_linbin, identities._check_linlas):
        assert len(check(Composition((1,) * 1001))) == 1, check.__name__
    # a fault in the chain fails linbin at (0, 3, 4) on that pair
    monkeypatch.undo()
    real = identities._merge_chain
    monkeypatch.setattr(identities, "_merge_chain", lambda species, sign: [a + 1 for a in real(species, sign)])
    report = verify("linbin", r=(0, 3, 4))
    assert report.status == "failed" and report.pair == 1
    assert '"pair":1' in report.to_json_line()


def test_table_and_chain_pairs_share_no_code(monkeypatch):
    # the linearization table and the merge chain are two kernels: a fault in either
    # shows on its own pair and leaves the other's output as it was
    r = Composition((1, 2, 3))
    chains = {sign: coefficients._merge_chain(r.species, sign) for sign in (1, -1)}
    tables = {v: linearization_d(r, v) for v in ("d", "d_tilde", "c_tilde")}
    real_fd = coefficients.forward_differences
    monkeypatch.setattr(coefficients, "forward_differences", lambda t: [v + (k == 1) for k, v in enumerate(real_fd(t))])
    for ident in ("linm", "linbin", "linlas"):
        report = verify(ident, r=r)
        assert (report.status, report.pair) == ("failed", 0), ident
    assert {sign: coefficients._merge_chain(r.species, sign) for sign in (1, -1)} == chains
    monkeypatch.undo()
    # a chain fault, C(n, k) + 2 as in the recurrence route's remainder test
    real_binomial = coefficients.binomial
    monkeypatch.setattr(coefficients, "binomial", lambda n, k: real_binomial(n, k) + 2)
    with pytest.raises(ArithmeticError, match="merge step leaves a remainder"):
        c_table(r, "recurrence")
    for ident, params in (("linbin", dict(r=r)), ("binom2", dict(r1=2, r2=1))):
        try:
            report = verify(ident, **params)
        except ArithmeticError:
            continue
        assert (report.status, report.pair) == ("failed", 1 if ident == "linbin" else 0), ident
    assert {v: linearization_d(r, v) for v in tables} == tables
    # no package function is called by both kernels
    table_names = set(linearization_d.__code__.co_names) | set(coefficients._species_product.__code__.co_names)
    shared = set(coefficients._merge_chain.__code__.co_names) & table_names
    assert not {name for name in shared if callable(getattr(coefficients, name, None))}, shared


def test_integer_sides_take_no_newton_pass(monkeypatch):
    # one newton_coeffs pass per univariate left side: the lin ids' product, bigeq's c and
    # F forms, lemma1's n+1 slices; the chain, oracle and S sides (three pairs in all at
    # these r) are integer lists on k, and no right side is expanded into monomials
    assert not hasattr(polybasis, "newton_sum")
    calls = []
    real = identities.newton_coeffs
    monkeypatch.setattr(identities, "newton_coeffs", lambda *args: calls.append(args) or real(*args))
    for ident, params, want in (("las", dict(n=4, r=(2, 1)), 1), ("linm", dict(r=(1, 2, 3)), 1),
                                ("linbin", dict(r=(1, 2, 3)), 1), ("linlas", dict(r=(1, 2, 3)), 1),
                                ("binom2", dict(r1=2, r2=3), 1), ("bigeq", dict(n=4, r=(2, 1)), 2),
                                ("lemma1", dict(n=5), 6)):
        calls.clear()
        assert verify(ident, **params).verified and len(calls) == want, (ident, len(calls))
    # binom2's and linlas's left side, prod_i binomial(X+r_i-1, r_i), and linm's,
    # prod_i falling(X, r_i), are one loop over every factor's shifts, whatever the
    # number of factors or zero parts: no UPoly product
    monkeypatch.setattr(UPoly, "__mul__", lambda a, b: pytest.fail("a linear-factor product took a UPoly product"))
    assert all(verify("binom2", r1=a, r2=b).verified for a, b in ((1, 0), (0, 3), (2, 1), (6, 7), (12, 12)))
    for ident in ("linlas", "linm"):
        assert verify(ident, r=(3, 4, 5)).verified and verify(ident, r=(2, 0, 1)).verified, ident


def test_linear_product_fault_fails_linm_linlas_and_binom2(monkeypatch):
    # the three ids read one linear-factor loop: a fault in it shows on each id's product pair
    real = identities._linear_product
    monkeypatch.setattr(identities, "_linear_product", lambda shifts: [c + (d == 0) for d, c in enumerate(real(shifts))])
    for ident, params in (("linm", dict(r=(2, 1))), ("linlas", dict(r=(2, 1))), ("binom2", dict(r1=2, r2=1))):
        report = verify(ident, **params)
        assert (report.status, report.pair) == ("failed", 0), ident


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
                assert identities._check_bigeq(n, r)[0][0] == _on_newton_basis(_old_bigeq_lhs(n, r), 1 - n, 1), (n, r)


def _nonzero(p):
    """Stored nonzero coefficients of a UPoly or an MPoly."""
    return sum(1 for c in p.coeffs if c) if isinstance(p, UPoly) else len(p.terms)


def _y_slice(p: MPoly, j: int) -> UPoly:
    """The coefficient of y^j in a truncated MPoly in (X, y), a UPoly in X."""
    return UPoly([p.coeff((l, j)) for l in range(p.caps[0] + 1)])


def test_class_table_matches_mac_and_lemma1_loops():
    # each left side on its Newton basis, binomial(X+n-1, j)
    for n in range(1, 15):
        old_mac = [_on_newton_basis(lhs, 1 - n, 1) for lhs in _old_mac_lhs(n)]
        assert [lhs for lhs, _ in identities._check_mac(n)] == old_mac, n
        old = _old_lemma1_lhs(n)  # caps (n-1, n): every term is in the box
        slices = [lhs for lhs, _ in identities._check_lemma1(n)]
        assert slices == [_on_newton_basis(_y_slice(old, j), 1 - n, 1) for j in range(n + 1)], n


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
    # slice j is the y^j coefficient of each side, on its Newton basis binomial(X+n-1, i);
    # the reference's caps (n-1, n) hold every term, so the n+1 slices are all of it
    for n in range(1, 15):
        [ref] = _old_check_lemma1(n)
        slices = identities._check_lemma1(n)
        assert len(slices) == n + 1, n
        for side in (0, 1):
            assert [pair[side] for pair in slices] == [
                _on_newton_basis(_y_slice(ref[side], j), 1 - n, 1) for j in range(n + 1)], (n, side)


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
    """The basis polynomial plus 1, or for newton_coeffs the Newton pass with its
    first numerator plus 1: a wrong side for every checker below."""
    def wrong(*args, **kwargs):
        p = basis(*args, **kwargs)
        if isinstance(p, tuple):  # (nums, den) of one newton_coeffs pass
            nums, den = p
            return [nums[0] + 1, *nums[1:]], den
        return p + (UPoly.one() if isinstance(p, UPoly) else MPoly.const(p.caps, 1))
    return wrong


@pytest.mark.parametrize("ident,basis,params", [
    ("lemma1", "newton_coeffs", dict(n=4)),
    ("waring", "homogeneous_h", dict(caps=(2, 1), t_max=3)),
    ("las0p", "newton_coeffs", dict(n=4, r=Composition([2, 1]))),
    ("las0pp", "newton_coeffs", dict(n=4, p=2, r=Composition([2, 1]))),
    ("bigeq", "newton_coeffs", dict(n=4, r=Composition([2, 1]))),
    # the one Newton pass is shared by every univariate pair: a fault in it fails each id
    # (linm's product is the linear-factor loop, whose fault test is above)
    ("linm", "newton_coeffs", dict(r=Composition([2, 1]))),
    ("las", "newton_coeffs", dict(n=4, r=Composition([2, 1]))),
    ("mac", "newton_coeffs", dict(n=4)),
    ("binom2", "newton_coeffs", dict(r1=2, r2=3)),
    ("linbin", "newton_coeffs", dict(r=Composition([2, 1]))),
])
def test_wrong_basis_fails(monkeypatch, ident, basis, params):
    assert verify(ident, **params).verified
    monkeypatch.setattr(identities, basis, _plus_one(getattr(identities, basis)))
    assert verify(ident, **params).status == "failed"


def test_partition_sum_and_waring_checkers_build_no_fraction(monkeypatch):
    # right sides are integer numerators over one denominator and waring's
    # weights checked integer quotients: a counting wrapper on Fraction.__new__,
    # installed as bench/tracer.py installs its own, sees no construction.
    # linbin is left out: its left side's binom_poly scales by a Fraction, which
    # bench/selftest.py's fraction_new > 0 check still reads
    made = []
    new = Fraction.__dict__["__new__"].__func__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    instances = [("las", dict(n=5, r=(2, 1))), ("las0p", dict(n=5, r=(2, 1))),
                 ("las0pp", dict(n=5, p=2, r=(2, 1))), ("bigeq", dict(n=5, r=(2, 1))),
                 ("mac", dict(n=6)), ("lemma1", dict(n=5)), ("waring", dict(caps=(2, 1), t_max=3)),
                 ("linm", dict(r=(2, 1))), ("linlas", dict(r=(2, 1))), ("binom2", dict(r1=2, r2=1)),
                 ("injections", dict(n=4, k=2))]
    identities._class_tables.cache_clear()  # the tables too are built under the counter
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    reports = [verify(ident, **params) for ident, params in instances]
    monkeypatch.undo()
    assert [report.status for report in reports] == ["verified"] * len(instances)
    assert made == []


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


def _ref_merge_chain(species: Sequence[int], sign: int) -> List[int]:
    # the weights of the product of b(x, r_i), b(x, n) = C(x, n) at sign +1 or C(x+n-1, n)
    # at sign -1, folding in one species at a time by `_ref_two_factor` on the dict of weights
    first, *rest = species
    w = {first: 1}
    for b in rest:
        merged = {}
        for a, wa in w.items():
            for i, t in enumerate(_ref_two_factor(a, b, sign)):
                merged[i] = merged.get(i, 0) + wa * t
        w = merged
    return [w.get(s, 0) for s in range(sum(species) + 1)]


def _ref_on_binomials(w: Sequence[int]) -> List[int]:
    # sum_s w_s C(x+s-1, s) on C(x, k): C(x+s-1, s) = sum_k C(s-1, k-1) C(x, k) for s >= 1
    return [w[0]] + [sum(w[s] * binomial(s - 1, k - 1) for s in range(k, len(w))) for k in range(1, len(w))]


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
                    ref_pair = [(_on_newton_basis(ref, 0, -1), UPoly(_ref_las0pp_a(n, p, P)))]
                    assert _coeffs_den(identities._check_las0pp(n, p, r)) == _coeffs_den(ref_pair), (n, r, p)


def test_two_factor_matches_per_entry_reference():
    # the merge chain at two species is the two-factor linearization, at three and
    # four the fold of it; every shape here is within RECURRENCE_STEPS_MAX
    for r1 in range(13):
        for r2 in range(13):
            species = tuple(sorted(p for p in (r1, r2) if p))
            for sign in (1, -1):
                if species:
                    got = coefficients._merge_chain(species, sign)
                    assert got == _ref_two_factor(r1, r2, sign), (r1, r2, sign)
                    assert all(type(x) is int for x in got), (r1, r2, sign)
    for r in [*iter_compositions(4, 4), Composition((12, 9, 7, 5))]:
        for sign in (1, -1):
            assert coefficients._merge_chain(r.species, sign) == _ref_merge_chain(r.species, sign), (r, sign)


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


# the table against the product first, then the table against the chain and the
# oracle as integer lists on k = 0..|r|, each one UPoly in T of den 1

def _ref_check_linm(r: Composition) -> List[Pair]:
    lhs = math.prod((falling_poly(ri) for ri in r.parts), start=UPoly.one())
    table = linearization_d(r, "d").values
    ints = UPoly([table.get(k, 0) for k in range(r.total + 1)])
    scale = math.prod(map(factorial, r.parts))  # every shape here is within RECURRENCE_STEPS_MAX
    chain = [Fraction(scale * w, factorial(k)) for k, w in enumerate(_ref_merge_chain(r.species, 1))]
    pairs: List[Pair] = [(_on_newton_basis(lhs, 0, 1), _on_newton_basis(from_falling_basis(table), 0, 1)),
                         (ints, UPoly(chain))]
    if r.total <= 7:
        pairs.append((ints, UPoly([0] + [oracle_transversal_partitions(r, k) for k in range(1, r.total + 1)])))
    return pairs


def _ref_check_linbin(r: Composition) -> List[Pair]:
    lhs = math.prod((binom_poly(ri) for ri in r.parts), start=UPoly.one())
    table = linearization_d(r, "d_tilde").values  # on binomial(X, k), k = 0..|r|
    a = [table.get(k, 0) for k in range(r.total + 1)]
    pairs: List[Pair] = [(_on_newton_basis(lhs, 0, 1), UPoly(a)), (UPoly(a), UPoly(_ref_merge_chain(r.species, 1)))]
    if r.total <= COVERING_K_MAX:  # k runs up to |r|
        pairs.append((UPoly(a), UPoly([0] + [oracle_covering_choices(r, k, "set") for k in range(1, r.total + 1)])))
    return pairs


def _ref_check_linlas(r: Composition) -> List[Pair]:
    lhs = math.prod((rising_poly(ri).scale(Fraction(1, factorial(ri))) for ri in r.parts), start=UPoly.one())
    table = linearization_d(r, "c_tilde").values
    a = [table.get(k, 0) for k in range(r.total + 1)]
    chain = _ref_on_binomials(_ref_merge_chain(r.species, -1))  # moved onto binomial(X, k)
    pairs: List[Pair] = [(_on_newton_basis(lhs, 0, 1), UPoly(a)), (UPoly(a), UPoly(chain))]
    if r.total <= COVERING_K_MAX:
        oracle = [0] + [oracle_covering_choices(r, k, "multiset") for k in range(1, r.total + 1)]
        pairs.append((UPoly(a), UPoly(oracle)))
    return pairs


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
    form_s = (UPoly([k * math.prod(r.parts) * c.get(k, 0) for k in range(n + 1)]), UPoly([r.total * s for s in S]))
    form_f = [nfact // k * F[k] for k in range(n, 0, -1)]
    return [(_on_newton_basis(lhs, 1 - n, 1), UPoly(form_c)), form_s, (_on_newton_basis(lhs, 0, -1), UPoly(form_f))]


def test_bigeq_matches_per_entry_reference():
    for n in range(1, 17):
        for r in iter_compositions(3, 3):
            if 0 not in r.parts:
                assert _coeffs_den(identities._check_bigeq(n, r)) == _coeffs_den(_ref_check_bigeq(n, r)), (n, r)
