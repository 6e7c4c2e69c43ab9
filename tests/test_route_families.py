"""Route families: what a fault in each shared kernel reaches.

Each kernel below is patched at every binding it has in a genbinom module (found
as bench/tracer.py finds them: `identities` imports several under its own
names), with two faults in turn: +1 at entry 1 of its output, and x2 on every
entry.  The c_k routes that then change over ``iter_compositions(3, 3)`` (a
value, or an ArithmeticError), and the identity ids whose instance below fails
or raises, must be the ones in `REACH`.

The routes fall into the four `FAMILIES` that the `coefficients` docstring
lists: two routes are in one family when a kernel other than the scaling steps
in `SHARED` reaches both.  Every kernel is caught: by a route outside the
families it reaches, which then disagrees with the routes it changed, or by an
identity pair.  A change that merges two families, or leaves a kernel
unseen, fails here.
"""

import sys

import pytest

from genbinom import coefficients, exactnum, identities, polybasis
from genbinom.coefficients import C_METHODS, c_table, iter_compositions
from genbinom.identities import verify

FAMILIES = (("explicit", "entiere", "finite_diff", "inclusion_exclusion"), ("recurrence",), ("genfun",), ("hyp3f2",))
SHARED = ("_scaled_by_total", "_exact")

_PRODUCT = {"explicit", "entiere", "finite_diff", "inclusion_exclusion"}
_TABLE_IDS = {"las", "bigeq", "waring", "linm", "linbin", "linlas"}
# kernel: (the module that defines it, the routes it changes, the ids it fails)
REACH = {
    "forward_differences": (exactnum, _PRODUCT, _TABLE_IDS),
    "_species_product": (coefficients, _PRODUCT, _TABLE_IDS),
    "_difference_table": (coefficients, {"finite_diff", "inclusion_exclusion"}, _TABLE_IDS),
    "_merge_chain": (coefficients, {"recurrence"}, {"linm", "linbin", "linlas", "binom2"}),
    "_on_binomials": (coefficients, {"recurrence"}, {"linlas"}),
    "_geom_minus_one_powers": (coefficients, {"genfun"}, set()),
    "_scaled_by_total": (coefficients, {"finite_diff", "genfun", "inclusion_exclusion", "recurrence"},
                         {"las", "bigeq", "waring"}),
    "_exact": (coefficients, set(C_METHODS), {"las", "bigeq", "waring", "linm", "linlas", "binom2"}),
    "newton_coeffs": (polybasis, set(), {"las", "bigeq", "las0p", "las0pp", "mac", "lemma1", "linbin"}),
    "_linear_product": (polybasis, set(), {"linm", "linbin", "linlas", "binom2", "injections"}),
}

INSTANCES = [("las", dict(n=4, r=(2, 1))), ("bigeq", dict(n=4, r=(2, 1))), ("las0p", dict(n=4, r=(2, 1))),
             ("las0pp", dict(n=4, p=2, r=(2, 1))), ("mac", dict(n=4)), ("lemma1", dict(n=4)),
             ("waring", dict(caps=(2, 1), t_max=3)), ("linm", dict(r=(1, 2, 3))), ("linbin", dict(r=(1, 2, 3))),
             ("linlas", dict(r=(1, 2, 3))), ("binom2", dict(r1=2, r2=3)), ("injections", dict(n=4, k=1))]

_COMPS = list(iter_compositions(3, 3))


def _bindings(value):
    """(module, name) of every binding of value in the package's modules."""
    return [(module, name) for module_name, module in list(sys.modules.items())
            if module is not None and module_name.split(".")[0] == "genbinom"
            for name, bound in list(vars(module).items()) if bound is value]


def _plus_one(out):
    out = list(out)
    if len(out) > 1:
        out[1] += 1
    return out


def _twice(out):
    return [2 * x for x in out]


def _faulty(real, fault):
    def faulty(*args):
        out = real(*args)
        if real is polybasis.newton_coeffs:  # (nums, den): the fault goes on the nums
            return fault(out[0]), out[1]
        return fault(out)
    return faulty


def _route_tables():
    out = {}
    for method in C_METHODS:
        for r in _COMPS:
            if method != "hyp3f2" or len(r.species) <= 2:
                try:
                    out[method, r] = c_table(r, method).values
                except ArithmeticError:
                    out[method, r] = None
    return out


def _failing_ids():
    failed = set()
    for ident, params in INSTANCES:
        try:
            if not verify(ident, **params).verified:
                failed.add(ident)
        except ArithmeticError:
            failed.add(ident)
    return failed


def test_instances_verify():
    assert {ident for ident, _ in INSTANCES} == set(identities.IDENTITY_IDS)
    assert _failing_ids() == set()


@pytest.mark.parametrize("fault", [_plus_one, _twice], ids=["plus_one", "twice"])
@pytest.mark.parametrize("kernel", sorted(REACH))
def test_fault_reaches_its_table_row(monkeypatch, kernel, fault):
    module, routes, ids = REACH[kernel]
    real, clean = getattr(module, kernel), _route_tables()
    bindings = _bindings(real)
    assert (module, kernel) in bindings
    for owner, name in bindings:
        monkeypatch.setattr(owner, name, _faulty(real, fault))
    faulted = _route_tables()
    assert {method for method, r in clean if faulted[method, r] != clean[method, r]} == routes
    assert _failing_ids() == ids


def _family_links():
    """The families as the classes of routes that one kernel outside SHARED reaches together."""
    family = {method: {method} for method in C_METHODS}
    for kernel, (_, routes, _) in REACH.items():
        if kernel not in SHARED and routes:
            joined = set().union(*(family[method] for method in routes))
            for method in joined:
                family[method] = joined
    return {tuple(sorted(f)) for f in family.values()}


def test_route_families():
    assert sorted(m for family in FAMILIES for m in family) == sorted(C_METHODS)
    assert _family_links() == {tuple(sorted(family)) for family in FAMILIES}
    for kernel, (_, routes, ids) in REACH.items():
        untouched = [family for family in FAMILIES if not routes & set(family)]
        assert (routes and untouched) or ids, kernel
    for family in FAMILIES:  # the coefficients docstring names each family as written here
        assert "{" + ", ".join(family) + "}" in coefficients.__doc__, family
