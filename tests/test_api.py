"""The top-level API is the README's "Python API" list, and its example runs."""

import doctest
import re
from pathlib import Path

import pytest

import genbinom
from genbinom.exactnum import binomial, factorial, falling, rising
from genbinom.partitions import ferrers_choose
from genbinom.polybasis import UPoly, delta_at_zero, falling_poly, rising_poly, shifted_binom_poly
from genbinom.series import homogeneous_h

README = Path(__file__).resolve().parent.parent / "README.md"


def _api_section() -> str:
    return re.search(r"^## Python API\n(.*?)^## ", README.read_text(), re.S | re.M).group(1)


def test_all_is_the_readme_list():
    listed = [name for line in _api_section().splitlines() if line.startswith("- ")
              for name in re.findall(r"`(\w+)`", line)]
    assert len(listed) == len(set(listed)) == 17
    assert sorted(genbinom.__all__) == sorted(listed)
    assert [name for name in listed if not hasattr(genbinom, name)] == []


def test_readme_example_runs():
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert (failed, attempted) == (0, 4)


# every public entry point that takes a composition r, called at r
_TAKES_R = {
    "c_table": lambda r: genbinom.c_table(r).values,
    "c_coeff": lambda r: genbinom.c_coeff(r, 2),
    "linearization_d": lambda r: genbinom.linearization_d(r, "d_tilde").values,
    "seating_counts": lambda r: genbinom.seating_counts(r, 2, "F"),
    "t_coeff": lambda r: genbinom.t_coeff(r, 2, 1),
    "extract_c_from_las": lambda r: genbinom.extract_c_from_las(3, r).values,
    "oracle_transversal_partitions": lambda r: genbinom.oracle_transversal_partitions(r, 2),
    "oracle_covering_choices": lambda r: genbinom.oracle_covering_choices(r, 2, "multiset"),
    "oracle_seatings": lambda r: genbinom.oracle_seatings(r, 2, "S"),
}


@pytest.mark.parametrize("name", sorted(_TAKES_R))
def test_entry_points_take_any_integer_sequence(name):
    call = _TAKES_R[name]
    expected = call(genbinom.Composition([2, 1]))
    assert call((2, 1)) == expected and call([2, 1]) == expected
    with pytest.raises(ValueError):
        call((2.5, 1))


# every integer scalar of the public names, and the bounded size argument of the building
# blocks, given a float or a numeric string: each is read by `exactnum.as_int` before any
# check, so it raises ValueError, where it raised TypeError from deep inside or was taken
# as it stood
_NOT_INTEGERS = {
    "verify n float": lambda: genbinom.verify("mac", n=2.5),
    "verify n str": lambda: genbinom.verify("mac", n="3"),
    "verify p": lambda: genbinom.verify("las0pp", n=3, p=1.0, r=(1,)),
    "verify k": lambda: genbinom.verify("injections", n=3, k=1.5),
    "verify t_max": lambda: genbinom.verify("waring", caps=(1, 1), t_max=2.0),
    "verify r1": lambda: genbinom.verify("binom2", r1=2.0, r2=1),
    "verify r2": lambda: genbinom.verify("binom2", r1=2, r2="1"),
    "sweep n_max": lambda: genbinom.sweep("mac", n_max=2.5),
    "sweep m_max": lambda: genbinom.sweep("linm", m_max=2.0),
    "sweep r_max": lambda: genbinom.sweep("binom2", r_max="3"),
    "sweep t_max": lambda: genbinom.sweep("waring", t_max=2.0),
    "sweep n": lambda: genbinom.sweep("mac", n=3.0),
    "sweep p": lambda: genbinom.sweep("las0pp", n=3, p=1.0, r=(1,)),
    "c_coeff k": lambda: genbinom.c_coeff((2, 1), 2.0),
    "seating_counts k": lambda: genbinom.seating_counts((2, 1), 2.0, "S"),
    "t_coeff k": lambda: genbinom.t_coeff((2, 1), 2.0, 1),
    "t_coeff j": lambda: genbinom.t_coeff((2, 1), 2, 1.0),
    "extract_c_from_las n": lambda: genbinom.extract_c_from_las(3.0, (2, 1)),
    "oracle_transversal_partitions k": lambda: genbinom.oracle_transversal_partitions((2, 1), 2.0),
    "oracle_covering_choices k": lambda: genbinom.oracle_covering_choices((2, 1), 2.0, "set"),
    "oracle_seatings k": lambda: genbinom.oracle_seatings((2, 1), 2.0, "S"),
    "oracle_seatings j": lambda: genbinom.oracle_seatings((2, 1), 2, "T", j=1.0),
    "oracle_injection_cycle_poly n": lambda: genbinom.oracle_injection_cycle_poly(3.0, 1),
    "oracle_injection_cycle_poly k": lambda: genbinom.oracle_injection_cycle_poly(3, 1.0),
    "binomial n": lambda: binomial(2.0, 1),
    "factorial n": lambda: factorial(3.0),
    "rising n": lambda: rising(2, 2.5),
    "falling n": lambda: falling(2, 2.5),
    "rising_poly n": lambda: rising_poly(2.5),
    "falling_poly n": lambda: falling_poly(2.5),
    "delta_at_zero k": lambda: delta_at_zero(UPoly((1,)), 1.5),
    "homogeneous_h n": lambda: homogeneous_h(1.5, (2,)),
}


@pytest.mark.parametrize("case", sorted(_NOT_INTEGERS))
def test_integer_scalars_are_read_at_the_boundary(case):
    with pytest.raises(ValueError, match="expected an integer"):
        _NOT_INTEGERS[case]()


# integer arguments read before any arithmetic on them, so that the message names
# the value passed, not a value formed from it
_NAMED_NOT_INTEGERS = {
    "ferrers_choose p": (lambda: ferrers_choose(((2, 1),), 1.5), 1.5),
    "rising_poly shift": (lambda: rising_poly(2, 0.5), 0.5),
    "shifted_binom_poly n": (lambda: shifted_binom_poly(3.0, 1), 3.0),
    "shifted_binom_poly k": (lambda: shifted_binom_poly(3, 1.0), 1.0),
}


@pytest.mark.parametrize("case", sorted(_NAMED_NOT_INTEGERS))
def test_non_integers_name_the_value_passed(case):
    call, value = _NAMED_NOT_INTEGERS[case]
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == f"expected an integer, got {value!r}"


# one integer below its lower bound per bounded argument, and the message it raises;
# the last two read every argument's type before any bound
_BELOW_BOUND = {
    "binomial n": (lambda: binomial(-1, 0), "binomial: n must be nonnegative, got -1"),
    "factorial n": (lambda: factorial(-2), "factorial: n must be nonnegative, got -2"),
    "rising n": (lambda: rising(3, -1), "rising: n must be nonnegative, got -1"),
    "falling n": (lambda: falling(3, -1), "falling: n must be nonnegative, got -1"),
    "rising_poly n": (lambda: rising_poly(-1), "rising_poly: n must be nonnegative, got -1"),
    "falling_poly n": (lambda: falling_poly(-3), "falling_poly: n must be nonnegative, got -3"),
    "delta_at_zero k": (lambda: delta_at_zero(UPoly((1,)), -1), "delta_at_zero: k must be nonnegative, got -1"),
    "homogeneous_h n": (lambda: homogeneous_h(-1, (2,)), "homogeneous_h: n must be nonnegative, got -1"),
    "seating_counts k": (lambda: genbinom.seating_counts((2, 1), 0, "F"),
                         "seating_counts: k must be positive, got 0"),
    "c_coeff k": (lambda: genbinom.c_coeff((2, 1), -1), "c_coeff: k must be positive, got -1"),
    "oracle_transversal_partitions k": (lambda: genbinom.oracle_transversal_partitions((2, 1), 0),
                                        "k must be positive, got 0"),
    "oracle_covering_choices k": (lambda: genbinom.oracle_covering_choices((2, 1), 0, "set"),
                                  "k must be positive, got 0"),
    "oracle_seatings k": (lambda: genbinom.oracle_seatings((2, 1), 0, "S"), "k must be positive, got 0"),
    "oracle_injection_cycle_poly n": (lambda: genbinom.oracle_injection_cycle_poly(0, 0),
                                      "n must be positive, got 0"),
    "sweep waring t_max": (lambda: genbinom.sweep("waring", t_max=0), "waring: t_max must be positive, got 0"),
    "oracle_injection_cycle_poly k type before n bound": (lambda: genbinom.oracle_injection_cycle_poly(0, 2.5),
                                                          "expected an integer, got 2.5"),
    "oracle_seatings j type before k bound": (lambda: genbinom.oracle_seatings((2, 1), 0, "T", j=1.0),
                                              "expected an integer, got 1.0"),
}


@pytest.mark.parametrize("case", sorted(_BELOW_BOUND))
def test_bounded_integers_name_their_bound(case):
    call, message = _BELOW_BOUND[case]
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
