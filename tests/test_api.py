"""The top-level API is the README's "Python API" list, and its example runs."""

import doctest
import re
from pathlib import Path

import pytest

import genbinom

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
