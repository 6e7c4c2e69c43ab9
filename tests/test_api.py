"""The top-level API is the README's "Python API" list, and its example runs."""

import doctest
import re
from pathlib import Path

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
    assert (failed, attempted) == (0, 3)
