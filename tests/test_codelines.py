"""`tools/codelines.py`, the code-line count quoted for every module, on a literal
source: the tool is loaded by path, as it is run from the root of a checkout."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "codelines.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("_codelines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

# a comment

import math  # 1


class Box:  # 2
    """Class docstring."""

    size = (  # 3
        1,  # 4
        2,  # 5
    )  # 6

    def area(self):  # 7
        """Function docstring,

        over three lines."""
        "a bare string that is no docstring"  # 8
        return math.prod(  # 9
            (self.size, 2))  # 10
'''


def test_codelines_counts_code_not_docstrings_comments_or_blanks():
    tool = _load_tool()
    assert tool.code_lines(SOURCE) == 10
    assert tool.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0
    assert tool.code_lines('x = """a string\nover two lines"""\n') == 2
