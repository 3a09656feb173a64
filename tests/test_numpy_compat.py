"""The library runs on every numpy that ``pyproject.toml`` admits (>= 1.24).

numpy 2 added names that numpy 1.x lacks; a use of one of them in
``src/gausslift`` would raise ``AttributeError`` on numpy 1.x, which the test
environment (numpy 2) cannot show by running the code.
"""

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gausslift"

#: names that numpy has only from 2.0, with the pattern that finds a use
NUMPY2_ONLY = {
    "vecdot": r"\bvecdot\b",
    ".mT": r"\.mT\b",
    "matrix_transpose": r"\bmatrix_transpose\b",
    "linalg.outer": r"\blinalg\.outer\b",
}


@pytest.mark.parametrize("name", sorted(NUMPY2_ONLY))
def test_no_numpy2_only_name(name):
    uses = [f"{path.name}:{n}" for path in sorted(SRC.glob("*.py"))
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if re.search(NUMPY2_ONLY[name], line)]
    assert not uses, f"{name} needs numpy >= 2: {uses}"


def test_the_source_is_found():
    assert (SRC / "matfunc.py").is_file()
