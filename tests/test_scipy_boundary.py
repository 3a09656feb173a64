"""scipy stays out of the library except on the Fock oracle's large branch.

Every other module runs on numpy alone, so ``import gausslift`` and every
command below 600 Fock states load no scipy module.  The subprocess tests in
``tests/test_cli.py`` show that at run time for the commands; this static
check covers every module, including code no command reaches.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gausslift"

#: the one module allowed to import scipy (its Krylov branch above 600 states)
SCIPY_MODULES = {"fock.py"}


def scipy_imports(path):
    """Line numbers of every ``import scipy...`` / ``from scipy... import`` in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            found.append(node.lineno)
    return found


def test_only_fock_imports_scipy():
    uses = {path.name: lines for path in sorted(SRC.glob("*.py"))
            if (lines := scipy_imports(path)) and path.name not in SCIPY_MODULES}
    assert not uses, f"scipy imported outside {sorted(SCIPY_MODULES)}: {uses}"


def test_the_scan_sees_the_fock_import():
    assert scipy_imports(SRC / "fock.py")
