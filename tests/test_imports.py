import ast
from pathlib import Path

import mlrfit

# The scipy subpackages mlrfit may import; README's dependency paragraph
# lists the same two.
ALLOWED_SCIPY = ("scipy.optimize", "scipy.special")


def scipy_imports(source: str):
    """Every scipy module named by an import statement of ``source``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "scipy":  # from scipy import linalg
                yield from (f"scipy.{alias.name}" for alias in node.names)
            else:
                yield node.module


def test_scipy_imports_stay_under_optimize_and_special():
    # scipy.optimize loads scipy.linalg itself, so sys.modules cannot tell
    # whether mlrfit imports it; the import statements can.
    modules = sorted(Path(mlrfit.__file__).parent.glob("*.py"))
    assert modules
    found = {
        (path.name, name)
        for path in modules
        for name in scipy_imports(path.read_text())
        if name == "scipy" or name.startswith("scipy.")
    }
    assert found, "the guard saw no scipy import at all"
    outside = sorted(
        (file, name) for file, name in found
        if not any(name == top or name.startswith(top + ".") for top in ALLOWED_SCIPY)
    )
    assert outside == []


def test_guard_reads_every_import_form():
    source = (
        "import scipy.linalg\n"
        "import numpy as np, scipy.sparse as sp\n"
        "from scipy import linalg, special\n"
        "from scipy.optimize._highspy import _core\n"
        "from . import lad\n"
    )
    assert list(scipy_imports(source)) == [
        "scipy.linalg", "numpy", "scipy.sparse", "scipy.linalg", "scipy.special",
        "scipy.optimize._highspy",
    ]
