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


def sibling_imports(source: str):
    """Every mlrfit module named by an import statement of ``source``, by its short name."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (
                alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("mlrfit.")
            )
        elif isinstance(node, ast.ImportFrom):
            package = "." * node.level + (node.module or "")
            if package in (".", "mlrfit"):  # from . import em
                yield from (alias.name for alias in node.names)
            elif package.startswith("."):  # from .em import e_step
                yield package[1:].split(".")[0]
            elif package.startswith("mlrfit."):
                yield package.split(".")[1]


def test_solver_modules_do_not_import_each_other():
    # both solvers reach the E-step through scoring, not through each other
    package = Path(mlrfit.__file__).parent
    admm_imports = set(sibling_imports((package / "admm.py").read_text()))
    em_imports = set(sibling_imports((package / "em.py").read_text()))
    assert {"fit", "lad"} <= admm_imports, "the guard saw none of admm's imports"
    assert "em" not in admm_imports
    assert "admm" not in em_imports


def test_sibling_guard_reads_every_import_form():
    source = (
        "import mlrfit.em\n"
        "import numpy, mlrfit.lad as lad\n"
        "from . import em, fit\n"
        "from .em import e_step\n"
        "from mlrfit import scoring\n"
        "from mlrfit.model import Dataset\n"
        "from scipy import special\n"
    )
    assert list(sibling_imports(source)) == [
        "em", "lad", "em", "fit", "em", "scoring", "model",
    ]
