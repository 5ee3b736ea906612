import ast
from pathlib import Path

from helpers import run_fresh
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
    # whether mlrfit imports it; the import statements can. No private module
    # either: scipy may change or drop one in any release.
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
    private = sorted(
        (file, name) for file, name in found
        if any(part.startswith("_") for part in name.split("."))
    )
    assert private == []


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


# Prepares, writes and reads a dataset of each noise family in argv[1], and
# fits them with every solver route that needs numpy alone; prints the scipy
# modules and the process pool module loaded after all that.
NUMPY_ALONE = """
import sys
import mlrfit, mlrfit.bench, mlrfit.cli, mlrfit.io
from mlrfit import admm, em, io, synth
from mlrfit.model import NoiseKind, NoiseModel, SolverConfig

gauss, laplace = NoiseModel(NoiseKind.GAUSSIAN, 1.0), NoiseModel(NoiseKind.LAPLACIAN, 1.0)
cfg = SolverConfig(n_iterations=5, seed=1)
data = {}
for nm in (gauss, laplace):
    io.write_dataset(sys.argv[1], synth.generate(2, 2, 300, nm, 1), nm.kind, nm.sigma, 1)
    data[nm.kind], _ = io.read_dataset(sys.argv[1])
em.fit_em(data[NoiseKind.GAUSSIAN], 2, gauss, cfg)
admm.fit_admm(data[NoiseKind.GAUSSIAN], 2, gauss, cfg)
admm.fit_admm(data[NoiseKind.LAPLACIAN], 2, laplace, cfg)
assert em.fit_em(data[NoiseKind.LAPLACIAN], 2, laplace, cfg, lad_path="irls").lad_path == "irls"
# at d = 1 the lp route is the weighted median, with no LP to solve
one = synth.generate(2, 1, 300, laplace, 1)
assert em.fit_em(one, 2, laplace, cfg, lad_path="lp").lad_path == "lp"
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
print("concurrent.futures.process" in sys.modules)
"""


def test_preparing_data_and_numpy_fits_leave_scipy_unloaded(tmp_path):
    out = run_fresh(NUMPY_ALONE, str(tmp_path / "data.txt")).splitlines()
    assert out == ["[]", "False"]


# Runs the first EM fit on the exact LP route in a fresh interpreter, with a
# spy that records whether scipy's LP module, the fallback of lad.dual_lp, is
# loaded as the fit loop is entered.
FIRST_LP_FIT = """
import sys
from mlrfit import em, fit, lad, synth
from mlrfit.model import NoiseKind, NoiseModel, SolverConfig

laplace = NoiseModel(NoiseKind.LAPLACIAN, 1.0)
data = synth.generate(2, 2, 300, laplace, 1)
assert "scipy.optimize" not in sys.modules, "scipy's LP module was loaded before any LP"
assert lad._solve_dual is lad._linprog_dual
loaded = []
run = fit.run

def spy(*args, **kwargs):
    loaded.append("scipy.optimize" in sys.modules)
    return run(*args, **kwargs)

fit.run = spy
trace = em.fit_em(data, 2, laplace, SolverConfig(n_iterations=5, seed=1), lad_path="lp")
assert trace.lad_path == "lp"
print(*loaded)
"""


def test_lp_backend_is_bound_before_the_fit_loop_starts():
    # fit.run starts the fit's clock, so an import there would be timed
    assert run_fresh(FIRST_LP_FIT).split() == ["True"]
