import numpy as np
import pytest

from mlrfit.errors import DimensionMismatch, NonFiniteInput
from mlrfit.model import (
    Dataset,
    MlrParams,
    NoiseKind,
    NoiseModel,
    SolverConfig,
    check_int,
    check_seed,
    fitted_values,
    initial_params,
    validate_problem,
)
from mlrfit import io, synth


def small_problem(d=2, k=2, n=10, seed=0):
    rng = np.random.default_rng(seed)
    params = MlrParams(rng.standard_normal((d, k)))
    data = Dataset(x=rng.standard_normal((n, d)), y=rng.standard_normal(n))
    return params, data


def test_validate_problem_accepts_matching_dims():
    params, data = small_problem(d=2, k=2, n=10)
    validate_problem(params, data)  # no raise


def test_validate_problem_rejects_dim_mismatch():
    params, _ = small_problem(d=3, k=2)
    _, data = small_problem(d=2, k=2)
    with pytest.raises(DimensionMismatch):
        validate_problem(params, data)


def test_nan_in_y_rejected_at_construction():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(5)
    y[3] = np.nan
    with pytest.raises(NonFiniteInput):
        Dataset(x=rng.standard_normal((5, 2)), y=y)


def test_params_reject_nan_and_wrong_rank():
    with pytest.raises(NonFiniteInput):
        MlrParams(np.array([[1.0, np.nan]]))
    with pytest.raises(DimensionMismatch):
        MlrParams(np.array([1.0, 2.0]))


def test_params_shape_properties():
    p = MlrParams(np.zeros((3, 4)))
    assert p.dim == 3 and p.k_components == 4


def test_noise_model_validation_and_b():
    nm = NoiseModel(NoiseKind.LAPLACIAN, 2.0)
    assert nm.b == 2.0 / np.sqrt(2.0)
    with pytest.raises(ValueError):
        NoiseModel(NoiseKind.GAUSSIAN, 0.0)
    with pytest.raises(NonFiniteInput):
        NoiseModel(NoiseKind.GAUSSIAN, np.inf)
    assert NoiseModel("gaussian").kind is NoiseKind.GAUSSIAN


def test_dataset_label_validation():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 2))
    y = rng.standard_normal(4)
    with pytest.raises(DimensionMismatch):
        Dataset(x=x, y=y, labels=np.array([0, 1]))
    with pytest.raises(ValueError):
        Dataset(x=x, y=y, labels=np.array([0, -1, 0, 1]))
    truth = MlrParams(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Dataset(x=x, y=y, labels=np.array([0, 1, 2, 0]), true_params=truth)


def test_labels_must_be_integral_and_finite():
    x, y = np.ones((3, 1)), np.zeros(3)
    # a fraction is an error, not a truncation to [0, 1, 2]
    with pytest.raises(ValueError, match="labels must be integers"):
        Dataset(x=x, y=y, labels=np.array([0.5, 1.7, 2.9]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFiniteInput, match="labels"):
            Dataset(x=x, y=y, labels=np.array([0.0, bad, 1.0]))
    # integral, but past int64: the cast would wrap it
    with pytest.raises(ValueError, match="labels must be integers"):
        Dataset(x=x, y=y, labels=np.array([0.0, 1e300, 1.0]))
    with pytest.raises(ValueError, match="labels must be 0-based component indices"):
        Dataset(x=x, y=y, labels=np.array([0.0, -1.0, 1.0]))
    # integral floats read exactly
    labels = Dataset(x=x[:2], y=y[:2], labels=[0.0, 1.0]).labels
    assert labels.dtype == np.int64 and labels.tolist() == [0, 1]
    assert not labels.flags.writeable


def assert_column_major(data, expected):
    """``data.x`` equals ``expected`` and is locked, with x.T the contiguous d x N array."""
    assert data.x.flags.f_contiguous and data.x.T.flags.c_contiguous
    assert not data.x.flags.writeable
    assert data.x.shape == expected.shape
    assert np.array_equal(data.x, expected)


@pytest.mark.parametrize("layout", ["nested list", "row-major", "column-major", "strided view"])
def test_dataset_stores_x_column_major(layout):
    base = np.random.default_rng(4).standard_normal((12, 6))
    given = {
        "nested list": base[:, :3].tolist(),
        "row-major": np.ascontiguousarray(base[:, :3]),
        "column-major": np.asfortranarray(base[:, :3]),
        "strided view": base[::2, ::2],
    }[layout]
    expected = np.array(given)
    data = Dataset(x=given, y=np.zeros(expected.shape[0]))
    assert_column_major(data, expected)
    # a copy, so the caller's array stays writable and the dataset's does not move
    assert not np.shares_memory(data.x, given)


def test_generated_and_parsed_datasets_store_x_column_major(tmp_path):
    nm = NoiseModel(NoiseKind.LAPLACIAN, 1.0)
    data = synth.generate(3, 2, 50, nm, seed=9)
    assert_column_major(data, data.x)
    io.write_dataset(tmp_path / "data.txt", data, nm.kind, nm.sigma, 9)
    back, _ = io.read_dataset(tmp_path / "data.txt")
    assert_column_major(back, data.x)


def test_dataset_without_samples_rejected():
    with pytest.raises(ValueError, match="n_samples must be an integer >= 1, got 0"):
        Dataset(x=np.zeros((0, 2)), y=np.zeros(0))


def test_dataset_without_covariates_rejected():
    with pytest.raises(ValueError, match="dim must be an integer >= 1, got 0"):
        Dataset(x=np.zeros((5, 0)), y=np.zeros(5))


@pytest.mark.parametrize("check", [check_int, check_seed])
def test_integer_rules_read_text_exactly(check):
    # dataset headers hand the rules text
    assert check("k", "3.0") == 3
    assert check("k", "1e3") == 1000
    # parsed as an int first: as a float it would round up to 2**64
    assert check("k", str(2**64 - 1)) == 2**64 - 1
    assert type(check("k", "3.0")) is int
    with pytest.raises(ValueError, match="k must be an integer, got 3.5"):
        check("k", "3.5")
    with pytest.raises(NonFiniteInput, match="k must be an integer, got nan"):
        check("k", "nan")
    with pytest.raises(ValueError, match="k must be an integer, got 'abc'"):
        check("k", "abc")


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(n_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(n_iterations=5, rho=0.0)
    with pytest.raises(ValueError):
        SolverConfig(n_iterations=5, seed=-1)
    with pytest.raises(ValueError):
        SolverConfig(n_iterations=5, seed=2**64)
    for rho in (np.nan, np.inf):
        with pytest.raises(NonFiniteInput):
            SolverConfig(n_iterations=5, rho=rho)
    # a fraction is an error, not a truncation
    with pytest.raises(ValueError, match="n_iterations must be an integer, got 2.9"):
        SolverConfig(n_iterations=2.9)
    with pytest.raises(ValueError, match="seed must be an integer, got 3.7"):
        SolverConfig(n_iterations=1, seed=3.7)
    for value in (np.inf, -np.inf, np.nan):
        with pytest.raises(NonFiniteInput):
            SolverConfig(n_iterations=value)
        with pytest.raises(NonFiniteInput):
            SolverConfig(n_iterations=1, seed=value)


def test_non_finite_input_is_a_value_error():
    assert issubclass(NonFiniteInput, ValueError)
    with pytest.raises(ValueError, match="sigma must be a positive finite real, got nan"):
        NoiseModel(NoiseKind.GAUSSIAN, np.nan)


def test_values_on_the_rule_boundaries_accepted():
    cfg = SolverConfig(n_iterations=np.int64(1), rho=1e-300, seed=2**64 - 1)
    assert (cfg.n_iterations, cfg.seed) == (1, 2**64 - 1)
    assert type(cfg.n_iterations) is int and type(cfg.rho) is float
    assert SolverConfig(n_iterations=1, seed=0).seed == 0
    # integral floats and numpy integers pass; ints keep their exact value
    cfg = SolverConfig(n_iterations=3.0, seed=np.uint64(2**64 - 1))
    assert (cfg.n_iterations, cfg.seed) == (3, 2**64 - 1)
    assert type(cfg.n_iterations) is int and type(cfg.seed) is int
    assert SolverConfig(n_iterations=1, seed=2**64 - 2).seed == 2**64 - 2
    assert NoiseModel(NoiseKind.LAPLACIAN, 5e-324).sigma == 5e-324


def test_types_are_read_only():
    params, data = small_problem()
    with pytest.raises(ValueError):
        params.beta[0, 0] = 1.0
    with pytest.raises(ValueError):
        data.x[0, 0] = 1.0


def test_initial_params_deterministic_and_separate_from_data_stream():
    cfg = SolverConfig(n_iterations=1, seed=123)
    a = initial_params(cfg, 3, 2)
    b = initial_params(cfg, 3, 2)
    assert np.array_equal(a.beta, b.beta)
    # the data stream with the same seed must not reproduce the init draw
    truth = synth.generate(2, 3, 1, NoiseModel(NoiseKind.GAUSSIAN, 1.0), seed=123)
    assert not np.allclose(a.beta, truth.true_params.beta)


def test_initial_params_override():
    override = MlrParams(np.ones((2, 2)))
    cfg = SolverConfig(n_iterations=1, seed=5, init_params=override)
    assert np.array_equal(initial_params(cfg, 2, 2).beta, override.beta)
    with pytest.raises(DimensionMismatch):
        initial_params(cfg, 3, 2)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 3])
def test_fitted_values_are_the_matmul_bit_for_bit(k, d):
    # at d = 1 the broadcast product forms each entry as the one product the
    # matmul forms, so EM's and ADMM's trajectories do not move
    rng = np.random.default_rng(10 * k + d)
    beta = rng.standard_normal((d, k)) * 10.0 ** rng.integers(-8, 8, (d, k))
    x = np.asfortranarray(rng.standard_normal((500, d)) * 10.0 ** rng.integers(-8, 8, (500, 1)))
    fits = fitted_values(beta, x.T)
    assert fits.shape == (k, 500) and fits.flags.c_contiguous
    assert np.array_equal(fits, beta.T @ x.T)
