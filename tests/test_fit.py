"""The shared iteration loop: memberships handed to the solver, and their lifetime."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from mlrfit import admm, em, fit, scoring, synth
from mlrfit.errors import DegenerateRow, NonFiniteInput
from mlrfit.model import Dataset, MlrParams, NoiseKind, NoiseModel, SolverConfig, initial_params

GAUSS = NoiseModel(NoiseKind.GAUSSIAN, 1.0)
LAPLACE = NoiseModel(NoiseKind.LAPLACIAN, 1.0)

DATA = Dataset(
    x=np.column_stack([np.ones(6), np.linspace(-1.0, 1.0, 6)]),
    y=np.array([0.3, -0.2, 0.5, 0.1, -0.4, 0.2]),
)
NEAR = MlrParams(np.array([[0.0, 1.0], [0.5, -0.5]]))
# residuals of about 1e160 square past the largest float: every
# log-density is -inf, so no sample has mass in any component
FAR = MlrParams(np.array([[1e160, 1e160], [0.0, 0.0]]))


def stub(iterates, received, started=None):
    """Steps that yield ``iterates`` in turn, appending what each yield receives.

    Each of ``iterates`` is a pair of coefficients (anything with a d x K
    ``beta``) and a primal residual, yielded as a ``fit.Iterate`` with the
    fitted values on DATA. ``started``, if given, receives the start, its
    fits and its memberships.
    """

    def steps(start, fits, w):
        if started is not None:
            started.append((start, fits, w))
        for params, residual in iterates:
            received.append((yield fit.Iterate(params.beta, params.beta.T @ DATA.x.T, residual)))

    return steps


def run_stub(iterates, n_iterations, stop_tol=None):
    received = []
    cfg = SolverConfig(n_iterations=n_iterations, seed=1)
    with np.errstate(over="ignore"):
        trace = fit.run(stub(iterates, received), DATA, 2, GAUSS, cfg, stop_tol=stop_tol)
    return trace, received


def test_em_step_is_the_scoring_e_step():
    assert em.e_step is scoring.e_step


def test_start_gets_its_fits_and_their_e_step():
    started = []
    cfg = SolverConfig(n_iterations=2, seed=1)
    fit.run(stub([(NEAR, None)] * 2, [], started), DATA, 2, GAUSS, cfg)
    [(start, fits, w)] = started
    assert np.array_equal(start.beta, initial_params(cfg, DATA.dim, 2).beta)
    assert np.array_equal(fits, start.beta.T @ DATA.x.T)
    assert np.array_equal(w, scoring.e_step(fits, DATA.y, GAUSS))


def test_each_yield_receives_the_posterior_at_its_iterate():
    trace, received = run_stub([(NEAR, None)] * 3, 3)
    assert len(received) == 2
    expected = scoring.e_step(NEAR.beta.T @ DATA.x.T, DATA.y, GAUSS)
    for w in received:
        assert np.array_equal(w, expected)
    assert not np.shares_memory(received[0], received[1])
    assert trace.n_iterations == 3


def test_massless_sample_mid_fit_raises_naming_it():
    with pytest.raises(DegenerateRow, match="sample 0 "):
        run_stub([(NEAR, None), (FAR, None), (NEAR, None)], 3)


def test_massless_final_iterate_scores_minus_infinity():
    trace, received = run_stub([(NEAR, None), (FAR, None)], 2)
    assert len(received) == 1
    assert math.isfinite(trace.log_liks[0]) and trace.log_liks[1] == -math.inf
    assert np.array_equal(trace.params.beta, FAR.beta)


def test_massless_iterate_that_meets_stop_tol_scores_minus_infinity():
    iterates = [(NEAR, 1.0), (FAR, 0.0), (NEAR, 0.0)]
    trace, received = run_stub(iterates, 3, stop_tol=0.5)
    assert len(received) == 1
    assert trace.log_liks[-1] == -math.inf
    assert list(trace.primal_residuals) == [1.0, 0.0]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("position", ["mid-fit", "final"])
def test_non_finite_iterate_raises_non_finite_input_unscored(bad, position, monkeypatch):
    """The loop's own check, not MlrParams or the likelihood, stops the fit."""
    scored = []
    log_likelihood = scoring.log_likelihood

    def counting(*args, **kwargs):
        scored.append(kwargs["fits"])
        return log_likelihood(*args, **kwargs)

    monkeypatch.setattr(scoring, "log_likelihood", counting)
    beta = NEAR.beta.copy()
    beta[1, 0] = bad
    iterates = [(NEAR, None), (SimpleNamespace(beta=beta), None), (NEAR, None)]
    # the stub's own X b of an infinite coefficient may be NaN, with a warning
    with pytest.raises(NonFiniteInput, match="iterate 2 "), np.errstate(invalid="ignore"):
        run_stub(iterates, 3 if position == "mid-fit" else 2)
    assert len(scored) == 1  # the first iterate's; no likelihood of the second


SOLVERS = {
    "em-gaussian": (GAUSS, lambda data, cfg: em.fit_em(data, 3, GAUSS, cfg)),
    "em-lp": (LAPLACE, lambda data, cfg: em.fit_em(data, 3, LAPLACE, cfg, lad_path="lp")),
    "em-irls": (LAPLACE, lambda data, cfg: em.fit_em(data, 3, LAPLACE, cfg, lad_path="irls")),
    "admm-gaussian": (GAUSS, lambda data, cfg: admm.fit_admm(data, 3, GAUSS, cfg)),
    "admm-laplacian": (LAPLACE, lambda data, cfg: admm.fit_admm(data, 3, LAPLACE, cfg)),
}


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_memberships_handed_over_are_fresh_and_never_written_again(name, monkeypatch):
    """Every M-step and Z-update gets its own memberships, untouched afterwards.

    The solvers may keep views of what they are handed (the LAD routes get
    rows of it), so a buffer reused across iterations would rewrite them.
    """
    handed = []

    def recording(module, attr, position):
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            w = args[position]
            handed.append((w, w.copy()))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, attr, wrapper)

    recording(em, "m_step_gaussian", 0)
    recording(em, "m_step_laplacian", 0)
    recording(admm, "z_update_gaussian", 3)
    recording(admm, "z_update_laplacian", 3)
    nm, solve = SOLVERS[name]
    data = synth.generate(3, 2, 200, nm, seed=41)
    solve(data, SolverConfig(n_iterations=6, seed=41))
    assert len(handed) == 6
    for i, (w, copy) in enumerate(handed):
        assert np.array_equal(w, copy)
        for other, _ in handed[:i]:
            assert not np.shares_memory(w, other)


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_one_e_step_per_fit_the_start(name, monkeypatch):
    """Only the loop's start runs the E-step; the likelihood fills the rest."""
    calls = []
    e_step = scoring.e_step

    def counting(*args):
        calls.append(args)
        return e_step(*args)

    monkeypatch.setattr(scoring, "e_step", counting)
    nm, solve = SOLVERS[name]
    solve(synth.generate(3, 2, 200, nm, seed=41), SolverConfig(n_iterations=6, seed=41))
    assert len(calls) == 1


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_one_x_b_per_iteration_scored_and_reused(name, monkeypatch):
    """The loop scores the fitted values its solver formed, once per iteration.

    Every scorer call gets the ``fits`` of the iterate just yielded, equal
    to beta^T X^T; in ADMM the next Z-update reads that same array.
    """
    yielded, scored, z_read = [], [], []
    run = fit.run

    def recording_run(steps, *args, **kwargs):
        def recorded(*start):
            iterates = steps(*start)
            it = next(iterates)
            while True:
                yielded.append(it)
                it = iterates.send((yield it))

        return run(recorded, *args, **kwargs)

    log_likelihood = scoring.log_likelihood

    def scoring_spy(*args, **kwargs):
        scored.append((len(yielded), kwargs["fits"]))
        return log_likelihood(*args, **kwargs)

    monkeypatch.setattr(fit, "run", recording_run)
    monkeypatch.setattr(scoring, "log_likelihood", scoring_spy)
    for attr in ("z_update_gaussian", "z_update_laplacian"):
        z_update = getattr(admm, attr)

        def z_spy(*args, z_update=z_update):
            z_read.append(args[0])
            return z_update(*args)

        monkeypatch.setattr(admm, attr, z_spy)
    nm, solve = SOLVERS[name]
    data = synth.generate(3, 2, 200, nm, seed=43)
    trace = solve(data, SolverConfig(n_iterations=6, seed=43))
    assert len(scored) == len(yielded) == trace.n_iterations == 6
    for t, (n_yielded, fits) in enumerate(scored):
        assert n_yielded == t + 1  # scored right after its yield
        assert fits is yielded[t].fits
        assert np.array_equal(fits, yielded[t].beta.T @ data.x.T)
    assert np.array_equal(trace.params.beta, yielded[-1].beta)
    if name.startswith("admm"):
        assert len(z_read) == 6
        for t in range(5):
            assert z_read[t + 1] is scored[t][1]
    else:
        assert z_read == []
