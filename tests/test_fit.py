"""The shared iteration loop: memberships handed to the solver, and their lifetime."""

import math

import numpy as np
import pytest

from mlrfit import admm, em, fit, synth
from mlrfit.errors import DegenerateRow
from mlrfit.model import Dataset, MlrParams, NoiseKind, NoiseModel, SolverConfig

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


def stub(iterates, received):
    """Steps that yield ``iterates`` in turn, appending what each yield receives."""

    def steps(start):
        for iterate in iterates:
            received.append((yield iterate))

    return steps


def run_stub(iterates, n_iterations, stop_tol=None):
    received = []
    cfg = SolverConfig(n_iterations=n_iterations, seed=1)
    with np.errstate(over="ignore"):
        trace = fit.run(stub(iterates, received), DATA, 2, GAUSS, cfg, stop_tol=stop_tol)
    return trace, received


def test_each_yield_receives_the_posterior_at_its_iterate():
    trace, received = run_stub([(NEAR, None)] * 3, 3)
    assert len(received) == 2
    expected = em.e_step(NEAR.beta.T @ DATA.x.T, DATA.y, GAUSS)
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
