"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. The desk-scale grids keep the full suite within a
coffee break; the statistical checks are directional by construction.
"""

import time
from contextlib import contextmanager

import numpy as np
import scipy.optimize

from helpers import (
    brute_force_assignment,
    lad_lp_oracle,
    min_pairwise_gap,
    minimize_lhat,
    separated_seed,
    strip_clock_lines,
    surrogate_value,
)
from mlrfit import admm, em, lad, scoring, synth
from mlrfit.cli import main as cli_main
from mlrfit.model import (
    Dataset,
    MlrParams,
    NoiseKind,
    NoiseModel,
    SolverConfig,
)

GAUSS = NoiseModel(NoiseKind.GAUSSIAN, 1.0)
LAPLACE = NoiseModel(NoiseKind.LAPLACIAN, 1.0)

DESK_K = (2, 3)
DESK_D = (1, 2)
DESK_N = 2000
DESK_REPS = 10
DESK_ITERS = 500


@contextmanager
def criterion(number, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(
        f"ACCEPTANCE {number} PASS: {description} "
        f"({time.perf_counter() - started:.1f}s)"
    )


def random_noise(rng):
    kind = NoiseKind.GAUSSIAN if rng.random() < 0.5 else NoiseKind.LAPLACIAN
    return NoiseModel(kind, float(rng.uniform(0.5, 2.0)))


def random_config(rng, nm):
    n = int(rng.integers(4, 12))
    k = int(rng.integers(1, 5))
    d = int(rng.integers(1, 4))
    params = MlrParams(rng.standard_normal((d, k)))
    data = Dataset(x=rng.standard_normal((n, d)), y=rng.standard_normal(n) * 2.0)
    # (fits X b, anchor Z, duals, penalty), each array K x N
    state = (
        (data.x @ params.beta).T,
        rng.standard_normal((n, k)).T * 1.5,
        rng.normal(0.0, 2.0, (n, k)).T,
        float(rng.uniform(0.2, 5.0)),
    )
    anchor_posterior = em.e_step(state[1], data.y, nm)
    return state, anchor_posterior, data


def test_criterion_1_surrogate_bound():
    with criterion(1, "surrogate upper-bounds the augmented Lagrangian, tight at anchor"):
        rng = np.random.default_rng(1001)
        checked = {NoiseKind.GAUSSIAN: 0, NoiseKind.LAPLACIAN: 0}
        while min(checked.values()) < 500:
            nm = random_noise(rng)
            state, w, data = random_config(rng, nm)
            at_anchor = surrogate_value(*state, w, data.y, nm)
            assert abs(at_anchor.surrogate - at_anchor.lagrangian) <= 1e-9
            z_eval = rng.standard_normal(state[1].T.shape).T * 2.0
            elsewhere = surrogate_value(*state, w, data.y, nm, z=z_eval)
            assert elsewhere.surrogate >= elsewhere.lagrangian - 1e-9
            checked[nm.kind] += 1


def test_criterion_2_z_update_exactness():
    with criterion(2, "closed-form z-updates match the 1-D minimization oracle"):
        rng = np.random.default_rng(2002)
        for kind in (NoiseKind.GAUSSIAN, NoiseKind.LAPLACIAN):
            coords = 0
            while coords < 1000:
                nm = NoiseModel(kind, float(rng.uniform(0.5, 2.0)))
                (fits, _, lam, rho), w, data = random_config(rng, nm)
                if kind is NoiseKind.GAUSSIAN:
                    z = admm.z_update_gaussian(fits, lam, rho, w, data.y, nm)
                else:
                    z = admm.z_update_laplacian(fits, lam, rho, w, data.y, nm)
                k, n = z.shape
                for i in range(n):
                    for j in range(k):
                        expected = minimize_lhat(
                            w[j, i], lam[j, i], rho,
                            fits[j, i], data.y[i], nm,
                        )
                        assert abs(z[j, i] - expected) <= 1e-8
                coords += n * k


def test_criterion_3_m_step_oracles():
    with criterion(3, "M-steps match their independent oracles"):
        rng = np.random.default_rng(3003)

        # Gaussian closed form vs an independently assembled normal-equation solve
        for _ in range(20):
            n, d, k = int(rng.integers(10, 60)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
            data = Dataset(x=rng.standard_normal((n, d)), y=rng.standard_normal(n) * 2)
            raw = rng.uniform(0.05, 1.0, (n, k))
            raw /= raw.sum(axis=1, keepdims=True)
            fitted = em.m_step_gaussian(raw.T, data)
            for j in range(k):
                gram = np.zeros((d, d))
                rhs = np.zeros(d)
                for i in range(n):
                    gram += raw[i, j] * np.outer(data.x[i], data.x[i])
                    rhs += raw[i, j] * data.y[i] * data.x[i]
                expected = np.linalg.solve(lad.ridge_gram(gram), rhs)
                assert np.abs(fitted.beta[:, j] - expected).max() <= 1e-10

        # Laplacian M-step objective vs the exact dense-simplex optimum
        for trial in range(50):
            n = int(rng.integers(20, 101))
            d = int(rng.integers(1, 4))
            data = synth.generate(2, d, n, LAPLACE, seed=30000 + trial)
            raw = rng.uniform(0.02, 1.0, (n, 2))
            raw /= raw.sum(axis=1, keepdims=True)
            fitted = em.m_step_laplacian(raw.T, data, path="irls")
            for j in range(2):
                _, optimum = lad_lp_oracle(raw[:, j], data.x, data.y)
                achieved = float(
                    np.sum(raw[:, j] * np.abs(data.y - data.x @ fitted.beta[:, j]))
                )
                assert achieved <= optimum * (1.0 + 1e-6) + 1e-12

        # constant covariate: exact weighted median
        for trial in range(10):
            n = int(rng.integers(5, 60))
            y = rng.standard_normal(n) * 3
            raw = rng.uniform(0.01, 1.0, (n, 2))
            raw /= raw.sum(axis=1, keepdims=True)
            data = Dataset(x=np.ones((n, 1)), y=y)
            fitted = em.m_step_laplacian(raw.T, data)
            for j in range(2):
                assert fitted.beta[0, j] == lad.weighted_median(y, raw[:, j])


def test_criterion_4_em_ascent():
    with criterion(4, "Gaussian EM log-likelihood never decreases"):
        for rep in range(20):
            seed = 40000 + rep
            data = synth.generate(2, 2, 2000, GAUSS, seed=seed)
            trace = em.fit_em(data, 2, GAUSS, SolverConfig(n_iterations=100, seed=seed))
            worst = float(np.diff(trace.log_liks).min()) if trace.n_iterations > 1 else 0.0
            assert worst >= -1e-9


def run_desk_pair(nm, k, d, rep, lad_path):
    seed = separated_seed(k, d, nm, base=50000 + rep)
    data = synth.generate(k, d, DESK_N, nm, seed)
    assert min_pairwise_gap(data.true_params.beta) >= 2.0
    cfg = SolverConfig(n_iterations=DESK_ITERS, seed=seed)
    em_trace = em.fit_em(data, k, nm, cfg, lad_path=lad_path)
    admm_trace = admm.fit_admm(data, k, nm, cfg)
    truth = data.true_params
    return {
        "em_error": scoring.recovery_error(em_trace.params, truth).error,
        "admm_error": scoring.recovery_error(admm_trace.params, truth).error,
        "em_seconds": em_trace.wall_seconds,
        "admm_seconds": admm_trace.wall_seconds,
    }


def test_criterion_5_gaussian_desk_recovery():
    with criterion(5, "desk-scale Gaussian recovery within 0.5 per component"):
        for k in DESK_K:
            for d in DESK_D:
                em_errors, admm_errors = [], []
                for rep in range(DESK_REPS):
                    pair = run_desk_pair(GAUSS, k, d, rep, lad_path="irls")
                    em_errors.append(pair["em_error"])
                    admm_errors.append(pair["admm_error"])
                assert np.mean(em_errors) / k <= 0.5, (k, d, em_errors)
                assert np.mean(admm_errors) / k <= 0.5, (k, d, admm_errors)


def test_criterion_6_laplacian_direction():
    with criterion(6, "Laplacian: ADMM not statistically worse, EM-LP slower"):
        pairs = []
        for k in DESK_K:
            for d in DESK_D:
                for rep in range(DESK_REPS):
                    pairs.append(run_desk_pair(LAPLACE, k, d, rep, lad_path="lp"))
        error_diffs = np.array([p["admm_error"] - p["em_error"] for p in pairs])
        verdict = scoring.paired_t_test(error_diffs)
        assert not verdict.significant, (
            "ADMM significantly worse than EM",
            verdict,
            error_diffs.mean(),
        )
        time_diffs = np.array([p["em_seconds"] - p["admm_seconds"] for p in pairs])
        assert time_diffs.mean() > 0.0


def test_criterion_7_assignment_oracle():
    with criterion(7, "assignment solver equals brute force on K <= 8"):
        rng = np.random.default_rng(7007)
        for trial in range(100):
            k = int(rng.integers(2, 9))
            cost = rng.uniform(0.0, 10.0, (k, k))
            rows, cols = scipy.optimize.linear_sum_assignment(cost)
            solved = float(cost[rows, cols].sum())
            _, best = brute_force_assignment(cost)
            assert solved == best
        # the same backend drives recovery_error; rebuild its cost matrix
        est = MlrParams(rng.standard_normal((3, 6)))
        truth = MlrParams(rng.standard_normal((3, 6)))
        diff = truth.beta.T[:, None, :] - est.beta.T[None, :, :]
        cost = np.sqrt((diff * diff).sum(axis=2))
        _, best = brute_force_assignment(cost)
        assert scoring.recovery_error(est, truth).error == best


def _read(path):
    with open(path, "r") as handle:
        return handle.read()


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "CLI reruns are byte-identical outside clock readings"):
        gen = ["generate", "--k", "2", "--d", "1", "--n", "120", "--noise",
               "laplacian", "--sigma", "1", "--seed", "5"]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert cli_main([*gen, "--out", str(a)]) == 0
        assert cli_main([*gen, "--out", str(b)]) == 0
        assert _read(a) == _read(b)

        fit = ["fit", "--algo", "admm", "--noise", "laplacian", "--k", "2",
               "--iters", "12", "--seed", "5", "--data", str(a)]
        fa, fb = tmp_path / "fit_a.txt", tmp_path / "fit_b.txt"
        assert cli_main([*fit, "--out", str(fa)]) == 0
        assert cli_main([*fit, "--out", str(fb)]) == 0
        norm_a = strip_clock_lines(_read(fa)).replace("fit_a.txt", "X")
        norm_b = strip_clock_lines(_read(fb)).replace("fit_b.txt", "X")
        assert norm_a == norm_b
        manifests = [
            strip_clock_lines(_read(tmp_path / name)).replace(stem, "X")
            for name, stem in (("fit_a.txt.manifest.txt", "fit_a.txt"),
                               ("fit_b.txt.manifest.txt", "fit_b.txt"))
        ]
        assert manifests[0] == manifests[1]

        config = tmp_path / "grid.cfg"
        config.write_text(
            "k_values = 2\nd_values = 1\nn_samples = 120\nrepetitions = 2\n"
            "n_iterations = 8\nnoise_kinds = gaussian,laplacian\nbase_seed = 3\n"
        )
        d1, d2 = tmp_path / "bench1", tmp_path / "bench2"
        assert cli_main(["benchmark", "--config", str(config), "--out-dir", str(d1)]) == 0
        assert cli_main(["benchmark", "--config", str(config), "--out-dir", str(d2)]) == 0

        def stable_cells(path):
            rows = _read(path / "cells.csv").splitlines()
            keep = [i for i, name in enumerate(rows[0].split(","))
                    if "seconds" not in name]
            return [tuple(np.array(r.split(","))[keep]) for r in rows]

        assert stable_cells(d1) == stable_cells(d2)
        for name in ("summary.csv", "summary_gaussian.txt", "summary_laplacian.txt",
                     "ttest_error_gaussian.txt", "ttest_error_laplacian.txt"):
            assert _read(d1 / name) == _read(d2 / name)

        r1, r2 = tmp_path / "rep1", tmp_path / "rep2"
        for target in (r1, r2):
            assert cli_main(["report", "--cells", str(d1 / "cells.csv"),
                             "--out-dir", str(target)]) == 0
        for name in ("summary.csv", "timing_hist_gaussian.csv",
                     "ttest_error_laplacian.txt"):
            assert _read(r1 / name) == _read(r2 / name)

        s1, s2 = tmp_path / "h1.svg", tmp_path / "h2.svg"
        hist = str(d1 / "timing_hist_laplacian.csv")
        assert cli_main(["plot", "--hist", hist, "--out", str(s1)]) == 0
        assert cli_main(["plot", "--hist", hist, "--out", str(s2)]) == 0
        assert _read(s1) == _read(s2)
