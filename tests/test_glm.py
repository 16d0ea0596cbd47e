import numpy as np
import pytest
from numpy.testing import assert_allclose

import dkn.glm as glm
from dkn.errors import ConvergenceError, DimensionError, RankDeficiencyError
from dkn.glm import (
    BERNOULLI,
    GAUSSIAN,
    default_ridge,
    fit_glm,
    get_family,
    nll,
    nll_eta,
    nll_grad,
)


def central_diff_grad(family, design, beta, y, h=1e-6):
    g = np.zeros_like(beta)
    for j in range(beta.size):
        up, dn = beta.copy(), beta.copy()
        up[j] += h
        dn[j] -= h
        g[j] = (nll(family, design, up, y) - nll(family, design, dn, y)) / (2 * h)
    return g


def logistic_data(rng, n=40, m=3):
    design = rng.standard_normal((n, m))
    truth = rng.standard_normal(m)
    prob = 1.0 / (1.0 + np.exp(-design @ truth))
    y = (rng.random(n) < prob).astype(np.float64)
    return design, y


def test_gaussian_nll_formula():
    rng = np.random.default_rng(0)
    eta = rng.standard_normal(20)
    y = rng.standard_normal(20)
    assert_allclose(nll_eta(GAUSSIAN, eta, y), np.sum(0.5 * eta**2 - y * eta), rtol=1e-13)


def test_bernoulli_nll_formula():
    rng = np.random.default_rng(1)
    eta = rng.standard_normal(20)
    y = (rng.random(20) < 0.5).astype(np.float64)
    want = np.sum(np.log1p(np.exp(eta)) - y * eta)
    assert_allclose(nll_eta(BERNOULLI, eta, y), want, rtol=1e-12)


def test_nll_composes_linear_predictor():
    rng = np.random.default_rng(2)
    design = rng.standard_normal((15, 4))
    beta = rng.standard_normal(4)
    y = rng.standard_normal(15)
    assert nll(GAUSSIAN, design, beta, y) == nll_eta(GAUSSIAN, design @ beta, y)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(3)
    for family in (GAUSSIAN, BERNOULLI):
        for _ in range(10):
            n, m = int(rng.integers(10, 40)), int(rng.integers(1, 6))
            design = rng.standard_normal((n, m))
            beta = rng.standard_normal(m)
            if family.name == "gaussian":
                y = rng.standard_normal(n)
            else:
                y = (rng.random(n) < 0.5).astype(np.float64)
            got = nll_grad(family, design, beta, y)
            want = central_diff_grad(family, design, beta, y)
            assert_allclose(got, want, rtol=1e-6, atol=1e-7)


def test_gaussian_gradient_closed_form():
    rng = np.random.default_rng(4)
    design = rng.standard_normal((12, 3))
    beta = rng.standard_normal(3)
    y = rng.standard_normal(12)
    assert_allclose(
        nll_grad(GAUSSIAN, design, beta, y), design.T @ (design @ beta - y), rtol=1e-13
    )


def test_bernoulli_mean_and_variance():
    eta = np.array([-2.0, 0.0, 3.0])
    m = BERNOULLI.mean(eta)
    assert_allclose(m, 1.0 / (1.0 + np.exp(-eta)), rtol=1e-14)
    assert_allclose(BERNOULLI.variance(eta), m * (1.0 - m), rtol=1e-14)


def test_bernoulli_saturates_beyond_clamp():
    assert BERNOULLI.mean(np.array([1e6]))[0] == BERNOULLI.mean(np.array([30.0]))[0]
    big = nll_eta(BERNOULLI, np.array([1e8, -1e8]), np.array([1.0, 0.0]))
    assert np.isfinite(big)


def test_response_validation():
    with pytest.raises(DimensionError):
        nll_eta(BERNOULLI, np.zeros(3), np.array([0.0, 0.5, 1.0]))
    with pytest.raises(DimensionError):
        nll_eta(GAUSSIAN, np.zeros(3), np.zeros(4))
    with pytest.raises(DimensionError):
        fit_glm(GAUSSIAN, np.zeros((4, 2)), np.zeros(5))


def test_get_family():
    assert get_family("gaussian") is GAUSSIAN
    assert get_family(BERNOULLI) is BERNOULLI
    with pytest.raises(DimensionError):
        get_family("poisson")


def test_default_ridge_formula():
    rng = np.random.default_rng(5)
    design = rng.standard_normal((10, 4))
    assert default_ridge(design) == 1e-8 * np.sum(design * design) / 4
    assert default_ridge(np.zeros((10, 0))) == 0.0


def test_gaussian_fit_matches_normal_equations():
    rng = np.random.default_rng(6)
    design = rng.standard_normal((30, 5))
    y = rng.standard_normal(30)
    lam = 0.37
    got = fit_glm(GAUSSIAN, design, y, ridge=lam)
    want = np.linalg.solve(design.T @ design + lam * np.eye(5), design.T @ y)
    assert_allclose(got, want, rtol=1e-12)


def test_gaussian_fit_uses_default_ridge_when_none():
    rng = np.random.default_rng(7)
    design = rng.standard_normal((30, 5))
    y = rng.standard_normal(30)
    got = fit_glm(GAUSSIAN, design, y)
    want = fit_glm(GAUSSIAN, design, y, ridge=default_ridge(design))
    assert np.array_equal(got, want)


def test_gaussian_exact_recovery_without_ridge():
    rng = np.random.default_rng(8)
    design = rng.standard_normal((40, 6))
    truth = rng.standard_normal(6)
    got = fit_glm(GAUSSIAN, design, design @ truth, ridge=0.0)
    assert_allclose(got, truth, rtol=1e-10)


def test_singular_design_raises_without_ridge():
    rng = np.random.default_rng(9)
    col = rng.standard_normal((20, 1))
    design = np.hstack([col, col])
    y = rng.standard_normal(20)
    with pytest.raises(RankDeficiencyError):
        fit_glm(GAUSSIAN, design, y, ridge=0.0)
    beta = fit_glm(GAUSSIAN, design, y)  # default ridge regularizes it
    assert np.all(np.isfinite(beta))
    with pytest.raises(DimensionError):
        fit_glm(GAUSSIAN, design, y, ridge=-1.0)


def test_bernoulli_fit_single_feature_grid_oracle():
    """IRLS lands on the grid-searched minimizer of the penalized objective."""
    rng = np.random.default_rng(10)
    x = rng.standard_normal(60)
    y = (rng.random(60) < 1.0 / (1.0 + np.exp(-1.3 * x))).astype(np.float64)
    design = x[:, None]
    lam = 1e-3
    grid = np.arange(-8.0, 8.0, 1e-4)
    etas = x[:, None] * grid[None, :]
    objs = np.sum(np.logaddexp(0.0, etas) - y[:, None] * etas, axis=0)
    objs += 0.5 * lam * grid**2
    best = grid[np.argmin(objs)]

    beta = fit_glm(BERNOULLI, design, y, ridge=lam)
    fitted_obj = nll(BERNOULLI, design, beta, y) + 0.5 * lam * float(beta @ beta)
    assert abs(beta[0] - best) <= 1e-3
    assert fitted_obj <= objs.min() + 1e-8


def test_irls_trace_is_monotone():
    rng = np.random.default_rng(11)
    design, y = logistic_data(rng)
    beta, info = fit_glm(BERNOULLI, design, y, ridge=1e-4, return_info=True)
    trace = info["objective_trace"]
    assert info["converged"]
    assert info["iterations"] == len(trace) - 1
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


def test_irls_gradient_small_at_solution():
    rng = np.random.default_rng(12)
    design, y = logistic_data(rng)
    lam = 1e-4
    beta, info = fit_glm(BERNOULLI, design, y, ridge=lam, return_info=True)
    grad = nll_grad(BERNOULLI, design, beta, y) + lam * beta
    assert np.max(np.abs(grad)) <= 1e-8 * (1.0 + abs(info["objective_trace"][-1]))


def test_gaussian_return_info():
    rng = np.random.default_rng(13)
    design = rng.standard_normal((10, 2))
    y = rng.standard_normal(10)
    beta, info = fit_glm(GAUSSIAN, design, y, ridge=0.1, return_info=True)
    assert info["converged"] and info["iterations"] == 1
    want = nll(GAUSSIAN, design, beta, y) + 0.05 * float(beta @ beta)
    assert_allclose(info["objective_trace"], [want], rtol=1e-13)


def test_separable_data_stays_finite_with_ridge():
    x = np.linspace(-2, 2, 30)
    y = (x > 0).astype(np.float64)
    beta, info = fit_glm(BERNOULLI, x[:, None], y, ridge=1e-2, return_info=True)
    assert info["converged"]
    assert np.isfinite(beta[0])
    assert beta[0] > 0


def test_irls_iteration_cap(monkeypatch):
    monkeypatch.setattr(glm, "IRLS_MAX_ITER", 1)
    rng = np.random.default_rng(14)
    design, y = logistic_data(rng, n=80, m=4)
    with pytest.raises(ConvergenceError) as err:
        fit_glm(BERNOULLI, design, y, ridge=1e-6)
    assert err.value.last_iterate is not None
    assert err.value.last_iterate.shape == (4,)


def penalized_objective(design, beta, y, lam):
    return nll(BERNOULLI, design, beta, y) + 0.5 * lam * float(beta @ beta)


def test_warm_start_reaches_the_cold_minimizer():
    """IRLS started near the cold solve's minimizer lands on it, within the
    gradient tolerance, in no more iterations than the cold solve."""
    rng = np.random.default_rng(15)
    design, y = logistic_data(rng, n=200, m=6)
    lam = 1e-3
    cold, cold_info = fit_glm(BERNOULLI, design, y, ridge=lam, return_info=True)
    beta0 = cold + 0.05 * rng.standard_normal(cold.size)
    warm, info = fit_glm(BERNOULLI, design, y, ridge=lam, return_info=True, beta0=beta0)
    assert info["objective_trace"][0] == penalized_objective(design, beta0, y, lam)
    assert info["converged"] and 0 < info["iterations"] <= cold_info["iterations"]
    obj = info["objective_trace"][-1]
    grad = nll_grad(BERNOULLI, design, warm, y) + lam * warm
    assert np.max(np.abs(grad)) <= glm.IRLS_GRAD_TOL * (1.0 + abs(obj))
    assert_allclose(warm, cold, rtol=1e-7, atol=1e-9)
    assert abs(obj - cold_info["objective_trace"][-1]) <= glm.IRLS_GRAD_TOL * (1.0 + abs(obj))


def test_warm_start_worse_than_zero_is_the_cold_solve():
    rng = np.random.default_rng(16)
    design, y = logistic_data(rng, n=100, m=4)
    lam = 1e-3
    cold, cold_info = fit_glm(BERNOULLI, design, y, ridge=lam, return_info=True)
    beta0 = -10.0 * cold
    zero = np.zeros_like(cold)
    assert penalized_objective(design, beta0, y, lam) > penalized_objective(design, zero, y, lam)
    warm, info = fit_glm(BERNOULLI, design, y, ridge=lam, return_info=True, beta0=beta0)
    assert np.array_equal(warm, cold)
    assert info == cold_info


def test_warm_start_validation():
    rng = np.random.default_rng(17)
    design, y = logistic_data(rng)
    with pytest.raises(DimensionError, match=r"beta0 has shape \(2,\), expected \(3,\)"):
        fit_glm(BERNOULLI, design, y, beta0=np.zeros(2))
    with pytest.raises(DimensionError, match="beta0 entry 1 is not finite"):
        fit_glm(BERNOULLI, design, y, beta0=np.array([0.0, np.nan, 0.0]))
    with pytest.raises(DimensionError, match="beta0 entry 2 is not finite"):
        fit_glm(GAUSSIAN, design, y, beta0=np.array([0.0, 1.0, np.inf]))


def test_gaussian_ignores_warm_start():
    rng = np.random.default_rng(18)
    design = rng.standard_normal((30, 4))
    y = rng.standard_normal(30)
    want, want_info = fit_glm(GAUSSIAN, design, y, ridge=0.1, return_info=True)
    got, info = fit_glm(GAUSSIAN, design, y, ridge=0.1, return_info=True, beta0=want + 1.0)
    assert np.array_equal(got, want)
    assert info == want_info
