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


def test_bernoulli_nll_is_exact_beyond_clamp():
    """Only the mean clamps eta: the nll of a correctly classified sample
    stays log(1 + e^-|eta|) >= 0 past the clamp, up to the rounding of
    psi(eta) - y * eta, instead of falling without bound with |eta|."""
    for eta in (29.0, 35.0, 100.0, 1e3):
        for y in (1.0, 0.0):
            e = eta if y == 1.0 else -eta
            got = nll_eta(BERNOULLI, np.array([e]), np.array([y]))
            assert abs(got - np.log1p(np.exp(-eta))) <= 4 * np.finfo(float).eps * eta
            wrong = nll_eta(BERNOULLI, np.array([-e]), np.array([y]))
            assert wrong == pytest.approx(eta, rel=1e-12)


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
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(DimensionError, match="ridge"):
            fit_glm(GAUSSIAN, design, y, ridge=bad)


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


def reference_irls(design, y, lam, beta0=None):
    """The oracle for the solver core: ``fit_glm``'s IRLS loop as it was
    written before it kept its buffers, one whole-array expression per step.
    Returns beta and the objective trace, or raises as the loop did."""
    family = BERNOULLI
    eye = np.eye(design.shape[1])

    def penalized(b):
        eta = design @ b
        return float(np.sum(family.psi(eta) - y * eta)) + 0.5 * lam * float(b @ b), eta

    beta = np.zeros(design.shape[1])
    obj, eta = penalized(beta)
    if beta0 is not None:
        warm_obj, warm_eta = penalized(beta0)
        if warm_obj < obj:
            beta, obj, eta = beta0.copy(), warm_obj, warm_eta
    trace = [obj]
    for _ in range(glm.IRLS_MAX_ITER):
        mu = family.mean(eta)
        grad = design.T @ (mu - y) + lam * beta
        if np.max(np.abs(grad)) <= glm.IRLS_GRAD_TOL * (1.0 + abs(obj)):
            return beta, trace
        w = mu * (1.0 - mu)
        hess = design.T @ (design * w[:, None]) + lam * eye
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            raise RankDeficiencyError("IRLS: singular weighted normal equations") from None
        alpha = 1.0
        for _ in range(glm.MAX_HALVINGS):
            cand = beta + alpha * step
            cand_obj, cand_eta = penalized(cand)
            if cand_obj <= obj:
                break
            alpha *= 0.5
        else:
            raise ConvergenceError("IRLS: step halving failed to find descent", beta)
        beta, obj, eta = cand, cand_obj, cand_eta
        trace.append(obj)
    grad = design.T @ (family.mean(eta) - y) + lam * beta
    if np.max(np.abs(grad)) <= glm.IRLS_GRAD_TOL * (1.0 + abs(obj)):
        return beta, trace
    raise ConvergenceError(f"IRLS did not converge in {glm.IRLS_MAX_ITER} iterations", beta)


def solve_outcome(solve):
    """What a solve returns, as bytes, or the error it raises with its last
    iterate: (beta, trace, iterations) or (type, message, last_iterate)."""
    try:
        beta, trace = solve()
    except (ConvergenceError, RankDeficiencyError) as err:
        last = getattr(err, "last_iterate", None)
        return type(err), str(err), None if last is None else last.tobytes()
    return beta.tobytes(), np.array(trace).tobytes(), len(trace) - 1


def assert_bits_of_reference_irls(design, y, lam, beta0=None):
    """``fit_glm`` and ``glm._solve`` give the oracle's beta, objective
    trace and iteration count bit for bit, or raise its error at the same
    last iterate; returns the oracle's outcome."""
    want = solve_outcome(lambda: reference_irls(design, y, lam, beta0))

    def public():
        beta, info = fit_glm(BERNOULLI, design, y, ridge=lam, return_info=True, beta0=beta0)
        assert info["iterations"] == len(info["objective_trace"]) - 1 and info["converged"]
        return beta, info["objective_trace"]

    assert solve_outcome(public) == want
    assert solve_outcome(lambda: glm._solve(BERNOULLI, design, y, lam, beta0)) == want
    return want


def separable_data(rng, n):
    """Two columns whose labels a margin separates: with a small ridge the
    solution's |eta| runs past the mean's clamp at 30."""
    design = rng.standard_normal((n, 2))
    margin = design @ np.array([1.0, -0.5])
    design[:, 0] += np.sign(margin)
    return design, (margin > 0).astype(np.float64)


@pytest.mark.parametrize("order", ["C", "F"])
def test_irls_core_is_the_reference_loop_bit_for_bit(order, monkeypatch):
    """Cold and warm starts (one worse than zero), a near-separable design
    and an iteration cap of 1, for a row-major design and for a
    column-major one such as the sweep's layer designs."""
    rng = np.random.default_rng(19)
    design, y = logistic_data(rng, n=300, m=6)
    design = np.asarray(design, order=order)
    lam = 1e-3
    cold = assert_bits_of_reference_irls(design, y, lam)
    beta = np.frombuffer(cold[0])
    assert cold[2] > 2
    warm = assert_bits_of_reference_irls(design, y, lam, beta + 0.05 * rng.standard_normal(6))
    assert 0 < warm[2] < cold[2]
    assert assert_bits_of_reference_irls(design, y, lam, -10.0 * beta) == cold

    design, y = separable_data(rng, 200)
    design = np.asarray(design, order=order)
    sep = assert_bits_of_reference_irls(design, y, 1e-10)
    assert np.median(np.abs(design @ np.frombuffer(sep[0]))) > 30.0

    monkeypatch.setattr(glm, "IRLS_MAX_ITER", 1)
    design, y = logistic_data(rng, n=80, m=4)
    design = np.asarray(design, order=order)
    capped = assert_bits_of_reference_irls(design, y, 1e-6)
    assert capped[:2] == (ConvergenceError, "IRLS did not converge in 1 iterations")


def test_irls_core_fails_as_the_reference_loop():
    """A design of entries near 1e11 that separates its 5 rows leaves no
    descent along the Newton step: the error and its last iterate are the
    oracle's.  One near 1e10 whose 30 rows are not separated reaches its
    optimum by iteration 4, where the objective is flat to rounding while
    the gradient test, in design units, cannot pass: the oracle creeps to
    its iteration cap and raises, and the core returns the oracle's last
    iterate instead, stalled at its optimum (``glm._stalled``)."""
    rng = np.random.default_rng(0)
    design = 1e11 * rng.standard_normal((5, 4))
    y = (rng.random(5) < 0.5) * 1.0
    got = assert_bits_of_reference_irls(design, y, 1e-12)
    assert got[:2] == (ConvergenceError, "IRLS: step halving failed to find descent")
    rng = np.random.default_rng(0)
    design = 1e10 * rng.standard_normal((30, 3))
    y = (rng.random(30) < 0.5) * 1.0
    want = solve_outcome(lambda: reference_irls(design, y, 1e-12))
    assert want[:2] == (ConvergenceError, "IRLS did not converge in 100 iterations")
    beta, info = fit_glm(BERNOULLI, design, y, ridge=1e-12, return_info=True)
    assert solve_outcome(lambda: glm._solve(BERNOULLI, design, y, 1e-12, None)) == (
        beta.tobytes(), np.array(info["objective_trace"]).tobytes(), glm.IRLS_MAX_ITER)
    assert beta.tobytes() == want[2]
    trace = info["objective_trace"]
    assert trace[4:] == [trace[4]] * (glm.IRLS_MAX_ITER - 3)
    assert trace[4] == pytest.approx(19.14092055, rel=1e-9)
    eta = design @ beta
    mu = BERNOULLI.mean(eta)
    grad = design.T @ (mu - y) + 1e-12 * beta
    assert np.max(np.abs(grad)) > glm.IRLS_GRAD_TOL * (1.0 + trace[-1])
    hess = design.T @ (design * (mu * (1.0 - mu))[:, None]) + 1e-12 * np.eye(3)
    assert glm._stalled(grad, np.linalg.solve(hess, -grad), eta, y)
    assert np.sum((2.0 * y - 1.0) * eta <= 0.0) == 13


def test_irls_objective_is_summed_elementwise_past_the_clamp():
    """At |eta| near 40 the objective of a near-separable fit is about 1e-8,
    while sum(psi) and y @ eta are each about 2e4: so the objective IRLS
    reports is sum(psi(eta) - y * eta), bit for bit, and not the difference
    of those two sums, which cancel to within their rounding."""
    rng = np.random.default_rng(20)
    design, y = separable_data(rng, 1000)
    lam = 1e-10
    beta, info = fit_glm(BERNOULLI, design, y, ridge=lam, return_info=True)
    eta = design @ beta
    assert 30.0 < np.median(np.abs(eta)) < 50.0 and np.min(np.abs(eta)) > 15.0
    assert info["objective_trace"][-1] == nll(BERNOULLI, design, beta, y) + 0.5 * lam * float(beta @ beta)
