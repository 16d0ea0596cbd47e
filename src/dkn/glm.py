r"""Exponential-family responses and the penalized per-block solver.

Densities have the canonical form exp{y*eta - psi(eta)} up to a factor
free of eta, so the negative log-likelihood of a linear predictor eta is
sum_i psi(eta_i) - y_i * eta_i.  For the gaussian family this drops the
constant -sum(y^2)/2, which cancels in every comparison the package makes
(sweep monotonicity, BIC deltas), so nll values are only meaningful
relative to one another within a fixed response vector.

``fit_glm`` solves one ridge-penalized block subproblem: a closed-form
normal-equations solve for gaussian, damped iteratively reweighted least
squares for bernoulli.  IRLS may be warm-started from a caller's ``beta0``
(the alternating sweep hands in the layer's previous factors); it starts
there only when that lowers the penalized objective below its value at
zero.  Bernoulli linear predictors are clamped to [-30, 30] before
exponentiation; beyond that range the sigmoid is flat to double precision
anyway.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionError, RankDeficiencyError

__all__ = [
    "GlmFamily",
    "GAUSSIAN",
    "BERNOULLI",
    "get_family",
    "nll",
    "nll_eta",
    "nll_grad",
    "fit_glm",
    "default_ridge",
]

ETA_CLAMP = 30.0

IRLS_MAX_ITER = 100
IRLS_GRAD_TOL = 1e-8
MAX_HALVINGS = 40


class GlmFamily:
    """Cumulant function and its derivatives for one response family."""

    name = "base"

    def psi(self, eta):
        raise NotImplementedError

    def mean(self, eta):
        """psi'(eta), the conditional mean of y given eta."""
        raise NotImplementedError

    def variance(self, eta):
        """psi''(eta), the conditional variance of y given eta."""
        raise NotImplementedError

    def validate_response(self, y):
        return np.asarray(y, dtype=np.float64)

    def __repr__(self):
        return f"GlmFamily({self.name})"


class _Gaussian(GlmFamily):
    name = "gaussian"

    def psi(self, eta):
        return 0.5 * np.square(eta)

    def mean(self, eta):
        return np.asarray(eta, dtype=np.float64)

    def variance(self, eta):
        return np.ones_like(np.asarray(eta, dtype=np.float64))


class _Bernoulli(GlmFamily):
    name = "bernoulli"

    def psi(self, eta):
        return np.logaddexp(0.0, np.clip(eta, -ETA_CLAMP, ETA_CLAMP))

    def mean(self, eta):
        z = np.clip(eta, -ETA_CLAMP, ETA_CLAMP)
        return 1.0 / (1.0 + np.exp(-z))

    def variance(self, eta):
        m = self.mean(eta)
        return m * (1.0 - m)

    def validate_response(self, y):
        y = np.asarray(y, dtype=np.float64)
        if not np.all((y == 0.0) | (y == 1.0)):
            raise DimensionError("bernoulli responses must be 0/1")
        return y


GAUSSIAN = _Gaussian()
BERNOULLI = _Bernoulli()
_FAMILIES = {f.name: f for f in (GAUSSIAN, BERNOULLI)}


def get_family(name):
    if isinstance(name, GlmFamily):
        return name
    try:
        return _FAMILIES[name]
    except KeyError:
        raise DimensionError(f"unknown family {name!r}; choose from {sorted(_FAMILIES)}") from None


def _nll(family, eta, y):
    return float(np.sum(family.psi(eta) - y * eta))


def nll_eta(family, eta, y):
    """Negative log-likelihood sum(psi(eta) - y*eta) for a given predictor."""
    family = get_family(family)
    eta = np.asarray(eta, dtype=np.float64)
    y = family.validate_response(y)
    if eta.shape != y.shape:
        raise DimensionError(f"predictor/response length mismatch: {eta.shape} vs {y.shape}")
    return _nll(family, eta, y)


def nll(family, design, beta, y):
    """Negative log-likelihood of the linear model design @ beta."""
    design = np.asarray(design, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    return nll_eta(family, design @ beta, y)


def nll_grad(family, design, beta, y):
    """Gradient of :func:`nll` in beta: design.T @ (mean(eta) - y)."""
    family = get_family(family)
    design = np.asarray(design, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    y = family.validate_response(y)
    return design.T @ (family.mean(design @ beta) - y)


def default_ridge(design):
    """Data-scaled default penalty: 1e-8 * trace(D^T D) / n_columns."""
    design = np.asarray(design, dtype=np.float64)
    m = design.shape[1]
    if m == 0:
        return 0.0
    return 1e-8 * float(np.sum(design * design)) / m


def _solve_spd(a, rhs, context):
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise RankDeficiencyError(
            f"{context}: normal equations are singular; retry with a positive ridge"
        ) from None
    return np.linalg.solve(a, rhs)


def fit_glm(family, design, y, ridge=None, return_info=False, beta0=None):
    """Minimize nll(beta) + ridge/2 * |beta|^2 for one design matrix.

    Parameters
    ----------
    family : GlmFamily or str
        "gaussian" solves the normal equations in closed form; "bernoulli"
        runs damped IRLS (step halving on the penalized objective, at most
        100 iterations, stopping when the gradient max-norm falls below
        1e-8 * (1 + |objective|)).
    ridge : float or None
        None selects :func:`default_ridge`.  An explicit 0.0 is honored;
        singular normal equations then raise RankDeficiencyError.
    return_info : bool
        Also return a dict with the objective trace and iteration count.
    beta0 : array-like or None
        Starting point for IRLS, one finite entry per design column.  IRLS
        starts from ``beta0`` only when its penalized objective is strictly
        lower than at beta = 0, and from zero otherwise, so a poor start
        gives the cold solve exactly.  The gaussian closed form ignores it.

    Returns
    -------
    beta : ndarray, or (beta, info) when return_info is set.
    """
    family = get_family(family)
    design = np.asarray(design, dtype=np.float64)
    if design.ndim != 2:
        raise DimensionError(f"design must be a matrix, got order {design.ndim}")
    y = family.validate_response(y)
    if y.shape != (design.shape[0],):
        raise DimensionError(
            f"response length {y.shape} does not match {design.shape[0]} design rows"
        )
    lam = default_ridge(design) if ridge is None else float(ridge)
    if lam < 0:
        raise DimensionError(f"ridge must be nonnegative, got {lam}")

    m = design.shape[1]
    if beta0 is not None:
        beta0 = np.asarray(beta0, dtype=np.float64)
        if beta0.shape != (m,):
            raise DimensionError(f"beta0 has shape {beta0.shape}, expected ({m},) for {m} columns")
        bad = np.flatnonzero(~np.isfinite(beta0))
        if bad.size:
            raise DimensionError(f"beta0 entry {bad[0]} is not finite")
    eye = np.eye(m)

    if family.name == "gaussian":
        gram = design.T @ design + lam * eye
        beta = _solve_spd(gram, design.T @ y, "gaussian solve")
        if return_info:
            obj = nll(family, design, beta, y) + 0.5 * lam * float(beta @ beta)
            return beta, {"iterations": 1, "objective_trace": [obj], "converged": True}
        return beta

    # IRLS for bernoulli; y was validated above, so the loop skips the check.
    def penalized(b):
        """The penalized objective at b, and its linear predictor."""
        eta = design @ b
        return _nll(family, eta, y) + 0.5 * lam * float(b @ b), eta

    beta = np.zeros(m)
    obj, eta = penalized(beta)
    if beta0 is not None:
        warm_obj, warm_eta = penalized(beta0)
        if warm_obj < obj:
            beta, obj, eta = beta0.copy(), warm_obj, warm_eta
    trace = [obj]
    converged = False
    for _ in range(IRLS_MAX_ITER):
        mu = family.mean(eta)
        grad = design.T @ (mu - y) + lam * beta
        if np.max(np.abs(grad)) <= IRLS_GRAD_TOL * (1.0 + abs(obj)):
            converged = True
            break
        w = mu * (1.0 - mu)  # the bernoulli variance psi''(eta), from the same mean
        hess = design.T @ (design * w[:, None]) + lam * eye
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            raise RankDeficiencyError("IRLS: singular weighted normal equations") from None
        alpha = 1.0
        for _ in range(MAX_HALVINGS):
            cand = beta + alpha * step
            cand_obj, cand_eta = penalized(cand)
            if cand_obj <= obj:
                break
            alpha *= 0.5
        else:
            # No descent along the Newton direction: accept convergence only
            # if the gradient is already tiny, otherwise treat as failure.
            raise ConvergenceError("IRLS: step halving failed to find descent", beta)
        beta, obj, eta = cand, cand_obj, cand_eta
        trace.append(obj)
    else:
        grad = design.T @ (family.mean(eta) - y) + lam * beta
        if np.max(np.abs(grad)) <= IRLS_GRAD_TOL * (1.0 + abs(obj)):
            converged = True
        else:
            raise ConvergenceError(
                f"IRLS did not converge in {IRLS_MAX_ITER} iterations", beta
            )
    if return_info:
        return beta, {"iterations": len(trace) - 1, "objective_trace": trace, "converged": converged}
    return beta
