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
zero.  The bernoulli cumulant psi(eta) = log(1 + e^eta) is evaluated
exactly, as ``np.logaddexp(0, eta)``, which cannot overflow; only its mean
clamps eta to [-30, 30] before exponentiation, where the sigmoid is flat
to double precision anyway.  So the nll that IRLS step halving tests keeps
falling with |eta| beyond the clamp, as its gradient does.

Both solves run in one private core, ``_solve``, which checks nothing.
``fit_glm`` checks its inputs on every call; the alternating sweep
(``dkn_fit._solve_layer``) calls the core directly, as its fit has checked
the response once and takes each warm start from its own factors.  IRLS
sums its objective elementwise, sum(psi(eta) - y*eta), never as
sum(psi(eta)) - y @ eta: near separation |eta| runs to 40 and more, where
both sums are about n*|eta| while their difference, the objective, is near
zero, so the difference of the sums is rounding noise, and step halving
compares such values.  A solve that IRLS would fail, at its iteration cap
or for want of descent, returns instead when it has stalled at its
optimum on data it does not separate.  The stop is tested only where IRLS
would raise, so a solve that the gradient test ends keeps its bits.
"""

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
STALL_ULPS = 4.0


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
        return np.logaddexp(0.0, eta)

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


def nll_eta(family, eta, y):
    """Negative log-likelihood sum(psi(eta) - y*eta) for a given predictor."""
    family = get_family(family)
    eta = np.asarray(eta, dtype=np.float64)
    y = family.validate_response(y)
    if eta.shape != y.shape:
        raise DimensionError(f"predictor/response length mismatch: {eta.shape} vs {y.shape}")
    return float(np.sum(family.psi(eta) - y * eta))


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


def _check(design, y, beta0):
    """Raise a DimensionError unless ``design`` is a matrix with one row per
    entry of the response ``y`` and ``beta0`` is None or one finite entry
    per column."""
    if design.ndim != 2:
        raise DimensionError(f"design must be a matrix, got order {design.ndim}")
    if y.shape != (design.shape[0],):
        raise DimensionError(
            f"response length {y.shape} does not match {design.shape[0]} design rows"
        )
    m = design.shape[1]
    if beta0 is not None:
        if beta0.shape != (m,):
            raise DimensionError(f"beta0 has shape {beta0.shape}, expected ({m},) for {m} columns")
        bad = np.flatnonzero(~np.isfinite(beta0))
        if bad.size:
            raise DimensionError(f"beta0 entry {bad[0]} is not finite")


def _ridge(design, ridge):
    """The penalty of one solve: ``ridge``, or :func:`default_ridge` of the
    design when None; finite and nonnegative."""
    lam = default_ridge(design) if ridge is None else float(ridge)
    if not 0 <= lam < np.inf:
        raise DimensionError(f"ridge must be finite and nonnegative, got {lam}")
    return lam


def fit_glm(family, design, y, ridge=None, return_info=False, beta0=None):
    """Minimize nll(beta) + ridge/2 * |beta|^2 for one design matrix.

    Parameters
    ----------
    family : GlmFamily or str
        "gaussian" solves the normal equations in closed form; "bernoulli"
        runs damped IRLS (step halving on the penalized objective, at most
        100 iterations, stopping when the gradient max-norm falls below
        1e-8 * (1 + |objective|)).  Where IRLS would raise, at the
        iteration cap or when step halving finds no descent, it returns its
        iterate instead if it has stalled at its optimum: the decrease the
        Newton step predicts is within rounding of the objective and the
        data are not separated (``_stalled``).
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
    y = family.validate_response(y)
    beta0 = None if beta0 is None else np.asarray(beta0, dtype=np.float64)
    _check(design, y, beta0)
    lam = _ridge(design, ridge)
    beta, trace = _solve(family, design, y, lam, beta0)
    if not return_info:
        return beta
    if trace is None:  # the gaussian closed form: one step, whose objective is computed here
        obj = nll(family, design, beta, y) + 0.5 * lam * float(beta @ beta)
        return beta, {"iterations": 1, "objective_trace": [obj], "converged": True}
    return beta, {"iterations": len(trace) - 1, "objective_trace": trace, "converged": True}


def _stalled(grad, step, eta, y):
    """Whether IRLS stands at its optimum to rounding on data it does not
    separate: the Newton decrement -grad @ step / 2, the decrease the step
    predicts, is at most STALL_ULPS * eps * (1 + sum |psi(eta_i)| +
    sum |y_i eta_i|), a few roundings of the objective's terms, and some
    row is misclassified, (2 y_i - 1) eta_i <= 0.  On a design of large
    scale the gradient test can fail at such a point, where step halving
    finds no decrease the objective can show and creeps to the iteration
    cap.  Separated data have no such optimum: the objective falls towards
    0 as |eta| grows, and their failures stand."""
    decrement = -0.5 * float(grad @ step)
    scale = 1.0 + float(np.logaddexp(0.0, eta).sum()) + float(np.abs(y * eta).sum())
    if decrement > STALL_ULPS * np.finfo(np.float64).eps * scale:
        return False
    return bool(np.any((2.0 * y - 1.0) * eta <= 0.0))  # a misclassified row


def _solve(family, design, y, lam, beta0):
    """The solve of :func:`fit_glm` at checked inputs: a float64 ``design``
    matrix, a valid response with one entry per row, the penalty ``lam``
    and ``beta0`` (None, or one finite entry per column).  Returns beta and
    the IRLS objective trace, None for the gaussian closed form.

    IRLS makes the same operations as the plain expressions
    (``family.mean``, ``design.T @ (design * w) + lam * I`` and
    sum(psi(eta) - y*eta)) in the same order, so it gives their bits; it
    only writes into buffers of the solve and adds the ridge to the
    Hessian's diagonal alone.  The objective at zero is n copies of log 2
    summed, with no pass over the design."""
    n, m = design.shape
    if family.name == "gaussian":
        gram = design.T @ design
        gram.reshape(-1)[:: m + 1] += lam
        return _solve_spd(gram, design.T @ y, "gaussian solve"), None

    psi, ye = np.empty(n), np.empty(n)

    def penalized(eta, b):
        """The penalized objective at b, whose linear predictor is eta."""
        np.subtract(np.logaddexp(0.0, eta, out=psi), np.multiply(y, eta, out=ye), out=psi)
        return float(psi.sum()) + 0.5 * lam * float(b @ b)

    beta, eta = np.zeros(m), np.zeros(n)
    obj = float(np.full(n, np.logaddexp(0.0, 0.0)).sum())
    if beta0 is not None:
        warm_eta = design @ beta0
        warm_obj = penalized(warm_eta, beta0)
        if warm_obj < obj:
            beta, obj, eta = beta0.copy(), warm_obj, warm_eta
    trace = [obj]
    mu, res, w, dw = np.empty(n), np.empty(n), np.empty(n), np.empty_like(design)
    for it in range(IRLS_MAX_ITER + 1):
        # family.mean(eta): z = eta clamped to [-ETA_CLAMP, ETA_CLAMP], then 1 / (1 + e^-z)
        np.clip(eta, -ETA_CLAMP, ETA_CLAMP, out=mu)
        np.exp(np.negative(mu, out=mu), out=mu)
        mu += 1.0
        np.divide(1.0, mu, out=mu)
        grad = design.T @ np.subtract(mu, y, out=res)
        grad += lam * beta
        if np.abs(grad).max() <= IRLS_GRAD_TOL * (1.0 + abs(obj)):
            return beta, trace
        np.subtract(1.0, mu, out=w)
        w *= mu  # the bernoulli variance psi''(eta), from the same mean
        hess = design.T @ np.multiply(design, w[:, None], out=dw)
        hess.reshape(-1)[:: m + 1] += lam
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            raise RankDeficiencyError("IRLS: singular weighted normal equations") from None
        if it == IRLS_MAX_ITER:
            if _stalled(grad, step, eta, y):
                return beta, trace
            raise ConvergenceError(f"IRLS did not converge in {IRLS_MAX_ITER} iterations", beta)
        alpha = 1.0
        for _ in range(MAX_HALVINGS):
            cand = beta + alpha * step
            cand_eta = design @ cand
            cand_obj = penalized(cand_eta, cand)
            if cand_obj <= obj:
                break
            alpha *= 0.5
        else:
            # No descent along the Newton direction, at a gradient that is
            # not yet tiny (it was tested above): a failure, unless IRLS
            # has stalled at its optimum.
            if _stalled(grad, step, eta, y):
                return beta, trace
            raise ConvergenceError("IRLS: step halving failed to find descent", beta)
        beta, obj, eta = cand, cand_obj, cand_eta
        trace.append(obj)
