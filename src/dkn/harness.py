"""Simulation harness: synthetic signals, data generation, baselines.

The protocol is fixed so runs are reproducible end to end: images are iid
standard normal, responses follow the chosen GLM family at the true
coefficient, and every random draw comes from a purpose-tagged stream
derived from the experiment seed (see ``rng``).  Repetition r of an
experiment re-derives its own seed, so any single repetition can be rerun
in isolation and aggregated results never depend on execution order.

Signal shapes are disk indicators on the image grid.  The reference
geometry is stated on a 128 x 128 grid and scaled proportionally to other
sizes: one circle sits at (40, 88) with radius 10, the two-circle variant
at (24, 40) and (72, 88) with radius 8.  ``sparse`` signals are plain
indicators; ``quasi_sparse`` signals draw N(1, 1) inside the support and
N(0.1, 0.1) outside, where the second parameter is the variance.
"""

from dataclasses import asdict, dataclass, field

import numpy as np

from . import rng
from .dkn_fit import (
    DknModel,
    FitOptions,
    auto_structure,
    fit,
    merge_to_depth,
    predict,
)
from .errors import DimensionError
from .glm import get_family
from .tensor_core import _sanitize, as_tensor, fro_norm

__all__ = [
    "SignalSpec",
    "disk_mask",
    "gen_signal",
    "gen_images",
    "gen_responses",
    "rmse_coeff",
    "rmse_pred",
    "accuracy",
    "baseline_ridge",
    "ExperimentConfig",
    "RepetitionResult",
    "run_repetition",
    "run_experiment",
]

_REF_GRID = 128
_ONE_CIRCLE = ((40, 88, 10),)
_TWO_CIRCLES = ((24, 40, 8), (72, 88, 8))


def disk_mask(image_dims, center, radius):
    """Boolean mask of the grid points within ``radius`` of ``center``."""
    if len(image_dims) != 2:
        raise DimensionError("disk signals are defined on 2-d grids")
    d, p = image_dims
    rows = np.arange(d, dtype=np.float64)[:, None]
    cols = np.arange(p, dtype=np.float64)[None, :]
    return (rows - center[0]) ** 2 + (cols - center[1]) ** 2 <= float(radius) ** 2


def _round_half_up(x):
    return int(np.floor(x + 0.5))


def _scaled_circles(image_dims, circles):
    d, p = image_dims
    out = []
    for r0, c0, rad in circles:
        out.append(
            (
                _round_half_up(r0 * d / _REF_GRID),
                _round_half_up(c0 * p / _REF_GRID),
                _round_half_up(rad * min(d, p) / _REF_GRID),
            )
        )
    return out


@dataclass(frozen=True)
class SignalSpec:
    """What the true coefficient looks like.

    ``shape`` is one of "one_circle", "two_circles", or "custom"; custom
    shapes pass their own boolean mask.  ``kind`` is "sparse" (indicator)
    or "quasi_sparse" (noisy values inside and outside the support).
    ``circles`` overrides the scaled default geometry with explicit
    (row, col, radius) triples.
    """

    shape: str = "one_circle"
    kind: str = "sparse"
    circles: tuple = None
    mask: object = None

    def support(self, image_dims):
        if self.shape == "custom":
            if self.mask is None:
                raise DimensionError("custom signals need an explicit mask")
            m = np.asarray(self.mask, dtype=bool)
            if m.shape != tuple(image_dims):
                raise DimensionError(
                    f"mask shape {m.shape} does not match image dims {tuple(image_dims)}"
                )
            return m
        if self.circles is not None:
            circles = self.circles
        elif self.shape == "one_circle":
            circles = _scaled_circles(image_dims, _ONE_CIRCLE)
        elif self.shape == "two_circles":
            circles = _scaled_circles(image_dims, _TWO_CIRCLES)
        else:
            raise DimensionError(f"unknown signal shape {self.shape!r}")
        m = np.zeros(image_dims, dtype=bool)
        for r0, c0, rad in circles:
            m |= disk_mask(image_dims, (r0, c0), rad)
        return m


def gen_signal(spec, image_dims, seed=0):
    """Build the true coefficient as a float image."""
    mask = spec.support(image_dims)
    if spec.kind == "sparse":
        return as_tensor(mask.astype(np.float64))
    if spec.kind == "quasi_sparse":
        g = rng.stream(seed, rng.PURPOSE_SIGNAL)
        inside = g.normal(1.0, 1.0, size=image_dims)
        outside = g.normal(0.1, np.sqrt(0.1), size=image_dims)
        return as_tensor(np.where(mask, inside, outside))
    raise DimensionError(f"unknown signal kind {spec.kind!r}")


def gen_images(n, image_dims, seed=0, purpose=rng.PURPOSE_IMAGES):
    """iid standard normal images, stacked along the first axis."""
    if n < 1:
        raise DimensionError("need at least one image")
    g = rng.stream(seed, purpose)
    return g.standard_normal((n,) + tuple(image_dims))


def gen_responses(images, coeff, family="gaussian", noise_sd=1.0, seed=0,
                  purpose=rng.PURPOSE_RESPONSES):
    """Responses from the GLM at the given coefficient.

    Gaussian: y = <X, C> + noise_sd * eps.  Bernoulli: y ~ Bern(sigmoid(<X, C>)),
    where noise_sd is ignored.
    """
    fam = get_family(family)
    coeff = as_tensor(coeff)
    images = np.asarray(images, dtype=np.float64)
    eta = images.reshape(images.shape[0], -1) @ np.ravel(coeff)
    g = rng.stream(seed, purpose)
    if fam.name == "gaussian":
        return eta + float(noise_sd) * g.standard_normal(eta.shape[0])
    return (g.random(eta.shape[0]) < fam.mean(eta)).astype(np.float64)


def rmse_coeff(estimate, truth):
    """Coefficient error ||Chat - C||_F / sqrt(number of entries)."""
    if isinstance(estimate, DknModel):
        estimate = estimate.coefficient()
    e = as_tensor(estimate)
    t = as_tensor(truth)
    if e.shape != t.shape:
        raise DimensionError(f"shape mismatch {e.shape} vs {t.shape}")
    return fro_norm(e - t) / np.sqrt(e.size)


def rmse_pred(predicted, actual):
    """Root mean squared prediction error."""
    p = np.asarray(predicted, dtype=np.float64).ravel()
    a = np.asarray(actual, dtype=np.float64).ravel()
    if p.shape != a.shape:
        raise DimensionError(f"length mismatch {p.shape} vs {a.shape}")
    return float(np.sqrt(np.mean((p - a) ** 2)))


def accuracy(predicted, actual, threshold=0.5):
    """Classification accuracy of thresholded predictions against 0/1 labels."""
    p = np.asarray(predicted, dtype=np.float64).ravel()
    a = np.asarray(actual, dtype=np.float64).ravel()
    if p.shape != a.shape:
        raise DimensionError(f"length mismatch {p.shape} vs {a.shape}")
    return float(np.mean((p >= threshold) == (a >= threshold)))


def _ridge_solve(xs, y, lam):
    n, m = xs.shape
    if m <= n:
        gram = xs.T @ xs
        return np.linalg.solve(gram + lam * np.eye(m), xs.T @ y)
    # Dual form: beta = X' (XX' + lam I)^-1 y, cheaper when m > n.
    k = xs @ xs.T
    return xs.T @ np.linalg.solve(k + lam * np.eye(n), y)


def baseline_ridge(images, response, lambdas=None, n_folds=5):
    """Vectorized ridge regression with contiguous k-fold CV over lambda.

    The response is centered (the mean acts as an intercept).  When the
    feature count is at most the fold's sample count the primal system is
    solved through a single eigendecomposition reused across the lambda
    grid; otherwise the dual form is solved per lambda.  Returns
    (coefficient image, intercept, chosen lambda).
    """
    images = np.asarray(images, dtype=np.float64)
    if images.ndim < 2:
        raise DimensionError("expected a stack of images")
    n = images.shape[0]
    image_dims = images.shape[1:]
    xs = images.reshape(n, -1)
    y = np.asarray(response, dtype=np.float64).ravel()
    if y.shape[0] != n:
        raise DimensionError("response length does not match image count")
    if lambdas is None:
        lambdas = np.logspace(-4, 4, 17) * max(np.sum(xs * xs) / xs.shape[1], 1e-12)
    lambdas = np.asarray(lambdas, dtype=np.float64)
    if n_folds < 2 or n_folds > n:
        raise DimensionError(f"n_folds must lie in [2, n], got {n_folds}")

    intercept = float(np.mean(y))
    yc = y - intercept
    bounds = np.linspace(0, n, n_folds + 1).astype(int)
    cv_err = np.zeros(lambdas.shape[0])
    for k in range(n_folds):
        lo, hi = bounds[k], bounds[k + 1]
        mask = np.ones(n, dtype=bool)
        mask[lo:hi] = False
        xtr, ytr = xs[mask], yc[mask]
        xte, yte = xs[lo:hi], yc[lo:hi]
        m = xtr.shape[1]
        if m <= xtr.shape[0]:
            evals, evecs = np.linalg.eigh(xtr.T @ xtr)
            proj = evecs.T @ (xtr.T @ ytr)
            for j, lam in enumerate(lambdas):
                beta = evecs @ (proj / (evals + lam))
                cv_err[j] += np.sum((xte @ beta - yte) ** 2)
        else:
            for j, lam in enumerate(lambdas):
                beta = _ridge_solve(xtr, ytr, lam)
                cv_err[j] += np.sum((xte @ beta - yte) ** 2)
    best = int(np.argmin(cv_err))
    lam = float(lambdas[best])
    beta = _ridge_solve(xs, yc, lam)
    return beta.reshape(image_dims), intercept, lam


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation setting; JSON round-trippable via to_dict/from_dict."""

    image_dims: tuple = (32, 32)
    n_train: int = 500
    signal: SignalSpec = field(default_factory=SignalSpec)
    family: str = "gaussian"
    noise_sd: float = 1.0
    rank: int = 1
    depth: int = None
    n_reps: int = 20
    seed: int = 0
    max_sweeps: int = 100
    tol: float = 1e-8
    run_ridge: bool = True

    def __post_init__(self):
        # FitOptions' own checks, so a bad value is refused before any data exist.
        FitOptions(max_sweeps=self.max_sweeps, tol=self.tol)

    @property
    def n_test(self):
        return self.n_train // 4

    def to_dict(self):
        d = {
            "image_dims": list(self.image_dims),
            "n_train": self.n_train,
            "signal": {
                "shape": self.signal.shape,
                "kind": self.signal.kind,
                "circles": None if self.signal.circles is None
                else [list(c) for c in self.signal.circles],
            },
            "family": self.family,
            "noise_sd": self.noise_sd,
            "rank": self.rank,
            "depth": self.depth,
            "n_reps": self.n_reps,
            "seed": self.seed,
            "max_sweeps": self.max_sweeps,
            "tol": self.tol,
            "run_ridge": self.run_ridge,
        }
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        d.pop("metadata", None)  # echoed configs carry a metadata block
        sig = d.pop("signal", {})
        circles = sig.get("circles")
        spec = SignalSpec(
            shape=sig.get("shape", "one_circle"),
            kind=sig.get("kind", "sparse"),
            circles=None if circles is None else tuple(tuple(c) for c in circles),
        )
        d["image_dims"] = tuple(d.get("image_dims", (32, 32)))
        return cls(signal=spec, **d)


def _structure_for(cfg):
    structure, padded_from = auto_structure(cfg.image_dims, rank=cfg.rank)
    if cfg.depth is not None:
        structure = merge_to_depth(structure, cfg.depth)
    return structure, padded_from


@dataclass
class RepetitionResult:
    rep: int
    seed: int
    rmse_coeff_dkn: float
    rmse_pred_dkn: float
    rmse_coeff_ridge: float
    rmse_pred_ridge: float
    sweeps: int
    converged: bool
    accuracy_dkn: float = float("nan")

    def to_dict(self):
        return _sanitize(asdict(self))


def run_repetition(cfg, rep_seed, rep=0):
    """One full draw-fit-score cycle at the given repetition seed."""
    coeff = gen_signal(cfg.signal, cfg.image_dims, seed=rep_seed)
    x_train = gen_images(cfg.n_train, cfg.image_dims, seed=rep_seed)
    y_train = gen_responses(x_train, coeff, cfg.family, cfg.noise_sd, seed=rep_seed)
    x_test = gen_images(max(cfg.n_test, 1), cfg.image_dims, seed=rep_seed,
                        purpose=rng.PURPOSE_TEST_IMAGES)
    y_test = gen_responses(x_test, coeff, cfg.family, cfg.noise_sd, seed=rep_seed,
                           purpose=rng.PURPOSE_TEST_RESPONSES)

    structure, padded_from = _structure_for(cfg)
    options = FitOptions(max_sweeps=cfg.max_sweeps, tol=cfg.tol, seed=rep_seed,
                         center_response=(cfg.family == "gaussian"))
    model, report = fit(x_train, y_train, structure, family=cfg.family,
                        options=options, padded_from=padded_from)
    pred = predict(model, x_test)
    result = RepetitionResult(
        rep=rep,
        seed=rep_seed,
        rmse_coeff_dkn=float(rmse_coeff(model, coeff)),
        rmse_pred_dkn=rmse_pred(pred, y_test),
        rmse_coeff_ridge=float("nan"),
        rmse_pred_ridge=float("nan"),
        sweeps=report.sweeps,
        converged=report.converged,
    )
    if cfg.family == "bernoulli":
        result.accuracy_dkn = accuracy(pred, y_test)
    if cfg.run_ridge:
        beta, intercept, _lam = baseline_ridge(x_train, y_train)
        result.rmse_coeff_ridge = float(rmse_coeff(beta, coeff))
        ridge_pred = x_test.reshape(x_test.shape[0], -1) @ beta.ravel() + intercept
        result.rmse_pred_ridge = rmse_pred(ridge_pred, y_test)
    return result


def _aggregate(values):
    arr = np.asarray([v for v in values if np.isfinite(v)], dtype=np.float64)
    if arr.size == 0:
        return {"mean": None, "sd": None}
    sd = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    return {"mean": float(np.mean(arr)), "sd": sd}


def run_experiment(cfg):
    """Run all repetitions of a configuration and aggregate the scores.

    Returns a dict with the config, one row per repetition, mean and
    sample-sd summaries, and an ``external_methods`` slot left empty for
    results produced outside this package.
    """
    rows = []
    for rep in range(cfg.n_reps):
        rep_seed = rng.derive(cfg.seed, rng.PURPOSE_REPETITION, rep) % (2**63)
        rows.append(run_repetition(cfg, rep_seed, rep=rep))
    summary = {
        "rmse_coeff_dkn": _aggregate([r.rmse_coeff_dkn for r in rows]),
        "rmse_pred_dkn": _aggregate([r.rmse_pred_dkn for r in rows]),
        "rmse_coeff_ridge": _aggregate([r.rmse_coeff_ridge for r in rows]),
        "rmse_pred_ridge": _aggregate([r.rmse_pred_ridge for r in rows]),
    }
    metadata = {}
    if cfg.signal.kind == "quasi_sparse":
        # Record the off-support noise convention: N(0.1, 0.1) read as
        # mean 0.1 with variance 0.1 (sd = sqrt(0.1)).
        metadata["quasi_sparse_outside"] = {"mean": 0.1, "variance": 0.1}
    return {
        "config": cfg.to_dict(),
        "metadata": metadata,
        "repetitions": [r.to_dict() for r in rows],
        "summary": summary,
        "external_methods": {},
    }
