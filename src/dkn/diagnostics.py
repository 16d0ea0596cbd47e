r"""Executable checks of the estimator's contraction theory.

The recovery guarantees for the rank-1 alternating scheme are phrased in
terms of a small set of constants:

* delta: a restricted-isometry constant of the design over rank-2
  Kronecker-structured coefficients, estimated here by random probing;
* tau0: the noise-design interaction, sup over unit partial products of
  ||(1/n) sum_i eps_i X~_i||; tau = (tau0 / |C|_F) / (1 - 3 delta);
* mu: the worst initial angular distance across layer products;
* nu = mu + 3 delta / (1 - 3 delta), the per-layer contraction factor;
* eta = mu / (mu + tau (nu+1)/nu)  (1 in the noiseless case);
* kappa = (1 + nu)^L - (2 nu + 1), the per-sweep contraction factor.

Sweeps contract when nu < (1 + eta)^(1/(L-1)) - 1; noiselessly this is
nu < 2^(1/(L-1)) - 1.  When the condition holds, the distance after t
sweeps is bounded by c1 * kappa^t * mu + c2 * tau with
c1 = (L-1)(1 + nu/kappa) and c2 = (1+nu)^2 / (nu (1-kappa)) + 1.

``verify_decay`` checks a fitted trace against that bound and against the
plain geometric-ratio reading of it; ``krank`` and ``identifiability_check``
cover the separate question of whether the factorization is unique.
"""

import math
from dataclasses import asdict, dataclass
from itertools import combinations

import numpy as np

from . import rng
from .dkn_fit import (
    DknModel,
    DknStructure,
    _design,
    _digits,
    _image_stack,
    _inner_products,
    _lower_product,
    _sign_fix,
    _vectorize_images,
    _weighted_sum,
    init_spectral,
)
from .errors import DegenerateDataError, DimensionError
from .kron_ops import reshape_R_indices
from .tensor_core import _sanitize, dist, vec

__all__ = [
    "coeff_distance",
    "RipProbe",
    "probe_rip",
    "probe_tau0",
    "true_left_products",
    "measure_mu",
    "TheoryConstants",
    "theory_constants",
    "DecayVerdict",
    "verify_decay",
    "krank",
    "IdentifiabilityReport",
    "identifiability_check",
]


# Probes per image pass.  It divides the default 50 probes, so those draw
# no spare ones.  It is fixed rather than sized from ``n_probes``: a GEMM
# column's bits can depend on the GEMM's width (at small extents, and a
# one-column product goes to gemv), so a fixed width is what keeps each
# probe's ratio the same whatever ``n_probes`` is.
_PROBE_BLOCK = 25


def coeff_distance(a, b):
    """Angular distance between coefficients; accepts tensors or models."""
    if isinstance(a, DknModel):
        a = a.coefficient(crop=False)
    if isinstance(b, DknModel):
        b = b.coefficient(crop=False)
    return dist(a, b)


@dataclass
class RipProbe:
    delta_hat: float
    ratios: list
    witness_ratio: float
    witness_factors: list


def _random_chains(structure, g, n_terms):
    chains = []
    for _ in range(n_terms):
        chains.append([g.standard_normal(fd) for fd in structure.factor_dims])
    return chains


def probe_rip(images, structure, n_probes=50, seed=0):
    """Monte Carlo lower bound on the design's restricted-isometry constant.

    Each probe draws a rank-2 sum of Kronecker chains C, computes
    (1/n) sum_i <X_i, C>^2 / |C|_F^2, and records its deviation from 1.
    delta_hat is the worst deviation seen; it can only grow as probes are
    added, and probe j is reproducible on its own from (seed, j).

    Probes are contracted with the images ``_PROBE_BLOCK`` (25) at a time,
    one pass over the images per block.  A part-filled last block is
    filled with the following probes, drawn from their own streams and then
    dropped, so every probe is computed in a block of the same width
    whatever ``n_probes`` is, and its ratio has the same bits.
    Pixels are not checked: a non-finite pixel makes every ratio, and so
    ``delta_hat``, non-finite.
    """
    structure = structure if isinstance(structure, DknStructure) else DknStructure(**structure)
    if n_probes < 1:
        raise DimensionError("need at least one probe")
    x, _ = _image_stack(images, structure)
    L = structure.depth
    canonical = _digits(structure, 1, L)
    ratios = []
    worst = -1.0
    witness_ratio = 1.0
    witness = None
    for j0 in range(0, n_probes, _PROBE_BLOCK):
        block = [
            _random_chains(structure, rng.stream(seed, rng.PURPOSE_PROBE, j), 2)
            for j in range(j0, j0 + _PROBE_BLOCK)
        ]
        # Each probe's chains in layer-digit order, then all of them
        # scattered to canonical order at once: one column per probe.
        coeffs = np.empty((structure.n_voxels, _PROBE_BLOCK))
        coeffs[canonical] = np.stack(
            [_lower_product(c[0], L) + _lower_product(c[1], L) for c in block], axis=-1
        )
        etas = _inner_products(x, coeffs.reshape(structure.dims3 + (-1,), order="F"), structure)
        for b in range(min(_PROBE_BLOCK, n_probes - j0)):
            c2 = float(np.sum(coeffs[:, b] * coeffs[:, b]))
            if c2 == 0.0:
                raise DegenerateDataError("probe drew a zero coefficient")
            ratio = float(np.sum(etas[:, b] ** 2)) / (x.shape[0] * c2)
            ratios.append(ratio)
            if abs(ratio - 1.0) > worst:
                worst = abs(ratio - 1.0)
                witness_ratio = ratio
                witness = block[b]
    return RipProbe(
        delta_hat=math.nan if any(map(math.isnan, ratios)) else worst,
        ratios=ratios,
        witness_ratio=witness_ratio,
        witness_factors=witness,
    )


def probe_tau0(images, noise, structure, n_probes=50, seed=0):
    """Monte Carlo lower bound on the noise-design interaction tau0.

    For random unit partial products at every layer, measures
    ||(1/n) sum_i eps_i X~_i||_2 through the same design assembly the
    solver uses, and returns the largest value seen.  The design is linear
    in the image, so sum_i eps_i X~_i is the design row of the aggregate
    image sum_i eps_i X_i: one pass over the images, in their own memory
    order, serves every probe.
    """
    structure = structure if isinstance(structure, DknStructure) else DknStructure(**structure)
    if n_probes < 1:
        raise DimensionError("need at least one probe")
    eps = np.asarray(noise, dtype=np.float64)
    x, _ = _image_stack(images, structure)
    n = x.shape[0]
    if eps.shape != (n,):
        raise DimensionError("noise length does not match image count")
    agg = _vectorize_images(_weighted_sum(x, eps, structure)[None], structure)
    sizes = [
        (int(np.prod(structure.upper_extents(l + 1))), int(np.prod(structure.lower_extents(l - 1))))
        for l in range(1, structure.depth + 1)
    ]
    # Every term would get the same probe, so one term's block is enough.
    worst = 0.0
    for j in range(n_probes):
        g = rng.stream(seed, rng.PURPOSE_PROBE, j)
        for l, (n_up, n_low) in enumerate(sizes, start=1):
            u = g.standard_normal(n_up)
            w = g.standard_normal(n_low)
            u /= np.linalg.norm(u)
            w /= np.linalg.norm(w)
            row = _design(agg, structure, l, [u], [w])
            worst = max(worst, float(np.linalg.norm(row) / n))
    return worst


def true_left_products(truth, structure):
    """Unit upper partial products of a Kronecker rank-1 tensor, per boundary.

    For each boundary l = 2..L the truth, reshaped against the composed
    upper extents, must be a rank-1 matrix (it is exactly that when the
    truth is a single Kronecker chain); the left singular vector is the
    vec of the composed layers l..L up to scale.  Raises on truths that
    are not rank-1 at some boundary.
    """
    structure = structure if isinstance(structure, DknStructure) else DknStructure(**structure)
    t = np.asarray(truth, dtype=np.float64)
    t3 = t.reshape(structure.dims3, order="F")
    tv = vec(t3)
    out = {structure.depth + 1: np.ones(1)}
    for l in range(2, structure.depth + 1):
        m = tv[reshape_R_indices(structure.dims3, structure.upper_extents(l))]
        u, s, _ = np.linalg.svd(m, full_matrices=False)
        if s[0] == 0.0:
            raise DegenerateDataError(f"boundary {l}: truth reshapes to a zero matrix")
        if s.shape[0] > 1 and s[1] > 1e-8 * s[0]:
            raise DegenerateDataError(
                f"boundary {l}: truth is not Kronecker rank-1 (second singular "
                f"value {s[1]:.3e} vs {s[0]:.3e})"
            )
        out[l] = _sign_fix(u[:, 0])
    return out


def measure_mu(images, response, truth, structure):
    """Worst initialization distance across layer products.

    Compares the spectral starting values against the true upper partial
    products of a rank-1 truth and returns the largest angular distance.
    """
    structure = structure if isinstance(structure, DknStructure) else DknStructure(**structure)
    init = init_spectral(images, response, structure)
    true_left = true_left_products(truth, structure)
    worst = 0.0
    for l in range(2, structure.depth + 1):
        worst = max(worst, dist(init[l][0], true_left[l]))
    return worst


@dataclass
class TheoryConstants:
    """Contraction constants; see the module docstring for the formulas."""

    delta: float
    mu: float
    tau0: float
    coeff_norm: float
    depth: int
    tau: float
    nu: float
    eta: float
    kappa: float
    c1: float
    c2: float
    condition_rhs: float
    condition_met: bool

    def error_bound(self, t):
        """c1 * kappa^t * mu + c2 * tau, with exact-zero terms short-circuited."""
        first = 0.0 if self.mu == 0.0 else self.c1 * self.kappa**t * self.mu
        second = 0.0 if self.tau == 0.0 else self.c2 * self.tau
        return first + second


def theory_constants(delta, mu, tau0, coeff_norm, depth):
    """Assemble the contraction constants from measured inputs.

    ``delta`` must lie below 1/3 for the constants to be meaningful;
    ``mu`` is the worst initialization distance, ``tau0`` the probed
    noise-design interaction, ``coeff_norm`` the Frobenius norm of the
    true coefficient, ``depth`` the number of layers L >= 2.
    """
    delta, mu, tau0, coeff_norm = map(float, (delta, mu, tau0, coeff_norm))
    depth = int(depth)
    if depth < 2:
        raise DimensionError(f"depth must be >= 2, got {depth}")
    if not 0.0 <= delta < 1.0 / 3.0:
        raise DimensionError(f"delta must lie in [0, 1/3), got {delta}")
    if mu < 0 or tau0 < 0 or coeff_norm <= 0:
        raise DimensionError("mu, tau0 must be >= 0 and coeff_norm > 0")
    tau = (tau0 / coeff_norm) / (1.0 - 3.0 * delta)
    nu = mu + 3.0 * delta / (1.0 - 3.0 * delta)
    if tau0 == 0.0:
        eta = 1.0
    elif nu == 0.0:
        eta = 0.0
    else:
        eta = mu / (mu + tau * (nu + 1.0) / nu)
    kappa = (1.0 + nu) ** depth - (2.0 * nu + 1.0)
    if nu > 0.0 and kappa > 0.0:
        c1 = (depth - 1.0) * (1.0 + nu / kappa)
        c2 = (1.0 + nu) ** 2 / (nu * (1.0 - kappa)) + 1.0 if kappa < 1.0 else math.inf
    else:
        # nu == 0 forces mu == 0 and kappa == 0: both bound terms vanish.
        c1 = math.inf if nu > 0.0 else 0.0
        c2 = math.inf if nu > 0.0 else 0.0
    condition_rhs = (1.0 + eta) ** (1.0 / (depth - 1.0)) - 1.0
    return TheoryConstants(
        delta=delta,
        mu=mu,
        tau0=tau0,
        coeff_norm=coeff_norm,
        depth=depth,
        tau=tau,
        nu=nu,
        eta=eta,
        kappa=kappa,
        c1=c1,
        c2=c2,
        condition_rhs=condition_rhs,
        condition_met=bool(nu < condition_rhs),
    )


@dataclass
class DecayVerdict:
    passed: bool
    condition_met: bool
    vacuous: bool
    within_bound: list
    margins: list
    ratios: list
    ratio_threshold: float
    noise_floor: float

    def to_dict(self):
        return _sanitize(asdict(self))


def verify_decay(trace, constants, t_start=0, ratio_slack=0.05):
    """Check an observed distance trace against the contraction theory.

    ``trace`` is a sequence of angular distances (a FitReport works too;
    its trace starts after the first sweep, so t_start=1 matches its
    indexing).  Entry i is compared against error_bound(t_start + i), and
    consecutive ratios above the noise floor are compared against
    kappa + ratio_slack.  The verdict passes when every entry is within
    its bound and no ratio exceeds the threshold; it is flagged vacuous
    when the contraction condition fails or some bound is infinite, since
    the theory then predicts nothing about the trace.
    """
    if hasattr(trace, "dist_trace"):
        if trace.dist_trace is None:
            raise DimensionError("fit report has no distance trace; fit with trace_truth")
        trace = trace.dist_trace
    trace = [float(v) for v in trace]
    if not trace:
        raise DimensionError("empty distance trace")
    floor = max(10.0 * constants.c2 * constants.tau, 1e-10)
    threshold = constants.kappa + ratio_slack
    within, margins = [], []
    vacuous = not constants.condition_met
    for i, d in enumerate(trace):
        bound = constants.error_bound(t_start + i)
        if not math.isfinite(bound):
            vacuous = True
        margins.append(bound - d)
        within.append(d <= bound * (1.0 + 1e-12) + 1e-15)
    ratios = []
    ratio_ok = True
    for i in range(len(trace) - 1):
        if trace[i] > floor:
            ratio = trace[i + 1] / trace[i]
            ratios.append(ratio)
            if ratio > threshold:
                ratio_ok = False
    return DecayVerdict(
        passed=bool(all(within) and ratio_ok),
        condition_met=constants.condition_met,
        vacuous=vacuous,
        within_bound=within,
        margins=margins,
        ratios=ratios,
        ratio_threshold=threshold,
        noise_floor=floor,
    )


def krank(matrix, tol=None):
    """Kruskal rank: the largest k such that every k columns are independent.

    Exhaustive over column subsets; singular values below
    ``1e-10 * sigma_max`` of a subset count as zero.  A zero matrix or any
    zero column gives 0.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got order {m.ndim}")
    n_cols = m.shape[1]
    if n_cols > 16:
        raise DimensionError("krank enumeration is limited to 16 columns")
    if not np.any(m):
        return 0
    k = 0
    for size in range(1, min(n_cols, m.shape[0]) + 1):
        all_independent = True
        for cols in combinations(range(n_cols), size):
            sub = m[:, cols]
            s = np.linalg.svd(sub, compute_uv=False)
            cut = (1e-10 * s[0]) if tol is None else tol
            if s[-1] <= cut:
                all_independent = False
                break
        if not all_independent:
            break
        k = size
    return k


@dataclass
class IdentifiabilityReport:
    per_layer_krank: list
    krank_sum: int
    sufficiency_rhs: int
    sufficient: bool
    per_layer_rank: list
    min_complement_product: int
    necessary: bool

    def to_dict(self):
        return asdict(self)


def identifiability_check(model):
    """Check the factorized representation's uniqueness conditions.

    Sufficiency: the per-layer Kruskal ranks of the stacked factor-vec
    matrices must sum to at least 2R + L - 1.  Necessity: for every layer,
    the product of the other layers' matrix ranks must reach R.
    """
    structure = model.structure
    L, R = structure.depth, structure.rank
    kranks, ranks = [], []
    for l in range(1, L + 1):
        mat = np.column_stack([vec(chain[l - 1]) for chain in model.factors])
        kranks.append(krank(mat))
        s = np.linalg.svd(mat, compute_uv=False)
        ranks.append(int(np.sum(s > 1e-10 * s[0])) if s[0] > 0 else 0)
    total = int(sum(kranks))
    rhs = 2 * R + L - 1
    min_prod = None
    for l in range(L):
        prod = 1
        for k in range(L):
            if k != l:
                prod *= ranks[k]
        min_prod = prod if min_prod is None else min(min_prod, prod)
    return IdentifiabilityReport(
        per_layer_krank=kranks,
        krank_sum=total,
        sufficiency_rhs=rhs,
        sufficient=total >= rhs,
        per_layer_rank=ranks,
        min_complement_product=int(min_prod),
        necessary=min_prod >= R,
    )
