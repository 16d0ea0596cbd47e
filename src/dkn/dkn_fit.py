r"""Alternating estimation of Kronecker-factored regression coefficients.

The model: a scalar response y depends on an image X (order 1..3) through
a GLM whose coefficient tensor is a rank-R sum of Kronecker chains,

    C = sum_r  B_L^r (x) B_{L-1}^r (x) ... (x) B_1^r,

with layer L innermost.  For fixed partial products the linear predictor
is linear in any one layer's factors across all R terms jointly, so each
layer update is a single GLM solve.  A sweep updates layers 1..L in order
(upper partial products held at their previous-sweep values, lower ones
refreshed as the sweep ascends), then recomposes the upper products from
the new factors on the way back down.  Layer products are seeded from the
top singular vectors of the response-weighted image aggregate.

Images enter as an (n, *image_dims) stack (a list of tensors or an
(n, prod(dims)) matrix of canonical vecs is also accepted).  The solver
copies them once into a voxel-major stack, (n_voxels, n) with the samples
fastest.  Every design is that stack contracted against the partial
products by the contraction primitive in ``kron_ops`` (the batched
``nonoverlap_conv``): ``_layer_design`` contracts each term's stack,
already contracted against its lower product, against its upper product.
``fit`` carries that lower chain up each sweep, as in ``conv_chain_eval``,
shrinking it by |B_l| at every layer, so a sweep costs about
2 (1 + 1/|B_1| + ...) passes over the stack, and the sweep objective comes
from the layer-L design.  ``build_design`` (so ``sweep_update``) and
``diagnostics.probe_tau0`` contract the full stack, or one aggregate
image, against each lower product first.  The response-weighted aggregate,
prediction and the BIC need only sums over images; they take the images in
their own memory order and build no stack.
"""

import copy
import json
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import glm, rng
from .errors import (
    DataFormatError,
    DegenerateDataError,
    DimensionError,
    RankDeficiencyError,
)
from .kron_ops import _contract_lower, _contract_upper, _triple, compose_coeff, reshape_R_indices, tkp
from .tensor_core import dist, read_dkt, unvec, vec, write_dkt

__all__ = [
    "DknStructure",
    "DknModel",
    "FitOptions",
    "FitReport",
    "ScanResult",
    "deepest_structure",
    "auto_structure",
    "merge_to_depth",
    "pad_images",
    "init_spectral",
    "build_design",
    "partial_products",
    "sweep_update",
    "fit",
    "normalize",
    "predict",
    "bic",
    "scan_rank",
    "save_model",
    "load_model",
]

COLLAPSE_TOL = 1e-12
_STACK_TILE = (32, 512)
MANIFEST_NAME = "manifest.json"
_MODEL_FORMAT = "dkn-model-v1"


@dataclass(frozen=True)
class DknStructure:
    """Factorization layout: image extents, per-layer factor extents, rank."""

    image_dims: tuple
    factor_dims: tuple
    rank: int = 1

    def __post_init__(self):
        object.__setattr__(self, "image_dims", tuple(int(d) for d in self.image_dims))
        object.__setattr__(
            self, "factor_dims", tuple(_triple(fd) for fd in self.factor_dims)
        )
        if not 1 <= len(self.image_dims) <= 3:
            raise DimensionError(f"images must be order 1..3, got {self.image_dims}")
        if any(d < 1 for d in self.image_dims):
            raise DimensionError(f"extents must be positive, got {self.image_dims}")
        if len(self.factor_dims) < 2:
            raise DimensionError("depth must be at least 2")
        if self.rank < 1:
            raise DimensionError(f"rank must be >= 1, got {self.rank}")
        dims3 = _triple(self.image_dims)
        for m in range(3):
            prod = 1
            for fd in self.factor_dims:
                prod *= fd[m]
            if prod != dims3[m]:
                raise DimensionError(
                    f"mode {m}: factor extents {[fd[m] for fd in self.factor_dims]} "
                    f"compose to {prod}, image extent is {dims3[m]}"
                )

    @property
    def depth(self):
        return len(self.factor_dims)

    @property
    def dims3(self):
        return _triple(self.image_dims)

    @property
    def n_voxels(self):
        return int(np.prod(self.dims3))

    def layer_size(self, l):
        d, p, q = self.factor_dims[l - 1]
        return d * p * q

    @property
    def param_count(self):
        """Free parameters: rank * sum of per-layer factor sizes."""
        return self.rank * sum(self.layer_size(l) for l in range(1, self.depth + 1))

    def upper_extents(self, l):
        """Per-mode extents of the composed layers l..L; (1,1,1) at l = L+1."""
        if not 1 <= l <= self.depth + 1:
            raise DimensionError(f"layer {l} outside 1..{self.depth + 1}")
        out = [1, 1, 1]
        for fd in self.factor_dims[l - 1 :]:
            for m in range(3):
                out[m] *= fd[m]
        return tuple(out)

    def lower_extents(self, l):
        """Per-mode extents of the composed layers 1..l; (1,1,1) at l = 0."""
        if not 0 <= l <= self.depth:
            raise DimensionError(f"layer {l} outside 0..{self.depth}")
        out = [1, 1, 1]
        for fd in self.factor_dims[:l]:
            for m in range(3):
                out[m] *= fd[m]
        return tuple(out)

    def to_dict(self):
        return {
            "image_dims": list(self.image_dims),
            "factor_dims": [list(fd) for fd in self.factor_dims],
            "rank": self.rank,
            "depth": self.depth,
        }


def _prime_ladder(x):
    """Ascending prime factors of x; empty for 1."""
    out = []
    n = int(x)
    f = 2
    while f * f <= n:
        while n % f == 0:
            out.append(f)
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def deepest_structure(image_dims, rank=1):
    """Deepest factorization of the given extents: one prime per layer.

    Each extent contributes its ascending prime ladder; shorter ladders are
    padded with unit extents at the top layers, and the overall depth is at
    least 2 (a unit top layer is added for extents that do not factor).
    """
    dims = tuple(int(d) for d in image_dims)
    if not 1 <= len(dims) <= 3 or any(d < 1 for d in dims):
        raise DimensionError(f"expected 1..3 positive extents, got {dims}")
    ladders = [_prime_ladder(d) for d in _triple(dims)]
    depth = max(2, max(len(lad) for lad in ladders))
    factor_dims = []
    for l in range(depth):
        factor_dims.append(
            tuple(lad[l] if l < len(lad) else 1 for lad in ladders)
        )
    return DknStructure(image_dims=dims, factor_dims=tuple(factor_dims), rank=rank)


def merge_to_depth(structure, depth):
    """Coarsen a structure to exactly ``depth`` layers by merging its top layers."""
    depth = int(depth)
    if depth < 2:
        raise DimensionError(f"depth must be >= 2, got {depth}")
    if depth > structure.depth:
        raise DimensionError(
            f"requested depth {depth} exceeds the structure's {structure.depth}"
        )
    if depth == structure.depth:
        return structure
    fd = structure.factor_dims
    top = [1, 1, 1]
    for extents in fd[depth - 1 :]:
        top = [a * b for a, b in zip(top, extents)]
    return DknStructure(
        image_dims=structure.image_dims,
        factor_dims=fd[: depth - 1] + (tuple(top),),
        rank=structure.rank,
    )


def _next_pow2(n):
    return 1 << max(0, (int(n) - 1).bit_length())


def auto_structure(image_dims, rank=1):
    """Deepest structure, zero-padding awkward extents to a power of two.

    An extent whose prime ladder contains a prime larger than 3 is padded
    to the next power of two before factorization (images must then be
    zero-padded to match; see :func:`pad_images`).  Returns
    ``(structure, padded_from)`` where ``padded_from`` is the original
    extent tuple, or None when no padding was needed.
    """
    dims = tuple(int(d) for d in image_dims)
    padded = tuple(
        _next_pow2(d) if any(p > 3 for p in _prime_ladder(d)) else d for d in dims
    )
    structure = deepest_structure(padded, rank=rank)
    return structure, (dims if padded != dims else None)


def pad_images(images, from_dims, to_dims):
    """Zero-pad a stack of images at the high end of each mode."""
    from_dims = tuple(int(d) for d in from_dims)
    to_dims = tuple(int(d) for d in to_dims)
    if len(from_dims) != len(to_dims) or any(a > b for a, b in zip(from_dims, to_dims)):
        raise DimensionError(f"cannot pad {from_dims} to {to_dims}")
    x = np.asarray(images, dtype=np.float64)
    if x.shape[1:] != from_dims:
        raise DimensionError(f"expected image extents {from_dims}, got {x.shape[1:]}")
    pad = [(0, 0)] + [(0, b - a) for a, b in zip(from_dims, to_dims)]
    return np.pad(x, pad)


def _image_stack(images, structure, padded_from=None):
    """The images as one float64 array in their own memory order, and
    whether they are the unpadded originals of a padded structure.  Accepted
    extents: ``padded_from``, image_dims, dims3, or one canonical vec."""
    if isinstance(images, (list, tuple)):
        images = np.stack([np.asarray(t, dtype=np.float64) for t in images])
    x = np.asarray(images, dtype=np.float64)
    if x.ndim < 2:
        raise DimensionError("expected a stack of images")
    shape = x.shape[1:]
    if padded_from is not None and shape == tuple(padded_from):
        return x, True
    if shape in (structure.image_dims, structure.dims3, (structure.n_voxels,)):
        return x, False
    expect = tuple(padded_from) if padded_from is not None else structure.image_dims
    raise DimensionError(f"image extents {shape} do not match the structure's {expect}")


def _vectorize_images(images, structure, padded_from=None):
    """The solver's voxel-major image stack: a C-contiguous ``(n_voxels, n)``
    array whose column i is the canonical vec of image i at the structure's
    (padded) extents.

    The samples run fastest, so every contraction of the stack streams along
    them.  The transpose is copied in tiles of ``_STACK_TILE`` (images,
    voxels), so that both its reads and its writes stay within cached lines.
    Images not stored in canonical order are first copied into canonical
    rows one block of images at a time.
    """
    x, unpadded = _image_stack(images, structure, padded_from)
    if unpadded:
        x = pad_images(x, padded_from, structure.image_dims)
    n, v = x.shape[0], structure.n_voxels
    d, p, q = structure.dims3
    if x.shape[1:] == (v,):  # rows of canonical vecs
        canon = x.reshape(n, q, p, d)
    else:  # reversed image axes: their C order is the canonical order
        canon = x.reshape((n, d, p, q)).transpose(0, 3, 2, 1)
    bs, bv = _STACK_TILE
    out = np.empty((v, n))
    for s in range(0, n, bs):
        rows = canon[s : s + bs].reshape(-1, v)  # a view when already canonical
        for u in range(0, v, bv):
            out[u : u + bv, s : s + bs] = rows[:, u : u + bv].T
    return out


def _memory_order(x):
    """"C" when a stack's images are stored row-major, else "F"."""
    return "C" if x.ndim > 2 and x.strides[-1] < x.strides[1] else "F"


def _inner_products(images, coeff, structure, padded_from=None):
    """<X_i, C> for every image i, where ``coeff`` is a composed coefficient
    at the structure's extents, or such coefficients stacked along a fourth
    axis (the result then has one column per coefficient).

    The images are contracted in their own memory order, so no stack is
    built: a C-ordered stack against the C-ravelled coefficient, a stack of
    column-major tensors (as read from DKT1 files) against vec(C), and
    unpadded images of a padded structure against the cropped coefficient.
    """
    x, unpadded = _image_stack(images, structure, padded_from)
    batch = np.shape(coeff)[3:]
    c = np.reshape(coeff, structure.dims3 + batch, order="F")
    if unpadded:
        c = c[tuple(slice(0, e) for e in _triple(padded_from))]
    order = _memory_order(x)
    return x.reshape(x.shape[0], -1, order=order) @ np.reshape(c, (-1,) + batch, order=order)


def _weighted_sum(images, w, structure, padded_from=None):
    """sum_i w_i vec(X_i) at the structure's extents, the adjoint of
    :func:`_inner_products`: summed in the images' own memory order, so no
    stack is built.  A non-finite sum is traced to the first image with a
    non-finite pixel (which spoils the sum even where its weight is 0) and
    raised as a DimensionError naming it; otherwise it is returned as is.
    """
    x, unpadded = _image_stack(images, structure, padded_from)
    order = _memory_order(x)
    rows = x.reshape(x.shape[0], -1, order=order)
    with np.errstate(invalid="ignore", over="ignore"):
        agg = np.asarray(w, dtype=np.float64) @ rows
    if not np.all(np.isfinite(agg)):
        bad = np.flatnonzero(~np.all(np.isfinite(rows), axis=1))
        if bad.size:
            raise DimensionError(f"image {bad[0]} has a non-finite pixel")
    agg = np.reshape(agg, x.shape[1:], order=order)
    if unpadded:
        agg = pad_images(agg[None], padded_from, structure.image_dims)[0]
    return np.reshape(agg, -1, order="F")


@dataclass
class DknModel:
    """Fitted factors plus the response-family bookkeeping to predict with."""

    structure: DknStructure
    factors: list
    family: str = "gaussian"
    intercept: float = 0.0
    padded_from: tuple = None

    def __post_init__(self):
        self.family = glm.get_family(self.family).name
        if len(self.factors) != self.structure.rank:
            raise DimensionError(
                f"expected {self.structure.rank} factor chains, got {len(self.factors)}"
            )
        coerced = []
        for r, chain in enumerate(self.factors):
            if len(chain) != self.structure.depth:
                raise DimensionError(
                    f"term {r + 1}: expected {self.structure.depth} factors, got {len(chain)}"
                )
            coerced.append(
                [
                    unvec(vec(f), self.structure.factor_dims[l])
                    for l, f in enumerate(chain)
                ]
            )
        self.factors = coerced
        if self.padded_from is not None:
            self.padded_from = tuple(int(d) for d in self.padded_from)

    def coefficient(self, crop=True):
        """Composed coefficient tensor, shaped like the original images."""
        c = compose_coeff(self.factors)
        ndim = len(self.structure.image_dims)
        c = c.reshape(c.shape[:ndim], order="F")
        if crop and self.padded_from is not None:
            c = c[tuple(slice(0, d) for d in self.padded_from)]
        return c

    @property
    def image_dims_out(self):
        return self.padded_from if self.padded_from is not None else self.structure.image_dims

    def kron_eigenvalues(self):
        """Per-term scale: product of factor Frobenius norms, in stored order."""
        return [
            float(np.prod([np.linalg.norm(f.ravel()) for f in chain]))
            for chain in self.factors
        ]


@dataclass(frozen=True)
class FitOptions:
    """Knobs for :func:`fit`; defaults match the documented solver contract."""

    max_sweeps: int = 100
    tol: float = 1e-8
    ridge: float = None
    center_response: bool = False
    seed: int = 0
    trace_truth: object = None
    trace_factors: bool = False


@dataclass
class FitReport:
    family: str
    rank: int
    sweeps: int = 0
    converged: bool = False
    objective_trace: list = field(default_factory=list)
    final_rel_change: float = math.inf
    bic: float = math.nan
    param_count: int = 0
    wall_time_s: float = 0.0
    intercept: float = 0.0
    dist_trace: list = None
    collapse_events: list = field(default_factory=list)
    snapshots: list = None
    init_left_products: dict = None

    def to_dict(self, include_timing=True):
        out = {
            "family": self.family,
            "rank": self.rank,
            "sweeps": self.sweeps,
            "converged": self.converged,
            "objective_trace": [float(v) for v in self.objective_trace],
            "final_rel_change": float(self.final_rel_change),
            "bic": float(self.bic),
            "param_count": self.param_count,
            "intercept": float(self.intercept),
            "collapse_events": list(self.collapse_events),
        }
        if self.dist_trace is not None:
            out["dist_trace"] = [float(v) for v in self.dist_trace]
        if include_timing:
            out["wall_time_s"] = float(self.wall_time_s)
        return out


def _positive_sign(v):
    """+1.0 or -1.0, whichever makes v's largest-magnitude entry (the first,
    on ties) positive."""
    j = int(np.argmax(np.abs(v)))
    return 1.0 if v[j] >= 0 else -1.0


def _sign_fix(v):
    return _positive_sign(v) * v


def _spectral_seeds(agg, structure):
    """Per-layer spectral seeds from the response-weighted aggregate image
    (a canonical vec), plus the unused singular-vector pools."""
    if not np.all(np.isfinite(agg)):
        raise DegenerateDataError("response-weighted image aggregate overflows")
    if not np.any(agg):
        raise DegenerateDataError("response-weighted image aggregate is zero")
    L, R = structure.depth, structure.rank
    left = {L + 1: [np.ones(1) for _ in range(R)]}
    pools = {}
    for l in range(2, L + 1):
        m = agg[reshape_R_indices(structure.dims3, structure.upper_extents(l))]
        u, s, _ = np.linalg.svd(m, full_matrices=False)
        avail = int(np.sum(s > 0))
        if avail < R:
            raise DegenerateDataError(
                f"layer {l}: aggregate supports {avail} spectral directions, rank {R} requested"
            )
        left[l] = [_sign_fix(u[:, r]) for r in range(R)]
        pools[l] = [_sign_fix(u[:, r]) for r in range(R, u.shape[1])]
    return left, pools


def init_spectral(images, response, structure):
    """Spectral starting values: for each layer boundary l = 2..L, the top-R
    left singular vectors of the response-weighted image aggregate reshaped
    against the composed upper extents.

    Returns {l: [R unit vectors]} including the convention entry at L+1
    (all-ones scalars).
    """
    left, _ = _spectral_seeds(_weighted_sum(images, response, structure), structure)
    return left


def _check_layer(structure, l):
    if not 1 <= l <= structure.depth:
        raise DimensionError(f"layer {l} outside 1..{structure.depth}")


def _layer_design(lows, ups, structure, l):
    """The layer-l design, ``(n, R * d_l * p_l * q_l)``, from each term's
    stack already contracted against its lower product (layers 1..l-1) and
    its upper product (layers l+1..L).  Column block r multiplies term r's
    layer-l factor.  ``lows`` may be a generator: each of its stacks is
    released once contracted, so only one is held at a time."""
    ext, up_ext = structure.upper_extents(l), structure.upper_extents(l + 1)
    lows = iter(lows)
    return np.concatenate([_contract_upper(next(lows), ext, u, up_ext) for u in ups]).T


def _grow_products(prods, factors, structure, l, side):
    """Every term's partial product extended by its layer-l factor, as
    canonical vecs: upper products (layers l+1..L) become layers l..L as
    ``tkp(upper, B_l)``, lower products (layers 1..l-1) become layers 1..l
    as ``tkp(B_l, lower)``."""
    if side == "left":
        ext = structure.upper_extents(l + 1)
        return [vec(tkp(unvec(p, ext), f)) for p, f in zip(prods, factors)]
    ext = structure.lower_extents(l - 1)
    return [vec(tkp(f, unvec(p, ext))) for p, f in zip(prods, factors)]


def build_design(images, structure, l, left, right):
    """Design matrix for the layer-l subproblem, ``(n, R * d_l * p_l * q_l)``.

    ``left`` holds the composed upper products (layers l+1..L) and
    ``right`` the composed lower products (layers 1..l-1), one canonical
    vec per rank term.  Column block r (size d_l*p_l*q_l) multiplies term
    r's layer-l factor, so ``design @ stacked_factors`` reproduces the full
    model's linear predictor exactly.  Each call transposes ``images``
    (rows of canonical vecs included) into the voxel-major stack once.
    """
    _check_layer(structure, l)
    left = [np.asarray(v, dtype=np.float64).ravel() for v in left]
    right = [np.asarray(v, dtype=np.float64).ravel() for v in right]
    if len(left) != structure.rank or len(right) != structure.rank:
        raise DimensionError(
            f"need {structure.rank} left and right partial vectors, "
            f"got {len(left)} and {len(right)}"
        )
    n_up = int(np.prod(structure.upper_extents(l + 1)))
    n_lo = int(np.prod(structure.lower_extents(l - 1)))
    for r in range(structure.rank):
        if left[r].size != n_up:
            raise DimensionError(f"term {r + 1}: upper product has {left[r].size} entries, expected {n_up}")
        if right[r].size != n_lo:
            raise DimensionError(f"term {r + 1}: lower product has {right[r].size} entries, expected {n_lo}")
    vec_x = _vectorize_images(images, structure)
    lo_ext = structure.lower_extents(l - 1)
    lows = (_contract_lower(vec_x, structure.dims3, w, lo_ext) for w in right)
    return _layer_design(lows, left, structure, l)


def partial_products(model, l, side):
    """Composed factor products per term: layers l..L ("left") or 1..l ("right").

    Convention boundaries: left at l = L+1 and right at l = 0 are scalar ones.
    """
    structure = model.structure
    L = structure.depth
    if side not in ("left", "right"):
        raise DimensionError(f"side must be 'left' or 'right', got {side!r}")
    lo, hi, layers = (1, L + 1, range(L, l - 1, -1)) if side == "left" else (0, L, range(1, l + 1))
    if not lo <= l <= hi:
        raise DimensionError(f"{side} products need {lo} <= l <= {hi}, got {l}")
    prods = [np.ones(1) for _ in range(structure.rank)]
    for k in layers:
        prods = _grow_products(prods, [chain[k - 1] for chain in model.factors], structure, k, side)
    return prods


def _split_beta(beta, structure, l):
    m = structure.layer_size(l)
    mat = unvec(beta, (m, structure.rank))
    return [unvec(mat[:, r], structure.factor_dims[l - 1]) for r in range(structure.rank)]


def _solve_layer(family, design, y, ridge):
    """GLM solution of one layer's subproblem.  A rank-deficient solve is
    retried with the default ridge unless ``ridge`` is exactly 0.0."""
    try:
        return glm.fit_glm(family, design, y, ridge=ridge)
    except RankDeficiencyError:
        if ridge == 0.0:
            raise
        return glm.fit_glm(family, design, y, ridge=glm.default_ridge(design))


def sweep_update(model, images, response, family=None, l=1, options=None, left=None):
    """Solve the layer-l subproblem once and return the updated model.

    Upper partial products default to those composed from the model's
    current factors; pass ``left`` explicitly to reproduce the sweep
    schedule, where they lag one sweep behind.
    """
    structure = model.structure
    _check_layer(structure, l)
    options = options or FitOptions()
    family = glm.get_family(family or model.family)
    if left is None:
        left = partial_products(model, l + 1, "left")
    right = partial_products(model, l - 1, "right")
    design = build_design(images, structure, l, left, right)
    y = family.validate_response(response)
    beta = _solve_layer(family, design, y, options.ridge)
    new_factors = copy.deepcopy(model.factors)
    for r, f in enumerate(_split_beta(beta, structure, l)):
        new_factors[r][l - 1] = f
    updated = replace(model, factors=new_factors, family=family.name)
    info = {"layer": l, "objective": glm.nll(family, design, beta, y)}
    return updated, info


def fit(images, response, structure, family="gaussian", options=None, padded_from=None):
    """Alternating-minimization fit of a Kronecker-factored GLM coefficient.

    Parameters
    ----------
    images : array-like
        Stack of n images, ``(n, *image_dims)`` (or a list of tensors, or
        an ``(n, n_voxels)`` matrix of canonical vecs).
    response : array-like, length n
    structure : DknStructure
        Image extents, factor extents per layer, and the rank R.
    family : "gaussian" or "bernoulli"
    options : FitOptions
        ``center_response`` (gaussian only) fits on y - mean(y) and stores
        the mean as the model intercept.  ``trace_truth`` may hold the true
        coefficient tensor; the report then records the angular distance to
        it after every sweep.  ``trace_factors`` keeps per-sweep factor
        snapshots for contraction diagnostics.
    padded_from : tuple, optional
        Original image extents when ``images`` were zero-padded to the
        structure's extents (see :func:`auto_structure`).

    Returns
    -------
    (model, report) : the fitted, normalized model and a FitReport.

    The sweep schedule: layers update in order 1..L, each against upper
    products from the previous sweep and lower products already refreshed
    this sweep; after layer L the upper products are recomposed from the
    new factors.  Stops when the objective's relative change drops below
    ``options.tol`` or after ``options.max_sweeps`` sweeps.
    """
    t0 = time.perf_counter()
    options = options or FitOptions()
    family = glm.get_family(family)
    structure = structure if isinstance(structure, DknStructure) else DknStructure(**structure)
    images = _image_stack(images, structure, padded_from)[0]  # one array, read twice
    vec_x = _vectorize_images(images, structure, padded_from=padded_from)
    y_raw = family.validate_response(response)
    if y_raw.shape != (vec_x.shape[1],):
        raise DimensionError(
            f"response length {y_raw.shape} does not match {vec_x.shape[1]} images"
        )
    bad = np.flatnonzero(~np.isfinite(y_raw))
    if bad.size:
        raise DimensionError(f"response row {bad[0]} is not finite ({y_raw[bad[0]]})")
    intercept = 0.0
    y = y_raw
    if options.center_response:
        if family.name != "gaussian":
            raise DimensionError("center_response applies to the gaussian family only")
        intercept = float(np.mean(y_raw))
        y = y_raw - intercept

    L, R = structure.depth, structure.rank
    report = FitReport(family=family.name, rank=R, param_count=structure.param_count)
    truth_vec = None
    if options.trace_truth is not None:
        truth = np.asarray(options.trace_truth, dtype=np.float64)
        t3 = truth.reshape(_triple(truth.shape) if truth.ndim < 3 else truth.shape, order="F")
        if t3.shape != structure.dims3:
            raise DimensionError(
                f"trace_truth extents {truth.shape} do not match image extents"
            )
        truth_vec = vec(t3)
        report.dist_trace = []
    if options.trace_factors:
        report.snapshots = []

    left, pools = _spectral_seeds(_weighted_sum(images, y, structure, padded_from), structure)
    if options.trace_factors:
        report.init_left_products = {l: [v.copy() for v in vs] for l, vs in left.items()}

    factors = [[None] * L for _ in range(R)]
    reseed_count = 0

    def _reseed(side, l, r, t):
        nonlocal reseed_count
        event = {"sweep": t, "layer": l, "term": r + 1, "side": side}
        if side == "left" and pools.get(l + 1):
            v = pools[l + 1].pop(0)
            event["source"] = "svd_pool"
        else:
            size = int(np.prod(structure.upper_extents(l + 1))) if side == "left" else int(
                np.prod(structure.lower_extents(l - 1))
            )
            g = rng.stream(options.seed, rng.PURPOSE_RESEED, reseed_count)
            v = g.standard_normal(size)
            v /= np.linalg.norm(v)
            event["source"] = "random"
        reseed_count += 1
        report.collapse_events.append(event)
        return v

    prev_obj = None
    for t in range(1, options.max_sweeps + 1):
        right = [np.ones(1) for _ in range(R)]
        # low[r]: the stack contracted against term r's lower product right[r].
        low = [vec_x] * R
        for l in range(1, L + 1):
            ext = structure.upper_extents(l)
            for r in range(R):
                if np.linalg.norm(left[l + 1][r]) < COLLAPSE_TOL:
                    left[l + 1][r] = _reseed("left", l, r, t)
                if np.linalg.norm(right[r]) < COLLAPSE_TOL:
                    right[r] = _reseed("right", l, r, t)
                    lo_ext = structure.lower_extents(l - 1)
                    low[r] = _contract_lower(vec_x, structure.dims3, right[r], lo_ext)
            design = _layer_design(low, left[l + 1], structure, l)
            beta = _solve_layer(family, design, y, options.ridge)
            layer = _split_beta(beta, structure, l)
            for r, f in enumerate(layer):
                factors[r][l - 1] = f
                if l < L:  # carry the chain up one layer
                    low[r] = _contract_lower(low[r], ext, vec(f), structure.factor_dims[l - 1])
            right = _grow_products(right, layer, structure, l, "right")
        # Downward pass: recompose the upper products from this sweep's factors.
        for l in range(L, 1, -1):
            layer = [chain[l - 1] for chain in factors]
            left[l] = _grow_products(left[l + 1], layer, structure, l, "left")

        # The layer-L design is the stack contracted against every lower
        # product, so design @ beta is the coefficient's linear predictor.
        obj = glm.nll_eta(family, design @ beta, y)
        report.objective_trace.append(obj)
        if truth_vec is not None:
            report.dist_trace.append(dist(np.sum(right, axis=0), truth_vec))
        if options.trace_factors:
            report.snapshots.append(copy.deepcopy(factors))
        report.sweeps = t
        if prev_obj is not None:
            rel = abs(obj - prev_obj) / (1.0 + abs(prev_obj))
            report.final_rel_change = rel
            if rel < options.tol:
                report.converged = True
                break
        prev_obj = obj

    model = DknModel(
        structure=structure,
        factors=factors,
        family=family.name,
        intercept=intercept,
        padded_from=padded_from,
    )
    try:
        model = normalize(model)
    except DegenerateDataError:
        pass  # an exactly-zero factor: keep the raw fit rather than fail late
    report.intercept = intercept
    report.bic = bic(model, vec_x.T, y_raw)  # rows of canonical vecs, not copied
    report.wall_time_s = time.perf_counter() - t0
    return model, report


def normalize(model):
    """Canonical scaling: unit factors above layer 1, scale collected there.

    Per term, every factor above layer 1 is rescaled to unit Frobenius norm
    with its largest-magnitude entry made positive, the accumulated scale
    and sign folded into layer 1; terms are then ordered by non-increasing
    scale.  The composed coefficient is unchanged.
    """
    structure = model.structure
    new_factors = []
    lams = []
    for r, chain in enumerate(model.factors):
        norms = [float(np.linalg.norm(f.ravel())) for f in chain]
        if any(n == 0.0 for n in norms):
            raise DegenerateDataError(f"term {r + 1}: cannot normalize a zero factor")
        scale = 1.0
        new_chain = [chain[0].copy()]
        for f, nf in zip(chain[1:], norms[1:]):
            g = f / nf
            s = _positive_sign(vec(g))
            new_chain.append(g * s)
            scale *= nf * s
        new_chain[0] = new_chain[0] * scale
        new_factors.append(new_chain)
        lams.append(float(np.linalg.norm(new_chain[0].ravel())))
    order = np.argsort(-np.asarray(lams), kind="stable")
    return replace(model, factors=[new_factors[i] for i in order])


def _linear_predictor(model, images):
    c = compose_coeff(model.factors)
    return _inner_products(images, c, model.structure, model.padded_from) + model.intercept


def predict(model, images):
    """Mean response per image: the linear predictor for gaussian, the
    success probability for bernoulli."""
    eta = _linear_predictor(model, images)
    family = glm.get_family(model.family)
    return family.mean(eta) if family.name == "bernoulli" else eta


def bic(model, images, response):
    """2 * nll + param_count * log(n) at the model's fitted coefficients."""
    family = glm.get_family(model.family)
    y = family.validate_response(response)
    eta = _linear_predictor(model, images)
    n = y.shape[0]
    return 2.0 * glm.nll_eta(family, eta, y) + model.structure.param_count * math.log(n)


@dataclass
class ScanResult:
    best_rank: int
    best_model: DknModel
    reports: dict
    bic_table: dict

    def to_dict(self, include_timing=True):
        return {
            "best_rank": self.best_rank,
            "bic_table": {str(k): float(v) for k, v in self.bic_table.items()},
            "reports": {
                str(k): v.to_dict(include_timing=include_timing)
                for k, v in self.reports.items()
            },
        }


def scan_rank(images, response, structure, ranks, family="gaussian", options=None, padded_from=None):
    """Fit each candidate rank and keep the BIC minimizer (ties: smaller rank)."""
    ranks = sorted({int(r) for r in ranks})
    if not ranks:
        raise DimensionError("need at least one candidate rank")
    reports, bics = {}, {}
    best = None
    for r in ranks:
        model, rep = fit(
            images,
            response,
            replace(structure, rank=r),
            family=family,
            options=options,
            padded_from=padded_from,
        )
        reports[r] = rep
        bics[r] = rep.bic
        if best is None or rep.bic < bics[best[0]]:
            best = (r, model)
    return ScanResult(best_rank=best[0], best_model=best[1], reports=reports, bic_table=bics)


def save_model(model, out_dir):
    """Write a model directory: manifest.json plus one DKT1 blob per factor."""
    os.makedirs(out_dir, exist_ok=True)
    factor_files = {}
    for r, chain in enumerate(model.factors, start=1):
        for l, f in enumerate(chain, start=1):
            name = f"factor_r{r}_l{l}.dkt"
            write_dkt(os.path.join(out_dir, name), f)
            factor_files[f"r{r}_l{l}"] = name
    manifest = {
        "format": _MODEL_FORMAT,
        "family": model.family,
        "intercept": float(model.intercept),
        "structure": model.structure.to_dict(),
        "padded_from": list(model.padded_from) if model.padded_from else None,
        "kron_eigenvalues": [float(v) for v in model.kron_eigenvalues()],
        "factor_files": factor_files,
    }
    path = os.path.join(out_dir, MANIFEST_NAME)
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_model(model_dir):
    path = os.path.join(model_dir, MANIFEST_NAME)
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise DataFormatError(f"{model_dir}: missing {MANIFEST_NAME}") from None
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON ({exc})") from None
    if manifest.get("format") != _MODEL_FORMAT:
        raise DataFormatError(f"{path}: unsupported format {manifest.get('format')!r}")
    sd = manifest["structure"]
    structure = DknStructure(
        image_dims=tuple(sd["image_dims"]),
        factor_dims=tuple(tuple(fd) for fd in sd["factor_dims"]),
        rank=int(sd["rank"]),
    )
    factors = []
    for r in range(1, structure.rank + 1):
        chain = []
        for l in range(1, structure.depth + 1):
            key = f"r{r}_l{l}"
            try:
                name = manifest["factor_files"][key]
            except KeyError:
                raise DataFormatError(f"{path}: missing factor entry {key}") from None
            f = read_dkt(os.path.join(model_dir, name))
            if f.shape != structure.factor_dims[l - 1]:
                raise DataFormatError(
                    f"{name}: extents {f.shape} do not match manifest "
                    f"{structure.factor_dims[l - 1]}"
                )
            chain.append(f)
        factors.append(chain)
    padded = manifest.get("padded_from")
    return DknModel(
        structure=structure,
        factors=factors,
        family=manifest.get("family", "gaussian"),
        intercept=float(manifest.get("intercept", 0.0)),
        padded_from=tuple(padded) if padded else None,
    )
