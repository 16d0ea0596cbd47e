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
top singular vectors of the response-weighted image aggregate.  From sweep
2 on, each layer solve is warm-started from that layer's factors of the
previous sweep, stacked: against the layer design they give the current
model's linear predictor.  ``_layer_step`` is the one layer solve, and
``sweep_update`` is one such step.  ``scan_rank`` fits its smallest rank so
and starts each larger rank from the factors fitted for the rank before
it: each new term gets a zero layer-1 factor and, for layers 2..L, the
chain nearest to the next left singular vector of the previous fit's score
aggregate sum_i (y_i - mu_i) vec(X_i) reshaped at layer 2, factored by
successive rank-1 SVDs.  Such a fit warm-starts sweep 1's solves as well.
``scan_rank`` is the one fit driver (``fit`` is a scan of one rank): it checks
the inputs and builds the stack once per call, and ``_fit`` runs the sweeps.

Images enter as an (n, *image_dims) stack (a list of tensors or an
(n, prod(dims)) matrix of canonical vecs is also accepted), or as the
ordered paths of n DKT1 files of one image each, as ``dkn fit`` and ``dkn
predict`` hand them in.  Unpadded images of a padded structure enter with
``padded_from``, here and in the diagnostics alike, and are read where
they lie: no reader pads them.  Every reader takes the images in sample blocks from one
source, ``_ImageBlocks``: a float64 array is one block, read in place,
while files, and arrays of another dtype, are read (or cast) block by block
into one reused buffer of a few MB, so no whole image array is made.
The solver copies them once into its stack, (n_voxels, n) with the samples fastest
and each column in layer-digit order (``kron_ops.reshape_T``), where a
chain is ``np.kron(vec(B_1), ..., vec(B_L))``: every contraction against
a partial product is then one contiguous matmul.  The copy reads the
caller's images directly, zero-filling the padding of unpadded images of a
padded structure, and from 32 MB on it runs on threads, one per CPU the
process may use, started and joined within the call; a copy has no sums, so
the stack's bytes do not depend on the thread count, nor on the blocks.  A
cold fit sums its response-weighted aggregate in the same pass over the
blocks, so it reads the images once.  ``fit`` splits each
sweep at a layer m, 1 when its upper products are not chains of factors
(a cold fit's spectral seeds, reseeds).  At layer 1 the stack is
contracted against every term's upper product of layers m+1..L, and after
layer m's solve against every term's new lower product of layers 1..m;
each half carries its result up the sweep as in ``conv_chain_eval``,
|B_l| times smaller at every layer.  So every sweep makes two passes over the stack, each
one matmul for all R terms, and its objective comes from the layer-L design.  ``_sweeps``
runs one sweep per ``next``; collapse event k draws reseed stream k, and a lower product
collapses when its factors' norm product falls below ``COLLAPSE_TOL``.  ``build_design``
(whose design ``sweep_update`` steps on) and ``diagnostics.probe_tau0`` map canonical
products into that order.  Image sums and predictions run over the images in their own
memory order and build no stack; a fit's BIC comes from its last layer-L design.
Pixels are checked by ``scan_rank`` (so ``fit``) only: elsewhere a
non-finite pixel passes through to its image's prediction or design row.
"""

import contextlib
import copy
import itertools
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache, reduce
from numbers import Integral

import numpy as np

from . import glm, rng
from .errors import (
    DataFormatError,
    DegenerateDataError,
    DimensionError,
    RankDeficiencyError,
)
from .kron_ops import _composed_extents, _contract_lower, _contract_upper, _kron, _lift3, _triple
from .kron_ops import compose_coeff, kron_chain, reshape_R_indices, reshape_T_indices
from .tensor_core import _dkt_extents, _read_dkt_rows, _read_json, _write_json, dist, read_dkt
from .tensor_core import unvec, vec, write_dkt

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
_STACK_TILE = (256, 512)
_INLINE_STACK_BYTES = 32 << 20
_BLOCK_BYTES = 2 << 20
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
        dims3, composed = _triple(self.image_dims), self.upper_extents(1)
        for m in range(3):
            if composed[m] != dims3[m]:
                raise DimensionError(
                    f"mode {m}: factor extents {[fd[m] for fd in self.factor_dims]} "
                    f"compose to {composed[m]}, image extent is {dims3[m]}"
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
        return _composed_extents(self.factor_dims[l - 1 :])

    def lower_extents(self, l):
        """Per-mode extents of the composed layers 1..l; (1,1,1) at l = 0."""
        if not 0 <= l <= self.depth:
            raise DimensionError(f"layer {l} outside 0..{self.depth}")
        return _composed_extents(self.factor_dims[:l])

    def to_dict(self):
        return {
            "image_dims": list(self.image_dims),
            "factor_dims": [list(fd) for fd in self.factor_dims],
            "rank": self.rank,
            "depth": self.depth,
        }


def _as_structure(structure):
    """``structure`` as a :class:`DknStructure`: one already, or a dict of its fields."""
    return structure if isinstance(structure, DknStructure) else DknStructure(**structure)


def _is_number(value, kind):
    """Whether ``value`` is a ``kind`` (``Integral`` or ``Real``) but no bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


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
    ladders = [_prime_ladder(d) for d in _triple(dims)]  # refuses bad extents
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
    return DknStructure(
        image_dims=structure.image_dims,
        factor_dims=structure.factor_dims[: depth - 1] + (structure.upper_extents(depth),),
        rank=structure.rank,
    )


def _next_pow2(n):
    return 1 << max(0, (int(n) - 1).bit_length())


def auto_structure(image_dims, rank=1):
    """Deepest structure, zero-padding awkward extents to a power of two.

    An extent whose prime ladder contains a prime larger than 3 is padded
    to the next power of two before factorization.  Returns
    ``(structure, padded_from)`` where ``padded_from`` is the original
    extent tuple, or None when no padding was needed.  Every function that
    takes images and ``padded_from`` reads the original images where they
    lie, as if zero-padded; :func:`pad_images` makes the padded copy.
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


def _source_extents(shape, structure, padded_from):
    """``src``, the extent triple that images of extents ``shape`` span:
    ``padded_from`` for the unpadded originals of a padded structure, else
    the structure's dims3.  Accepted extents: ``padded_from``, image_dims,
    dims3, or one canonical vec.  No reader pads images: their voxels are
    the low corner ``src`` of the structure's extents, and the voxels
    beyond it are zero."""
    shape = tuple(shape)
    if padded_from is not None and shape == tuple(padded_from):
        return _triple(padded_from)
    if shape in (structure.image_dims, structure.dims3, (structure.n_voxels,)):
        return structure.dims3
    expect = tuple(padded_from) if padded_from is not None else structure.image_dims
    raise DimensionError(f"image extents {shape} do not match the structure's {expect}")


class _ImageBlocks:
    """``n`` images of extents ``shape``, read in sample blocks: ``blocks()``
    yields ``(s, rows)`` for s = 0, size, 2 size, ..., where row i of the
    float64 matrix ``rows`` is image s + i ravelled in ``order`` ("C" or
    "F", :func:`_memory_order`).

    A float64 array is one block, its own rows (a view where its strides
    allow).  An array of another dtype, or a list of DKT1 files (each one
    image, its entries in canonical order, so ``order`` is "F"), is read
    block by block into one buffer of ``size`` images, reused for every
    block: an array is cast into it, and files are read into it by
    ``tensor_core._read_dkt_rows``, which checks each header, length and
    extents as ``read_dkt_stack`` does.  ``size`` is as many images as fit
    in ``_BLOCK_BYTES``, but at most ``_STACK_TILE[0]`` and at least 8, so
    that a block fills a cache line of every stack row it writes: with one
    2 MB image a block, a 64^3 stack of 64 files built about 4 times slower
    than with 8.  A block's rows hold until the next block is read."""

    def __init__(self, array=None, paths=None):
        self.array, self.paths = array, paths
        if paths is not None:
            self.n, self.shape, self.order = len(paths), _dkt_extents(paths), "F"
        else:
            self.n, self.shape, self.order = array.shape[0], array.shape[1:], _memory_order(array)
        self.whole = array is not None and array.dtype == np.float64
        if self.whole:
            self.size = self.n
        else:  # at least 8 images: a cache line of every stack row per block
            self.size = min(_STACK_TILE[0], max(8, _BLOCK_BYTES // (8 * math.prod(self.shape))))

    def blocks(self):
        if self.whole:
            yield 0, self.array.reshape(self.n, -1, order=self.order)
            return
        buf = np.empty((self.size, math.prod(self.shape)), dtype="<f8")
        for s in range(0, self.n, self.size):
            rows = buf[: min(self.size, self.n - s)]
            if self.paths is None:
                rows[...] = self.array[s : s + len(rows)].reshape(len(rows), -1, order=self.order)
            else:
                _read_dkt_rows(self.paths[s : s + len(rows)], rows, self.shape, self.paths[0])
            yield s, rows


def _image_blocks(images, structure, padded_from=None):
    """The images as the :class:`_ImageBlocks` that every image reader of
    this module reads, and ``src`` (:func:`_source_extents`).  ``images``
    is an ``(n, *image_dims)`` array in its own dtype and memory order (or
    a list of tensors, stacked in float64, or an ``(n, n_voxels)`` matrix of
    canonical vecs), the ordered paths of n DKT1 files of one image each,
    or such blocks already."""
    if isinstance(images, _ImageBlocks):
        x = images
    elif isinstance(images, (list, tuple)) and images and all(
            isinstance(p, (str, os.PathLike)) for p in images):
        x = _ImageBlocks(paths=list(images))
    else:
        array = np.asarray(images, dtype=np.float64 if isinstance(images, (list, tuple)) else None)
        if array.ndim < 2 and array.size:  # an empty list is no images, refused below
            raise DimensionError("expected a stack of images")
        x = _ImageBlocks(array)
    if x.n == 0:
        raise DimensionError("need at least one image")
    return x, _source_extents(x.shape, structure, padded_from)


def _vectorize_images(images, structure, padded_from=None, weights=None):
    """The solver's image stack: a C-contiguous ``(n_voxels, n)`` array whose
    column i is image i at the structure's (padded) extents in layer-digit
    order, ``reshape_T(X_i, factor_dims).ravel()``, so that every
    contraction of it is one contiguous matmul.  With ``weights``, the pair
    of the stack and :func:`_weighted_sum` of the images, summed in the
    same pass.

    It is copied straight from the caller's images (:func:`_image_blocks`),
    unpadded ones of a padded structure included, block by block, in tiles
    of ``_STACK_TILE`` (images, voxels).  A tile's voxels are a run
    contiguous in the padded images' memory order, so a box of them: the
    part of the box inside the caller's images is copied into a buffer whose
    rows sit a cache line further apart than the run (so the images' lines
    do not share cache sets), the rest of it is zeroed, and one
    transposed-view assignment puts the tile in the stack.  A block's tiles
    are split among ``_stack_workers`` threads of a pool made for the call
    (below 32 MB they are copied inline), each with its own buffer; a copy
    has no sums, so the stack's bytes do not depend on their number, nor on
    the blocks.
    """
    x, src = _image_blocks(images, structure, padded_from)
    n, v, fd = x.n, structure.n_voxels, structure.factor_dims
    modes = (0, 1, 2) if x.order == "C" else (2, 1, 0)  # the images' slowest mode first
    # One axis per (mode, layer) digit of extent > 1, in the stack's order and
    # in the images' memory order; a mode's layer-1 digit is its slowest.
    digits = [(m, l) for l in range(len(fd)) for m in (2, 1, 0) if fd[l][m] > 1]
    mem = [(m, l) for m in modes for l in range(len(fd)) if fd[l][m] > 1]
    extent = [fd[l][m] for m, l in mem]
    out = np.empty((v, n))
    dst = out.reshape([fd[l][m] for m, l in digits] + [n])
    dst = dst.transpose([digits.index(a) for a in mem] + [len(mem)])
    bs, run, j = max(1, min(_STACK_TILE[0], x.size)), v, 0
    while run > _STACK_TILE[1]:  # fix the slowest memory digits: one run per tile
        run //= extent[j]
        j += 1
    # A tile's run spans, per mode, the box of its free digits, and starts
    # where its fixed digits place it.
    width = [math.prod(fd[l][m] for m, l in mem[j:] if m == mode) for mode in modes]
    place = [(modes.index(m), math.prod(fd[k][m] for k in range(l + 1, len(fd))))
             for m, l in mem[:j]]
    boxes = []
    for outer in np.ndindex(*extent[:j]):
        start = [0, 0, 0]
        for (axis, step), i in zip(place, outer):
            start[axis] += i * step
        boxes.append((outer, tuple(slice(a, a + w) for a, w in zip(start, width))))
    # One buffer per thread: as many threads as a whole block has tiles, at most.
    k = max(1, min(_stack_workers(out.nbytes), len(boxes) * -(-x.size // bs)))
    bufs = [np.empty((bs, run + 8))[:, :run] for _ in range(k)]

    def copy_tiles(part):
        buf, tiles = part
        for s, (outer, at) in tiles:
            b = min(bs, box.shape[0] - s)
            tile = buf[:b].reshape([b] + width)
            inside = box[(slice(s, s + b),) + at]
            if inside.shape != tile.shape:  # a box that crosses the padding
                tile[...] = 0
            tile[tuple(slice(0, e) for e in inside.shape)] = inside
            dst[outer + (..., slice(s0 + s, s0 + s + b))] = np.moveaxis(
                tile.reshape([b] + extent[j:]), 0, -1)

    # An outer index's tiles fill its stack rows whole, one sample block after
    # another; each thread takes one run of consecutive tiles of the block.
    # The pool's ``with`` joins every thread, so none outlives the call.
    agg = None
    with ThreadPoolExecutor(k) if k > 1 else contextlib.nullcontext() as pool:
        for s0, rows in x.blocks():
            box = rows.reshape([rows.shape[0]] + [src[m] for m in modes])
            tiles = [(s, a) for a in boxes for s in range(0, rows.shape[0], bs)]
            t = max(1, min(k, len(tiles)))
            parts = [(bufs[i], tiles[len(tiles) * i // t:len(tiles) * (i + 1) // t])
                     for i in range(t)]
            if t == 1:
                copy_tiles(parts[0])
            else:
                list(pool.map(copy_tiles, parts))
            if weights is not None:
                agg = _accumulate(agg, weights[s0 : s0 + len(rows)], s0, rows)
    if weights is None:
        return out
    return out, _canonical(agg, src, x.order, structure)


def _stack_workers(nbytes):
    """Threads that copy a solver stack of ``nbytes``: one, the caller's, below
    ``_INLINE_STACK_BYTES``; otherwise one per CPU this process may run on."""
    if nbytes < _INLINE_STACK_BYTES:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _memory_order(x):
    """"C" when a stack's images are stored row-major, else "F"."""
    return "C" if x.ndim > 2 and x.strides[-1] < x.strides[1] else "F"


def _coefficient_rows(coeff, structure, src, order):
    """A composed coefficient at the structure's extents (or such
    coefficients stacked along a fourth axis), cropped to ``src`` and
    ravelled in ``order``: the vector (or matrix) that image rows ravelled
    in that order are contracted against."""
    batch = np.shape(coeff)[3:]
    c = np.reshape(coeff, structure.dims3 + batch, order="F")[tuple(slice(0, e) for e in src)]
    return np.reshape(c, (-1,) + batch, order=order)


def _inner_products(images, coeff, structure, padded_from=None):
    """<X_i, C> for every image i, where ``coeff`` is a composed coefficient
    at the structure's extents, or such coefficients stacked along a fourth
    axis (the result then has one column per coefficient).

    The images are contracted block by block in their own memory order
    (:func:`_image_blocks`), so no stack is built: a C-ordered stack against
    the C-ravelled coefficient, a stack of column-major tensors (as read
    from DKT1 files) against vec(C), and unpadded images of a padded
    structure against the cropped coefficient.
    """
    x, src = _image_blocks(images, structure, padded_from)
    c = _coefficient_rows(coeff, structure, src, x.order)
    out = np.empty((x.n,) + c.shape[1:])
    for s, rows in x.blocks():
        out[s : s + rows.shape[0]] = rows @ c
    return out


def _weighted_sum(images, w, structure, padded_from=None):
    """sum_i w_i vec(X_i) at the structure's extents, zero beyond the images'
    own voxels, the adjoint of :func:`_inner_products`: summed block by
    block in the images' own memory order, so no stack is built.  A
    non-finite sum is traced to the first image with a non-finite pixel
    (which spoils the sum even where its weight is 0) and raised as a
    DimensionError naming it; otherwise it is returned as is.
    """
    x, src = _image_blocks(images, structure, padded_from)
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (x.n,):
        raise DimensionError(f"weights of shape {w.shape} for {x.n} images")
    agg = None
    for s, rows in x.blocks():
        agg = _accumulate(agg, w[s : s + len(rows)], s, rows)
    return _canonical(agg, src, x.order, structure)


def _accumulate(agg, w, s, rows):
    """``agg`` (None before the first block) plus ``w @ rows``, the block of
    images from image s on weighted by ``w``.  A non-finite sum raises a
    DimensionError naming the block's first image with a non-finite pixel,
    if it has one."""
    with np.errstate(invalid="ignore", over="ignore"):
        part = w @ rows
        if agg is not None:
            part += agg
    if not np.all(np.isfinite(part)):
        bad = np.flatnonzero(~np.all(np.isfinite(rows), axis=1))
        if bad.size:
            raise DimensionError(f"image {s + bad[0]} has a non-finite pixel")
    return part


def _canonical(agg, src, order, structure):
    """An image sum over ``src`` ravelled in ``order`` as a canonical vec at
    the structure's extents, zero beyond ``src``."""
    out = np.zeros(structure.dims3, order="F")
    out[tuple(slice(0, e) for e in src)] = np.reshape(agg, src, order=order)
    return np.reshape(out, -1, order="F")


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

    def __post_init__(self):
        if self.max_sweeps < 1:
            raise DimensionError(f"max_sweeps must be >= 1, got {self.max_sweeps}")
        if not 0 <= self.tol < math.inf:
            raise DimensionError(f"tol must be finite and >= 0, got {self.tol}")
        if self.ridge is not None and not 0 <= self.ridge < math.inf:
            raise DimensionError(f"ridge must be finite and >= 0, got {self.ridge}")


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


def init_spectral(images, response, structure, padded_from=None):
    """Spectral starting values: for each layer boundary l = 2..L, the top-R
    left singular vectors of the response-weighted image aggregate reshaped
    against the composed upper extents.  ``padded_from`` is as in
    :func:`fit`: unpadded images are summed where they lie.

    Returns {l: [R unit vectors]} including the convention entry at L+1
    (all-ones scalars).
    """
    left, _ = _spectral_seeds(_weighted_sum(images, response, structure, padded_from), structure)
    return left


def _check_layer(structure, l):
    if not 1 <= l <= structure.depth:
        raise DimensionError(f"layer {l} outside 1..{structure.depth}")


@lru_cache(maxsize=256)
def _digits(structure, first, last):
    """Index map from the canonical vec of layers first..last composed to
    layer-digit order (``kron_ops.reshape_T_indices``); the full slice for
    an empty range, whose product is a scalar."""
    fd = structure.factor_dims[first - 1 : last]
    return reshape_T_indices(_composed_extents(fd), fd) if fd else slice(None)


def _split_layer(structure):
    """The layer m in 1..L-1 at which ``fit`` splits a sweep whose upper
    products are chains of factors: the one minimising K_m + n_voxels / K_m
    (ties go to the lower layer), where K_m = |B_1| ... |B_m| and n_voxels /
    K_m are the rows each term keeps of the stack against its two products."""
    k = np.cumprod([structure.layer_size(l) for l in range(1, structure.depth)])
    return 1 + int(np.argmin(k + structure.n_voxels // k))


def _lower_product(chain, l):
    """A term's lower product of layers 1..l in layer-digit order,
    ``np.kron(vec(B_1), ..., vec(B_l))``."""
    return reduce(_kron, [vec(f) for f in chain[:l]])


def _upper_products(factors, top, last):
    """Every term's upper products in layer-digit order, ``{l: [...]}`` for
    l = 2..last+1: its layers l..last composed onto ``top[r]``, which is
    the entry at last+1."""
    out = {last + 1: top}
    for l in range(last, 1, -1):
        out[l] = [_kron(vec(chain[l - 1]), u) for chain, u in zip(factors, out[l + 1])]
    return out


def _chain_factors(v, factor_dims):
    """Factors ``[B_1, ..., B_k]`` of the given extents whose chain
    ``np.kron(vec(B_1), ..., vec(B_k))`` approximates ``v``, a vec in
    layer-digit order, by successive rank-1 SVDs: B_1 is the top left
    singular vector of v as a (|B_1|, rest) matrix, and the rest, scaled by
    its singular value, is factored on.  Each step is the nearest Kronecker
    product (Van Loan & Pitsianis, 1993), so an exact chain is recovered
    up to the scale and sign of its factors."""
    out = []
    for fd in factor_dims[:-1]:
        u, s, vt = np.linalg.svd(v.reshape(int(np.prod(fd)), -1), full_matrices=False)
        out.append(unvec(u[:, 0], fd))
        v = s[0] * vt[0]
    return out + [unvec(v, factor_dims[-1])]


def _rank_start(model, family, images, y, structure):
    """Starting factors for ``structure.rank`` terms from a fitted ``model``
    of lower rank: its own chains, then one chain per added term.  Added
    term k gets a zero layer-1 factor, so the start's linear predictor is
    the model's, and layers 2..L from the chain nearest to the k-th spectral
    seed at layer 2 (:func:`_spectral_seeds`) of the score aggregate
    sum_i (y_i - mu_i) vec(X_i), with y checked and mu the model's mean
    (:func:`predict`), both summed in one pass over the images.  A rank that
    the seeds of a cold fit could not support is refused the same way.
    """
    x, src = _image_blocks(images, structure, model.padded_from)
    c = _coefficient_rows(compose_coeff(model.factors), structure, src, x.order)
    agg = None
    for s, rows in x.blocks():
        eta = rows @ c + model.intercept
        agg = _accumulate(agg, y[s : s + len(rows)] - family.mean(eta), s, rows)
    left, _ = _spectral_seeds(_canonical(agg, src, x.order, structure), structure)
    fd, upper = structure.factor_dims, _digits(structure, 2, structure.depth)
    added = left[2][: structure.rank - model.structure.rank]
    return [list(chain) for chain in model.factors] + [
        [np.zeros(fd[0])] + _chain_factors(v[upper], fd[1:]) for v in added
    ]


def _upper_pass(t, ups):
    """The stack against every term's upper product in one matmul: ``(R, rows/m, n)``."""
    return np.ascontiguousarray(_contract_upper(t, np.stack(ups)).transpose(1, 0, 2))


def _layer_design(lows, ups):
    """The layer-l design, ``(n, R * d_l * p_l * q_l)``, from each term's
    stack already contracted against its lower product (layers 1..l-1) and
    its upper product (layers l+1..L), in layer-digit order.  Column block
    r multiplies term r's layer-l factor.  From a generator of ``lows``,
    one contracted stack is held at a time."""
    return np.concatenate([_contract_upper(w, u) for w, u in zip(lows, ups)]).T


def build_design(images, structure, l, left, right, padded_from=None):
    """Design matrix for the layer-l subproblem, ``(n, R * d_l * p_l * q_l)``.

    ``left`` holds the composed upper products (layers l+1..L) and
    ``right`` the composed lower products (layers 1..l-1), one canonical
    vec per rank term.  Column block r (size d_l*p_l*q_l) multiplies term
    r's layer-l factor, so ``design @ stacked_factors`` reproduces the full
    model's linear predictor exactly.  Each call copies ``images`` into the
    solver's stack once and maps the products into its order (see
    :func:`_design`); ``padded_from`` is as in :func:`fit`.  Pixels are not
    checked: a non-finite pixel makes its image's design row non-finite.
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
    return _design(_vectorize_images(images, structure, padded_from), structure, l, left, right)


def _design(vec_x, structure, l, left, right):
    """:func:`build_design` of the solver's stack ``vec_x``, at canonical
    products already checked.  At layer 1 the lower products are scalars,
    which scale the upper products so the stack is contracted only once."""
    ups = [u[_digits(structure, l + 1, structure.depth)] for u in left]
    if l == 1:
        out = _upper_pass(vec_x, [w[0] * u for w, u in zip(right, ups)])
        return out.reshape(-1, vec_x.shape[1]).T
    lo = _digits(structure, 1, l - 1)
    return _layer_design((_contract_lower(vec_x, w[lo]) for w in right), ups)


def partial_products(model, l, side):
    """Composed factor products per term: layers l..L ("left") or 1..l ("right").

    Convention boundaries: left at l = L+1 and right at l = 0 are scalar ones.
    """
    L = model.structure.depth
    if side not in ("left", "right"):
        raise DimensionError(f"side must be 'left' or 'right', got {side!r}")
    lo, hi = (1, L + 1) if side == "left" else (0, L)
    if not lo <= l <= hi:
        raise DimensionError(f"{side} products need {lo} <= l <= {hi}, got {l}")
    chains = [c[l - 1 :] if side == "left" else c[:l] for c in model.factors]
    return [vec(kron_chain(c)) if c else np.ones(1) for c in chains]


def _split_beta(beta, structure, l):
    """Every term's layer-l factor from a layer-l solution: term r's is the
    r-th of its R equal blocks, as views."""
    fd = structure.factor_dims[l - 1]
    return [b.reshape(fd, order="F") for b in beta.reshape(structure.rank, -1)]


def _solve_layer(family, design, y, ridge, beta0=None):
    """GLM solution of one layer's subproblem, warm-started from ``beta0``
    (see :func:`glm.fit_glm`).  A rank-deficient solve under an explicit
    positive ``ridge`` is retried once with the default ridge.  Otherwise
    the error stands: ``ridge=None`` already solved with the default ridge,
    and an explicit 0.0 asks for no penalty.  The solve is ``glm._solve``
    without ``fit_glm``'s checks: its one caller, :func:`_layer_step`,
    checks the design and the warm start, and :func:`scan_rank` and
    :func:`sweep_update` check the response once per call."""
    try:
        return glm._solve(family, design, y, glm._ridge(design, ridge), beta0)[0]
    except RankDeficiencyError:
        if ridge is None or ridge == 0.0:
            raise
        return glm._solve(family, design, y, glm._ridge(design, None), beta0)[0]


def _layer_step(family, design, y, ridge, structure, factors, l):
    """The one layer update: solve the layer-l ``design`` (:func:`_solve_layer`),
    warm-started from the held layer-l factors (none before a cold fit's first
    sweep; a non-finite one is refused), and write the solution back into
    ``factors`` (:func:`_split_beta`).  Returns the solution."""
    beta0 = None if factors[0][l - 1] is None else np.concatenate([vec(c[l - 1]) for c in factors])
    glm._check(design, y, beta0)
    beta = _solve_layer(family, design, y, ridge, beta0)
    for chain, f in zip(factors, _split_beta(beta, structure, l)):
        chain[l - 1] = f
    return beta


def sweep_update(model, images, response, family=None, l=1, options=None, left=None):
    """Solve the layer-l subproblem once and return the updated model: one
    layer step of :func:`fit` on a copy of the model's factors, against the
    response (checked as ``fit`` checks it) less the model's intercept, with
    the images read at the model's ``padded_from``.  Upper partial products
    default to those composed from the model's current factors; pass
    ``left`` to reproduce the sweep schedule, where they lag one sweep behind.
    """
    structure = model.structure
    _check_layer(structure, l)
    options = options or FitOptions()
    family = glm.get_family(family or model.family)
    x = _image_blocks(images, structure, model.padded_from)[0]
    y = _checked_inputs(x.n, response, structure, family, options)[0] - model.intercept
    if left is None:
        left = partial_products(model, l + 1, "left")
    right = partial_products(model, l - 1, "right")
    design = build_design(x, structure, l, left, right, model.padded_from)
    factors = [[f.copy() for f in chain] for chain in model.factors]
    beta = _layer_step(family, design, y, options.ridge, structure, factors, l)
    info = {"layer": l, "objective": glm.nll(family, design, beta, y)}
    return replace(model, factors=factors, family=family.name), info


def fit(images, response, structure, family="gaussian", options=None, padded_from=None):
    """Alternating-minimization fit of a Kronecker-factored GLM coefficient.

    Parameters
    ----------
    images : array-like or list of paths
        Stack of n images, ``(n, *image_dims)`` (or a list of tensors, or
        an ``(n, n_voxels)`` matrix of canonical vecs), or the ordered
        paths of n DKT1 files of one image each.  Files, and arrays of
        another dtype than float64, are read block by block into the
        solver's stack, and the fit holds no array of the images.
    response : array-like, length n
    structure : DknStructure, or a dict of its fields
        Image extents, factor extents per layer, and the rank R.
    family : "gaussian" or "bernoulli"
    options : FitOptions
        ``center_response`` (gaussian only) fits on y - mean(y) and stores
        the mean as the model intercept.  ``trace_truth`` may hold the true
        coefficient tensor; the report then records the angular distance to
        it after every sweep.  ``trace_factors`` keeps per-sweep factor
        snapshots for contraction diagnostics.
    padded_from : tuple, optional
        Original image extents of a padded structure (see
        :func:`auto_structure`): images of these extents are read where they
        lie, as if zero-padded, and padded ones are accepted as well.

    Returns
    -------
    (model, report) : the fitted, normalized model and a FitReport.

    The sweep schedule: layers update in order 1..L, each against upper
    products from the previous sweep and lower products already refreshed
    this sweep; after layer L the upper products are recomposed from the
    new factors.  Stops when the objective's relative change drops below
    ``options.tol`` or after ``options.max_sweeps`` sweeps.  The report's
    BIC is :func:`bic` of the model, to rounding, but taken from the last
    sweep's linear predictor, the layer-L design times its solution: no
    pass over the images is made for it.  Each sweep is one ``next`` of the
    private generator ``_sweeps``.  A partial product whose norm (for a
    lower one, its factors' norm product) falls below ``COLLAPSE_TOL`` is
    reseeded and logged in ``report.collapse_events``, event k drawing
    reseed stream k: an upper one for its layer's solve only, a lower one
    (layers 1..l-1) by unit random factors that replace that term's factors
    of those layers, so every recorded objective is the nll of the factors
    the fit holds at the end of its sweep.  ``fit`` is :func:`scan_rank` of
    the structure's one rank, so its ``wall_time_s`` includes the stack build.
    """
    structure = _as_structure(structure)
    scan = scan_rank(images, response, structure, [structure.rank], family, options, padded_from)
    return scan.best_model, scan.reports[structure.rank]


def _fit(stack, y_raw, intercept, truth_vec, structure, family, options, padded_from, start=None):
    """One rank's sweeps on what :func:`scan_rank` prepares once per call:
    ``stack`` is the solver stack and the cold fit's aggregate, as
    :func:`_vectorize_images` returns them for the centered response,
    ``y_raw``, ``intercept`` and ``truth_vec`` are :func:`_checked_inputs`'s,
    and ``family`` is a family object.  Started from the factor chains
    ``start`` (one per term) instead of spectral seeds when given.  Every
    upper product is then a chain, so sweep 1 splits at ``_split_layer`` and
    warm-starts its layer solves from the start's factors like later sweeps;
    a collapsed upper product is reseeded by a random unit vector, as no
    spectral pool is formed.  The caller sets the report's ``wall_time_s``."""
    vec_x, agg = stack
    y = y_raw - intercept
    L, R = structure.depth, structure.rank
    report = FitReport(family=family.name, rank=R, param_count=structure.param_count,
                       dist_trace=None if truth_vec is None else [],
                       snapshots=[] if options.trace_factors else None)
    if start is None:
        left, pools = _spectral_seeds(agg, structure)
        factors = [[None] * L for _ in range(R)]
        # up[l][r]: term r's upper product (layers l..L) in layer-digit order.
        up = {l: [v[_digits(structure, l, L)] for v in vs] for l, vs in left.items()}
    else:
        pools = {}
        factors = [list(chain) for chain in start]
        up = _upper_products(factors, [np.ones(1)] * R, L)
    sweeps = _sweeps(vec_x, y, family, structure, options, factors, up, pools, report.collapse_events)
    for t, (design, beta) in zip(range(1, options.max_sweeps + 1), sweeps):
        # The layer-L design is the stack contracted against every lower
        # product, so design @ beta is the coefficient's linear predictor.
        eta = design @ beta
        report.objective_trace.append(glm.nll_eta(family, eta, y))
        if truth_vec is not None:
            report.dist_trace.append(dist(vec(compose_coeff(factors)), truth_vec))
        if options.trace_factors:
            report.snapshots.append(copy.deepcopy(factors))
        report.sweeps = t
        if t > 1:
            prev, obj = report.objective_trace[-2:]
            report.final_rel_change = abs(obj - prev) / (1.0 + abs(prev))
            if report.final_rel_change < options.tol:
                report.converged = True
                break

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
    # :func:`bic` of the model, from the last sweep's linear predictor.
    nll = glm.nll_eta(family, eta + intercept, y_raw)
    report.bic = 2.0 * nll + structure.param_count * math.log(y_raw.shape[0])
    return model, report


def _checked_inputs(n, response, structure, family, options):
    """The response, its intercept and the vec of ``options.trace_truth``
    (None without one), after the checks :func:`scan_rank` makes once per
    call before it builds the solver stack: one finite response per image
    (of ``n``), ``center_response`` on the gaussian family only, and a trace
    truth at the image extents.  The intercept is the response mean when it
    is centered, else 0.0."""
    y = family.validate_response(response)
    if y.shape != (n,):
        raise DimensionError(f"response length {y.shape} does not match {n} images")
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise DimensionError(f"response row {bad[0]} is not finite ({y[bad[0]]})")
    intercept = 0.0
    if options.center_response:
        if family.name != "gaussian":
            raise DimensionError("center_response applies to the gaussian family only")
        intercept = float(np.mean(y))
    if options.trace_truth is None:
        return y, intercept, None
    truth = np.asarray(options.trace_truth, dtype=np.float64)
    if truth.ndim > 3 or _lift3(truth).shape != structure.dims3:
        raise DimensionError(f"trace_truth extents {truth.shape} do not match image extents")
    return y, intercept, vec(truth)


def _sweeps(vec_x, y, family, structure, options, factors, up, pools, events):
    """:func:`_fit`'s sweeps on the stack ``vec_x``, one per ``next``: each
    updates ``factors`` in place (all None before a cold fit's first sweep)
    and yields its layer-L design and solution.  Reseeds draw from ``pools``
    (unused spectral directions) and append to ``events``."""
    L, R = structure.depth, structure.rank

    def _reseed(side, l, r, t):
        """Term r's collapsed product, reseeded in layer-digit order: its upper
        product (layers l+1..L) by an unused spectral direction or a random
        unit vector, or its lower product (layers 1..l-1) by the chain of
        random unit factors, which are written into ``factors``."""
        event = {"sweep": t, "layer": l, "term": r + 1, "side": side, "source": "random"}
        g = rng.stream(options.seed, rng.PURPOSE_RESEED, len(events))  # event k, stream k
        events.append(event)
        if side == "right":
            for k in range(l - 1):
                f = g.standard_normal(structure.layer_size(k + 1))
                factors[r][k] = unvec(f / np.linalg.norm(f), structure.factor_dims[k])
            return _lower_product(factors[r], l - 1)
        if pools.get(l + 1):
            v = pools[l + 1].pop(0)
            event["source"] = "svd_pool"
        else:
            v = g.standard_normal(int(np.prod(structure.factor_dims[l:])))
            v /= np.linalg.norm(v)
        return v[_digits(structure, l + 1, L)]

    split = _split_layer(structure)
    for t in itertools.count(1):
        collapsed = {
            (l, r) for l in range(1, L + 1) for r in range(R)
            if np.linalg.norm(up[l + 1][r]) < COLLAPSE_TOL
        }
        # The sweep reads the stack twice, split at layer m.  At layer 1,
        # after its reseeds, it is contracted against every term's upper
        # product of layers m+1..L (``base``), and layers 1..m carry their
        # designs up from that against the upper products of layers l+1..m
        # (``mid``).  After layer m's solve it is contracted against every
        # term's new lower product of layers 1..m, and layers m+1..L carry
        # theirs up from that.  Spectral seeds and reseeded upper products
        # are not chains of factors, so such a sweep splits at m = 1.
        m = 1 if factors[0][0] is None or collapsed else split
        mid = _upper_products(factors, [np.ones(1)] * R, m)
        for l in range(1, L + 1):
            for r in range(R):
                if (l, r) in collapsed:
                    up[l + 1][r] = _reseed("left", l, r, t)
                # A chain's norm is its factors' norm product; layer 1's lower product is 1.
                if l > 1 and math.prod(map(np.linalg.norm, factors[r][: l - 1])) < COLLAPSE_TOL:
                    low[r] = _contract_lower(base[r] if l <= m else vec_x, _reseed("right", l, r, t))
            if l == 1:  # the stack's first pass: one matmul for every term
                low = base = list(_upper_pass(vec_x, up[m + 1]))
            design = _layer_design(low, mid[l + 1] if l <= m else up[l + 1])
            beta = _layer_step(family, design, y, options.ridge, structure, factors, l)
            if l == m:  # the stack's second pass: one matmul for every term
                lows = np.stack([_lower_product(chain, l) for chain in factors])
                low = list(_contract_lower(vec_x, lows))
            elif l < L:  # carry the chain up one layer
                low = [_contract_lower(w, vec(chain[l - 1])) for w, chain in zip(low, factors)]
        # Downward pass: recompose the upper products from this sweep's factors.
        up = _upper_products(factors, up[L + 1], L)
        yield design, beta


def normalize(model):
    """Canonical scaling: unit factors above layer 1, scale collected there.

    Per term, every factor above layer 1 is rescaled to unit Frobenius norm
    with its largest-magnitude entry made positive, the accumulated scale
    and sign folded into layer 1; terms are then ordered by non-increasing
    scale.  The composed coefficient is unchanged.
    """
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
    success probability for bernoulli.  Pixels are not checked, which would
    cost a pass of its own: an image with a non-finite pixel gets a
    non-finite prediction, and every other image its usual one."""
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
    """Fit each candidate rank and keep the BIC minimizer (ties: smaller rank).

    The one fit driver (:func:`fit` is a scan of one rank; ``images`` are as
    there): once per call it refuses a rank that is not an integer, a bool
    included, checks the inputs (:func:`_checked_inputs`), and only then
    builds the one solver stack, with the cold aggregate, that every rank reads.

    The smallest rank is fit cold, from spectral seeds.  Each larger rank
    starts from the factors fitted for the rank before it, plus one new
    term per added rank seeded by :func:`_rank_start`: a zero layer-1
    factor under the chain nearest to the next direction of the previous
    fit's score aggregate, for which each started rank reads the images
    once more.  So its first solve can keep the previous fit's linear
    predictor, and its final objective is no higher than that fit's, up to
    the ridge penalty of its solves.  A cold fit of any rank is one
    :func:`fit` call.  A rank's ``wall_time_s`` runs from the end of the
    previous rank, or from the call's start for the first.
    """
    t0 = time.perf_counter()
    structure = _as_structure(structure)
    if not np.iterable(ranks):
        raise DimensionError(f"ranks must be a list of integers, got {ranks!r}")
    ranks = list(ranks)
    bad = [r for r in ranks if not _is_number(r, Integral)]
    if bad:
        raise DimensionError(f"rank {bad[0]!r} is not an integer")
    structures = [replace(structure, rank=r) for r in sorted({int(r) for r in ranks})]
    if not structures:
        raise DimensionError("need at least one candidate rank")
    options = options or FitOptions()
    family = glm.get_family(family)
    x = _image_blocks(images, structure, padded_from)[0]
    y, intercept, truth_vec = _checked_inputs(x.n, response, structure, family, options)
    stack = _vectorize_images(x, structure, padded_from, y - intercept)
    models, reports, model = {}, {}, None
    for s in structures:
        start = None if model is None else _rank_start(model, family, x, y, s)
        model, rep = _fit(stack, y, intercept, truth_vec, s, family, options, padded_from, start)
        t1 = time.perf_counter()
        rep.wall_time_s, t0 = t1 - t0, t1
        models[s.rank], reports[s.rank] = model, rep
    bics = {r: rep.bic for r, rep in reports.items()}
    best = min(bics, key=bics.get)  # the first of equal BICs: the smaller rank
    return ScanResult(best_rank=best, best_model=models[best], reports=reports, bic_table=bics)


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
    _write_json(path, manifest)
    return path


def _parse_structure(sd, path, rank=None):
    """The :class:`DknStructure` that ``sd``, read from the JSON file
    ``path``, describes: its ``image_dims``, ``factor_dims`` and, unless
    ``rank`` is given, its ``rank`` (default 1).  An ``sd`` that is not an
    object, or a missing or ill-typed entry, is a :class:`DataFormatError`
    naming ``path``; extents that do not compose stay a DimensionError."""
    if not isinstance(sd, dict):
        raise DataFormatError(f"{path}: expected a structure object, got {sd!r}")
    try:
        image_dims = tuple(int(d) for d in sd["image_dims"])
        factor_dims = tuple(tuple(int(e) for e in fd) for fd in sd["factor_dims"])
        rank = int(sd.get("rank", 1)) if rank is None else rank
    except KeyError as exc:
        raise DataFormatError(f"{path}: missing structure entry {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: ill-typed structure entry ({exc})") from None
    return DknStructure(image_dims=image_dims, factor_dims=factor_dims, rank=rank)


def load_model(model_dir):
    path = os.path.join(model_dir, MANIFEST_NAME)
    try:
        manifest = _read_json(path)
    except FileNotFoundError:
        raise DataFormatError(f"{model_dir}: missing {MANIFEST_NAME}") from None
    if manifest.get("format") != _MODEL_FORMAT:
        raise DataFormatError(f"{path}: unsupported format {manifest.get('format')!r}")
    structure = _parse_structure(manifest.get("structure"), path)
    files = manifest.get("factor_files")
    if not isinstance(files, dict):
        raise DataFormatError(f"{path}: expected a factor_files object, got {files!r}")
    factors = []
    for r in range(1, structure.rank + 1):
        chain = []
        for l in range(1, structure.depth + 1):
            name = files.get(f"r{r}_l{l}")
            if not isinstance(name, str):
                raise DataFormatError(f"{path}: missing factor entry r{r}_l{l}")
            f = read_dkt(os.path.join(model_dir, name))
            if f.shape != structure.factor_dims[l - 1]:
                raise DataFormatError(
                    f"{name}: extents {f.shape} do not match manifest "
                    f"{structure.factor_dims[l - 1]}"
                )
            chain.append(f)
        factors.append(chain)
    padded = manifest.get("padded_from")
    try:
        return DknModel(
            structure=structure,
            factors=factors,
            family=manifest.get("family", "gaussian"),
            intercept=float(manifest.get("intercept", 0.0)),
            padded_from=tuple(padded) if padded else None,
        )
    except (TypeError, ValueError) as exc:  # family, intercept or padded_from
        raise DataFormatError(f"{path}: ill-typed entry ({exc})") from None
