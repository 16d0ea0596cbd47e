import itertools
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import dkn.dkn_fit as dkn_fit
from dkn import rng as rng_mod
from dkn.dkn_fit import (
    DknModel,
    DknStructure,
    FitOptions,
    auto_structure,
    bic,
    build_design,
    deepest_structure,
    fit,
    init_spectral,
    load_model,
    merge_to_depth,
    normalize,
    pad_images,
    partial_products,
    predict,
    save_model,
    scan_rank,
    sweep_update,
)
from dkn.cli import _image_paths
from dkn.dkn_fit import _vectorize_images
from dkn.errors import (
    ConvergenceError,
    DataFormatError,
    DegenerateDataError,
    DimensionError,
    RankDeficiencyError,
)
from dkn.glm import BERNOULLI, GAUSSIAN, IRLS_GRAD_TOL, default_ridge, fit_glm, nll_eta
from dkn.kron_ops import compose_coeff, kron_chain, reshape_R_indices, reshape_T, tkp
from dkn.tensor_core import dist, inner, read_dkt_stack, unvec, vec, write_dkt

S883 = DknStructure(image_dims=(8, 8), factor_dims=[(2, 2), (2, 2), (2, 2)])


def random_chains(rng, structure, scale_first=1.0):
    chains = []
    for _ in range(structure.rank):
        chain = [rng.standard_normal(fd) for fd in structure.factor_dims]
        chain[0] = chain[0] * scale_first
        chains.append(chain)
    return chains


def compose_image(chains, structure):
    """Composed coefficient at the image extents (drops unit modes)."""
    c = compose_coeff(chains)
    return c.reshape(structure.image_dims, order="F")


def canonical_rows(images):
    """The images as rows of canonical vecs, ``(n, n_voxels)``."""
    return np.stack([vec(x) for x in images])


def noiseless_problem(seed, n, structure, rank_chains=None):
    rng = np.random.default_rng(seed)
    chains = rank_chains or random_chains(rng, structure)
    coeff = compose_image(chains, structure)
    images = rng.standard_normal((n,) + coeff.shape)
    y = np.array([inner(x, coeff) for x in images])
    return images, y, coeff, chains


def test_structure_properties():
    s = DknStructure(image_dims=(8, 8), factor_dims=[(2, 2), (2, 2), (2, 2)], rank=2)
    assert s.depth == 3
    assert s.dims3 == (8, 8, 1)
    assert s.n_voxels == 64
    assert s.layer_size(2) == 4
    assert s.param_count == 2 * 12
    assert s.upper_extents(1) == (8, 8, 1)
    assert s.upper_extents(2) == (4, 4, 1)
    assert s.upper_extents(4) == (1, 1, 1)
    assert s.lower_extents(0) == (1, 1, 1)
    assert s.lower_extents(2) == (4, 4, 1)
    assert s.lower_extents(3) == (8, 8, 1)
    d = s.to_dict()
    assert d["rank"] == 2 and d["depth"] == 3
    assert d["factor_dims"] == [[2, 2, 1], [2, 2, 1], [2, 2, 1]]


def test_structure_validation():
    with pytest.raises(DimensionError):
        DknStructure(image_dims=(8, 8), factor_dims=[(2, 2)])  # depth 1
    with pytest.raises(DimensionError):
        DknStructure(image_dims=(8, 8), factor_dims=[(2, 2), (2, 2)])  # composes to 4
    with pytest.raises(DimensionError):
        DknStructure(image_dims=(8, 8), factor_dims=[(2, 2), (4, 4)], rank=0)
    s = DknStructure(image_dims=(8, 8), factor_dims=[(2, 2), (4, 4)])
    with pytest.raises(DimensionError):
        s.upper_extents(4)
    with pytest.raises(DimensionError):
        s.lower_extents(-1)


def test_deepest_structure_prime_ladders():
    s = deepest_structure((8, 8))
    assert s.factor_dims == ((2, 2, 1), (2, 2, 1), (2, 2, 1))
    s = deepest_structure((12,))
    assert s.factor_dims == ((2, 1, 1), (2, 1, 1), (3, 1, 1))
    s = deepest_structure((5, 4))
    assert s.depth == 2
    assert s.factor_dims == ((5, 2, 1), (1, 2, 1))
    s = deepest_structure((7, 7))
    assert s.factor_dims == ((7, 7, 1), (1, 1, 1))
    # the motivating compression example: 256^3 at depth 8, rank 3
    s = deepest_structure((256, 256, 256), rank=3)
    assert s.depth == 8
    assert s.param_count == 192
    for bad in [(4, 0), (2, 2, 2, 2), ()]:
        with pytest.raises(DimensionError, match=r"^expected 1\.\.3 positive extents, got "):
            deepest_structure(bad)


def test_merge_to_depth():
    s4 = deepest_structure((16, 16))
    assert s4.depth == 4
    s2 = merge_to_depth(s4, 2)
    assert s2.factor_dims == ((2, 2, 1), (8, 8, 1))
    assert merge_to_depth(s4, 4) == s4
    with pytest.raises(DimensionError):
        merge_to_depth(s4, 1)
    with pytest.raises(DimensionError):
        merge_to_depth(s4, 5)


@pytest.mark.parametrize("dims", [(48,), (12, 20), (8, 12, 18)])
def test_merge_to_depth_multiplies_the_top_layers(dims):
    """At every depth the merged top layer is the per-mode product of the
    layers it replaces, and the lower layers are kept as they are."""
    s = deepest_structure(dims, rank=2)
    for depth in range(2, s.depth + 1):
        top = [1, 1, 1]
        for extents in s.factor_dims[depth - 1 :]:
            top = [a * b for a, b in zip(top, extents)]
        merged = merge_to_depth(s, depth)
        assert merged.factor_dims == s.factor_dims[: depth - 1] + (tuple(top),)
        assert (merged.image_dims, merged.rank) == (s.image_dims, s.rank)


def test_auto_structure_pads_awkward_extents():
    s, padded_from = auto_structure((8, 8))
    assert padded_from is None and s.image_dims == (8, 8)
    s, padded_from = auto_structure((12, 10))
    assert padded_from == (12, 10)
    assert s.image_dims == (12, 16)  # 10 = 2*5 carries a prime > 3
    s, padded_from = auto_structure((12, 12))
    assert padded_from is None  # 12 = 2*2*3 factors cleanly


def test_pad_images():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 4, 5))
    p = pad_images(x, (4, 5), (4, 8))
    assert p.shape == (3, 4, 8)
    assert np.array_equal(p[:, :, :5], x)
    assert np.all(p[:, :, 5:] == 0)
    with pytest.raises(DimensionError):
        pad_images(x, (4, 5), (4, 4))
    with pytest.raises(DimensionError):
        pad_images(x, (5, 5), (8, 8))


def test_vectorize_images_layouts():
    """Every accepted layout gives the solver's stack: C-contiguous
    (n_voxels, n), column i image i in layer-digit order."""
    rng = np.random.default_rng(1)
    x = rng.standard_normal((6, 8, 8))
    layouts = {
        "stack": x,
        "list": [x[i] for i in range(6)],
        "dims3": x.reshape(6, 8, 8, 1),
        "column-major images": np.stack([np.asfortranarray(t) for t in x]),
        "fully column-major": np.asfortranarray(x),
        "canonical rows": np.stack([vec(t) for t in x]),
    }
    for name, images in layouts.items():
        stack = _vectorize_images(images, S883)
        assert stack.shape == (64, 6), name
        assert stack.flags.c_contiguous, name
        for i in range(6):
            assert np.array_equal(stack[:, i], reshape_T(x[i], S883.factor_dims).ravel()), name
    with pytest.raises(DimensionError):
        _vectorize_images(rng.standard_normal((6, 8, 4)), S883)


def serial_stack(images, structure, padded_from=None):
    """The solver stack as the one-thread build made it, from a zero-padded
    copy of unpadded images: the oracle for ``_vectorize_images``."""
    blocks, src = dkn_fit._image_blocks(images, structure, padded_from)
    x = blocks.array
    if src != structure.dims3:
        x = pad_images(x, padded_from, structure.image_dims)
    n, v, fd = x.shape[0], structure.n_voxels, structure.factor_dims
    order = dkn_fit._memory_order(x)
    digits = [(m, l) for l in range(len(fd)) for m in (2, 1, 0) if fd[l][m] > 1]
    mem = sorted(digits, key=lambda a: (a[0] if order == "C" else -a[0], a[1]))
    extent = [fd[l][m] for m, l in mem]
    out = np.empty((v, n))
    dst = out.reshape([fd[l][m] for m, l in digits] + [n])
    dst = dst.transpose([digits.index(a) for a in mem] + [len(mem)])
    rows = x.reshape(n, v, order=order).reshape([n] + extent)
    bs, run, j = 256, v, 0
    while run > 512:
        run //= extent[j]
        j += 1
    buf = np.empty((bs, run + 8))[:, :run]
    for s, outer in itertools.product(range(0, n, bs), np.ndindex(*extent[:j])):
        tile = buf[: min(bs, n - s)].reshape([-1] + extent[j:])
        tile[...] = rows[(slice(s, s + bs),) + outer]
        dst[outer + (..., slice(s, s + bs))] = np.moveaxis(tile, 0, -1)
    return out


def column_major(x):
    """The images of ``x`` each stored column-major, samples slowest: the
    layout ``read_dkt_stack`` returns."""
    axes = [0] + list(range(x.ndim - 1, 0, -1))
    return np.ascontiguousarray(x.transpose(axes)).transpose(axes)


# Image extents of order 1..3, each with a padded counterpart: 1500 carries
# a 5, 23 is prime, 45 = 9*5 and 10 = 2*5, so auto_structure pads them.
_STACK_DIMS = [(2048,), (48, 32), (12, 8, 16), (1500,), (23, 45), (7, 12, 10)]


def test_column_major_is_the_dkt_stack_layout(tmp_path):
    x = np.random.default_rng(0).standard_normal((2, 3, 4, 5))
    paths = [tmp_path / f"{i}.dkt" for i in range(2)]
    for p, t in zip(paths, x):
        write_dkt(p, t)
    got = read_dkt_stack(paths)
    assert got.strides == column_major(x).strides and np.array_equal(got, x)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("dims", _STACK_DIMS, ids=str)
def test_solver_stack_matches_the_serial_oracle(monkeypatch, dims, workers):
    """The stack is the serial build's byte for byte, for C-ordered and
    column-major images, padded or not, at any worker count, more workers
    than cores included, with threads switched as often as possible."""
    monkeypatch.setattr(dkn_fit, "_stack_workers", lambda nbytes: workers)
    structure, padded_from = auto_structure(dims)
    assert (padded_from is not None) == (dims in _STACK_DIMS[3:])
    rng = np.random.default_rng(len(dims) + workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n in (1, 255, 256, 257):
            x = rng.standard_normal((n,) + dims)
            for images in (x, column_major(x)):
                want = serial_stack(images, structure, padded_from)
                got = _vectorize_images(images, structure, padded_from)
                assert got.flags.c_contiguous, (n, images.strides)
                assert got.tobytes() == want.tobytes(), (n, images.strides)
    finally:
        sys.setswitchinterval(interval)


def test_solver_stack_of_32_mb_matches_the_serial_oracle():
    """A stack of at least 32 MB is built on every CPU the process may use
    (inline on one), and is still the serial build's byte for byte."""
    structure, padded_from = auto_structure((91, 109))
    x = np.random.default_rng(3).standard_normal((257, 91, 109))
    got = _vectorize_images(x, structure, padded_from)
    assert got.nbytes >= dkn_fit._INLINE_STACK_BYTES
    assert dkn_fit._stack_workers(got.nbytes) == len(os.sched_getaffinity(0))
    assert dkn_fit._stack_workers(dkn_fit._INLINE_STACK_BYTES - 8) == 1
    assert got.tobytes() == serial_stack(x, structure, padded_from).tobytes()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("dims", [(91, 109), (12, 13, 11)], ids=str)
def test_solver_stack_peaks_at_one_stack_for_unpadded_images(monkeypatch, dims, workers):
    """Unpadded images of a padded structure get no padded copy: the build
    peaks at the stack plus one tile buffer per worker, where a padded copy
    first would peak at about two stacks."""
    monkeypatch.setattr(dkn_fit, "_stack_workers", lambda nbytes: workers)
    structure, padded_from = auto_structure(dims)
    x = np.random.default_rng(4).standard_normal((-(-(1 << 20) // structure.n_voxels),) + dims)
    tile_bytes = dkn_fit._STACK_TILE[0] * (dkn_fit._STACK_TILE[1] + 8) * 8
    tracemalloc.start()
    try:
        stack = _vectorize_images(x, structure, padded_from)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stack.nbytes >= 8 << 20
    assert peak < stack.nbytes + workers * tile_bytes + (64 << 10), (peak, stack.nbytes)


def test_stack_threads_end_with_the_call(monkeypatch):
    """``fit`` and ``scan_rank`` copy a large stack on a thread pool of the
    call's own and leave no thread behind; a small one is copied inline; and
    a copy that raises on a worker thread surfaces in the caller after every
    thread has been joined."""
    monkeypatch.setattr(dkn_fit, "_stack_workers", lambda nbytes: 3)
    started = []

    class Counted(ThreadPoolExecutor):
        def map(self, fn, parts):
            started.append(len(parts))
            return super().map(fn, parts)

    monkeypatch.setattr(dkn_fit, "ThreadPoolExecutor", Counted)
    structure = DknStructure(image_dims=(32, 32), factor_dims=[(2, 2), (4, 4), (4, 4)])
    images, y, _, _ = noiseless_problem(6, 300, structure)
    before = threading.active_count()
    fit(images, y, structure, options=FitOptions(max_sweeps=3))
    scan_rank(images, y, structure, [1, 2], options=FitOptions(max_sweeps=3))
    assert started == [3, 3]
    assert threading.active_count() == before

    monkeypatch.setattr(dkn_fit, "_stack_workers", lambda nbytes: 1)
    fit(images, y, structure, options=FitOptions(max_sweeps=1))
    assert started == [3, 3]

    monkeypatch.setattr(dkn_fit, "_stack_workers", lambda nbytes: 3)
    caller = threading.current_thread()

    class Failing(ThreadPoolExecutor):
        def map(self, fn, parts):
            def copy(part):
                assert threading.current_thread() is not caller
                if part is parts[1]:
                    raise MemoryError("worker")
                fn(part)
            return super().map(copy, parts)

    monkeypatch.setattr(dkn_fit, "ThreadPoolExecutor", Failing)
    with pytest.raises(MemoryError, match="worker"):
        _vectorize_images(images, structure)
    assert threading.active_count() == before


def write_images(directory, x):
    """Each image of ``x`` in its own DKT1 file; the paths, in order."""
    paths = [os.path.join(directory, f"img_{i:05d}.dkt") for i in range(len(x))]
    for path, t in zip(paths, x):
        write_dkt(path, t)
    return paths


@pytest.mark.parametrize("dims", _STACK_DIMS, ids=str)
def test_solver_stack_read_from_files_is_the_stack_of_their_array(tmp_path, monkeypatch, dims):
    """DKT1 files read block by block give the stack of the array that
    ``read_dkt_stack`` reads from them, byte for byte, for images of order
    1 to 3, padded or not, from one image to two blocks and one, on one
    worker and two; the response-weighted aggregate summed in the same
    pass is that array's to rounding.  Blocks here hold the fewest images
    they may, 8, whatever ``_BLOCK_BYTES`` allows."""
    block = 8
    monkeypatch.setattr(dkn_fit, "_BLOCK_BYTES", 1)
    structure, padded_from = auto_structure(dims)
    rng = np.random.default_rng(len(dims) + 60)
    paths = write_images(tmp_path, rng.standard_normal((2 * block + 1,) + dims))
    assert dkn_fit._ImageBlocks(paths=paths).size == block
    for n in (1, block - 1, block, block + 1, 2 * block + 1):
        images, w = read_dkt_stack(paths[:n]), rng.standard_normal(n)
        want = _vectorize_images(images, structure, padded_from)
        want_agg = dkn_fit._weighted_sum(images, w, structure, padded_from)
        for workers in (1, 2):
            monkeypatch.setattr(dkn_fit, "_stack_workers", lambda nbytes, k=workers: k)
            got, agg = _vectorize_images(paths[:n], structure, padded_from, w)
            assert got.flags.c_contiguous and got.tobytes() == want.tobytes(), (n, workers)
            assert_allclose(agg, want_agg, rtol=1e-12, atol=1e-12 * np.abs(want_agg).max())


@pytest.mark.parametrize("dtype", [np.float32, np.int16])
def test_other_dtypes_are_cast_block_by_block(dtype):
    """Images of another dtype, C-ordered or column-major, padded or not,
    in several blocks or exactly one, give the stack of their float64 cast
    byte for byte, and the image sums of it to rounding."""
    rng = np.random.default_rng(61)
    for dims in [(48, 32), (7, 12, 10)]:
        structure, padded_from = auto_structure(dims)
        x = (100 * rng.standard_normal((300,) + dims)).astype(dtype)
        size = dkn_fit._ImageBlocks(x).size
        assert size < 300
        for images in (x, column_major(x), x[:size]):
            n = images.shape[0]
            w, c = rng.standard_normal(n), rng.standard_normal(structure.dims3)
            wide = images.astype(np.float64)
            assert wide.strides == tuple(8 // x.itemsize * s for s in images.strides)
            got = _vectorize_images(images, structure, padded_from)
            assert got.tobytes() == _vectorize_images(wide, structure, padded_from).tobytes()
            for got, want in [
                (dkn_fit._weighted_sum(images, w, structure, padded_from),
                 dkn_fit._weighted_sum(wide, w, structure, padded_from)),
                (dkn_fit._inner_products(images, c, structure, padded_from),
                 dkn_fit._inner_products(wide, c, structure, padded_from)),
            ]:  # summed in other blocks: equal to rounding of the largest entry
                assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_float32_images_build_the_stack_without_a_float64_copy():
    """300 float32 images of 128x128 build their 39 MB stack with no whole
    float64 copy: the build peaks at the stack plus one block buffer and one
    tile buffer per worker, where a float64 copy of the images made first
    peaks at about two stacks (80.8 MB)."""
    x = np.random.default_rng(62).standard_normal((300, 128, 128)).astype(np.float32)
    structure = deepest_structure((128, 128))
    size = dkn_fit._ImageBlocks(x).size
    block_bytes = size * 128 * 128 * 8
    tile_bytes = min(dkn_fit._STACK_TILE[0], size) * (dkn_fit._STACK_TILE[1] + 8) * 8
    workers = dkn_fit._stack_workers(structure.n_voxels * 300 * 8)
    tracemalloc.start()
    try:
        stack = _vectorize_images(x, structure)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size < 300 and block_bytes <= dkn_fit._BLOCK_BYTES
    slack = 256 << 10  # the buffers numpy casts through
    assert peak < stack.nbytes + block_bytes + workers * tile_bytes + slack, (peak, stack.nbytes)


def test_fit_and_scan_read_image_files(tmp_path, monkeypatch):
    """``fit`` and ``scan_rank`` take the ordered paths of DKT1 files in
    place of an array and read them block by block: the same sweeps, and
    objective traces within 1e-12 relative of the fits of the array
    ``read_dkt_stack`` reads, started ranks included."""
    monkeypatch.setattr(dkn_fit, "_BLOCK_BYTES", 1)  # blocks of 8 images
    images, y = scan_problem(63, 120, "bernoulli")
    paths = write_images(tmp_path, images)
    x = read_dkt_stack(paths)
    for got, want in [
        (fit(paths, y, S883, family="bernoulli")[1], fit(x, y, S883, family="bernoulli")[1]),
        *zip(scan_rank(paths, y, S883, [1, 2], family="bernoulli").reports.values(),
             scan_rank(x, y, S883, [1, 2], family="bernoulli").reports.values()),
    ]:
        assert got.sweeps == want.sweeps
        assert_allclose(got.objective_trace, want.objective_trace, rtol=1e-12)


def test_weighted_sum_is_the_stack_adjoint_for_every_layout():
    """sum_i w_i vec(X_i), summed in the images' own memory order, equals
    the rows of canonical vecs times w for every accepted layout, and for
    unpadded images of a padded structure."""
    rng = np.random.default_rng(25)
    x = rng.standard_normal((6, 8, 8))
    w = rng.standard_normal(6)
    want = w @ canonical_rows(x)
    layouts = {
        "stack": x,
        "list": [x[i] for i in range(6)],
        "dims3": x.reshape(6, 8, 8, 1),
        "column-major images": np.stack([np.asfortranarray(t) for t in x]),
        "fully column-major": np.asfortranarray(x),
        "canonical rows": np.stack([vec(t) for t in x]),
    }
    for name, images in layouts.items():
        assert_allclose(dkn_fit._weighted_sum(images, w, S883), want, rtol=1e-12, err_msg=name)
    structure, padded_from = auto_structure((6, 5))
    small = rng.standard_normal((6, 6, 5))
    padded = w @ canonical_rows(pad_images(small, padded_from, structure.image_dims))
    got = dkn_fit._weighted_sum(small, w, structure, padded_from)
    assert_allclose(got, padded, rtol=1e-12)


def test_build_design_reproduces_linear_predictor():
    """The per-layer design times the stacked layer factors must equal the
    model's inner products exactly, at every layer and rank."""
    rng = np.random.default_rng(2)
    for rank in (1, 2):
        structure = DknStructure(
            image_dims=(8, 8), factor_dims=[(2, 2), (2, 2), (2, 2)], rank=rank
        )
        chains = random_chains(rng, structure)
        model = DknModel(structure=structure, factors=chains)
        coeff = compose_image(chains, structure)
        images = rng.standard_normal((25, 8, 8))
        want = np.array([inner(x, coeff) for x in images])
        for l in range(1, 4):
            left = partial_products(model, l + 1, "left")
            right = partial_products(model, l - 1, "right")
            design = build_design(images, structure, l, left, right)
            beta = np.concatenate([vec(chains[r][l - 1]) for r in range(rank)])
            assert_allclose(design @ beta, want, rtol=1e-10, atol=1e-11)


def gather_design(rows, structure, l, left, right):
    """The layer-l design by index gathers from rows of canonical vecs: the
    reference the strided contraction in ``build_design`` is checked against."""
    p1 = reshape_R_indices(structure.dims3, structure.upper_extents(l + 1))
    p2 = reshape_R_indices(structure.lower_extents(l), structure.factor_dims[l - 1])
    cols = []
    for u, w in zip(left, right):
        g1 = np.einsum("u,nuv->nv", u, rows[:, p1])
        cols.append(np.einsum("nmw,w->nm", g1[:, p2], w))
    return np.concatenate(cols, axis=1)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from((1, 2, 3, 4, 5, 6, 8, 12, 20)), min_size=1, max_size=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example([5], 3, 2, 0)
@example([12, 20], 2, 3, 1)
@example([5, 12, 20], 3, 2, 2)
def test_build_design_matches_gather(dims, rank, n, seed):
    """At every layer the contracted design equals the gathered one, for
    arbitrary (non-chain) partial products and padded extents."""
    structure, _ = auto_structure(dims, rank)
    rng = np.random.default_rng(seed)
    images = rng.standard_normal((n,) + structure.image_dims)
    rows = np.stack([vec(x) for x in images])
    for l in range(1, structure.depth + 1):
        n_up = int(np.prod(structure.upper_extents(l + 1)))
        n_lo = int(np.prod(structure.lower_extents(l - 1)))
        left = [rng.standard_normal(n_up) for _ in range(rank)]
        right = [rng.standard_normal(n_lo) for _ in range(rank)]
        got = build_design(images, structure, l, left, right)
        want = gather_design(rows, structure, l, left, right)
        # Rounding is bounded by the sum of absolute products in each entry.
        scale = gather_design(np.abs(rows), structure, l, np.abs(left), np.abs(right))
        assert got.shape == (n, rank * structure.layer_size(l))
        assert_allclose(got, want, rtol=1e-12, atol=1e-12 * float(scale.max()))


def record_designs(mp):
    """Patch ``dkn_fit._solve_layer`` to keep a copy of every design it is
    handed and of the solution it returns, in call order: one per (sweep,
    layer)."""
    designs, betas = [], []
    solve = dkn_fit._solve_layer

    def spy(family, design, y, ridge, beta0=None):
        designs.append(np.array(design))
        betas.append(solve(family, design, y, ridge, beta0))
        return betas[-1]

    mp.setattr(dkn_fit, "_solve_layer", spy)
    return designs, betas


def reseeded_factors(structure, seed, k, l):
    """The unit random factors of layers 1..l-1 that collapse event k, a
    lower-side reseed at layer l, draws from its reseed stream."""
    g = rng_mod.stream(seed, rng_mod.PURPOSE_RESEED, k)
    out = []
    for fd in structure.factor_dims[: l - 1]:
        f = g.standard_normal(int(np.prod(fd)))
        out.append(unvec(f / np.linalg.norm(f), fd))
    return out


def sweep_partial_products(report, betas, structure, seed, seeds):
    """(upper, lower) products of every (sweep, layer) solve, rebuilt from a
    fit report and the solutions of the solves: upper products from the
    spectral ``seeds`` (``init_spectral``) in sweep 1 and from the previous
    sweep's factors after it; lower products from this sweep's solutions,
    restarted at each lower-side reseed from the chain of the factors it
    drew."""
    L, R = structure.depth, structure.rank
    out = []
    solutions = iter(betas)
    for t in range(1, report.sweeps + 1):
        if t == 1:
            ups = seeds
        else:
            prev = DknModel(structure=structure, factors=report.snapshots[t - 2])
            ups = {l: partial_products(prev, l, "left") for l in range(2, L + 2)}
        lows = [np.ones(1)] * R
        for l in range(1, L + 1):
            for k, e in enumerate(report.collapse_events):
                assert e["side"] == "right"  # upper reseeds are not rebuilt here
                if (e["sweep"], e["layer"]) == (t, l):
                    lows[e["term"] - 1] = vec(kron_chain(reseeded_factors(structure, seed, k, l)))
            out.append((ups[l + 1], lows))
            layer = dkn_fit._split_beta(next(solutions), structure, l)
            lows = [
                vec(tkp(layer[r], unvec(lows[r], structure.lower_extents(l - 1))))
                for r in range(R)
            ]
    return out


def assert_sweep_designs_match_gather(images, y, structure, family, options, padded_from=None):
    with pytest.MonkeyPatch.context() as mp:
        designs, betas = record_designs(mp)
        _, report = fit(images, y, structure, family=family, options=options, padded_from=padded_from)
    if padded_from is not None:
        images = pad_images(images, padded_from, structure.image_dims)
    seeds = init_spectral(images, y, structure)
    products = sweep_partial_products(report, betas, structure, options.seed, seeds)
    assert len(designs) == len(products) == report.sweeps * structure.depth
    rows = np.stack([vec(x) for x in images])
    for i, (got, (left, right)) in enumerate(zip(designs, products)):
        l = i % structure.depth + 1
        want = gather_design(rows, structure, l, left, right)
        scale = gather_design(np.abs(rows), structure, l, np.abs(left), np.abs(right))
        assert_allclose(got, want, rtol=1e-12, atol=1e-12 * float(scale.max()))
    return report


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from((1, 2, 3, 4, 5, 6, 8, 12, 20)), min_size=1, max_size=3),
    st.integers(min_value=1, max_value=3),
    st.sampled_from(("gaussian", "bernoulli")),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example([5], 3, "gaussian", 0)
@example([12, 20], 2, "bernoulli", 1)
@example([5, 12, 20], 3, "gaussian", 2)
@example([20, 20, 20], 1, "bernoulli", 5060419)
def test_fit_sweep_designs_match_gather(dims, rank, family, seed):
    """Every design the sweep solves, built from the lower chain it carries
    up the sweep, equals the gathered design at that sweep's partial
    products: spectral seeds in sweep 1, chains of factors in sweep 2."""
    structure, _ = auto_structure(dims, 1)
    # The spectral init needs rank R directions at every layer boundary.
    cap = min(
        min(np.prod(structure.upper_extents(l)), np.prod(structure.lower_extents(l - 1)))
        for l in range(2, structure.depth + 1)
    )
    structure = replace(structure, rank=int(min(rank, cap)))
    rng = np.random.default_rng(seed)
    # Bernoulli labels need many more images than design columns, or the
    # data are separable and the layer solves fail.
    cols = structure.rank * max(structure.layer_size(l) for l in range(1, structure.depth + 1))
    n = 24 if family == "gaussian" else 6 * cols + 16
    images = rng.standard_normal((n,) + structure.image_dims)
    y = rng.standard_normal(n) if family == "gaussian" else (rng.random(n) < 0.5) * 1.0
    y[0] = 1.0
    assert_sweep_designs_match_gather(
        images, y, structure, family, FitOptions(max_sweeps=2, tol=0.0, trace_factors=True)
    )


@pytest.mark.parametrize(
    "dims, rank, family",
    [((5,), 2, "gaussian"), ((7, 12), 2, "bernoulli"), ((5, 6, 12), 3, "gaussian")],
)
def test_fit_sweep_designs_match_gather_from_unpadded_images(dims, rank, family):
    """Images handed to ``fit`` at their original extents are zero-padded
    into the stack the chain starts from; its designs still equal the
    gathered designs of the padded images."""
    structure, padded_from = auto_structure(dims, rank)
    assert padded_from == dims
    rng = np.random.default_rng(sum(dims))
    n = 40 if family == "gaussian" else 240
    images = rng.standard_normal((n,) + dims)
    y = rng.standard_normal(n) if family == "gaussian" else (rng.random(n) < 0.5) * 1.0
    options = FitOptions(max_sweeps=2, tol=0.0, trace_factors=True)
    assert_sweep_designs_match_gather(images, y, structure, family, options, padded_from)


def test_fit_sweep_designs_match_gather_after_lower_reseed(monkeypatch):
    """A reseeded lower product restarts that term's chain mid-sweep: with a
    tiny response every factor is tiny, so each lower product after layer 1
    falls under the patched collapse threshold and is reseeded."""
    monkeypatch.setattr(dkn_fit, "COLLAPSE_TOL", 1e-4)
    structure = DknStructure(image_dims=(8, 12), factor_dims=[(2, 2), (2, 2), (2, 3)], rank=2)
    rng = np.random.default_rng(23)
    images = rng.standard_normal((30, 8, 12))
    y = 1e-9 * rng.standard_normal(30)
    options = FitOptions(max_sweeps=1, tol=0.0, trace_factors=True, ridge=0.0, seed=4)
    report = assert_sweep_designs_match_gather(images, y, structure, "gaussian", options)
    assert {(e["layer"], e["side"]) for e in report.collapse_events} == {(2, "right"), (3, "right")}


def test_lower_reseed_inside_the_split_records_the_returned_factors(monkeypatch):
    """The lower-reseed instance at four layers, split at m = 2, with the
    collapse threshold raised only from sweep 2 on, so that sweep 1 leaves
    chains of factors and sweep 2 runs split: its lower products collapse
    at layer 2 (inside layers 1..m) and at layers 3 and 4 (after the
    split).  Each reseed writes its random factors into the fit, so the
    designs match the gathered ones at their chains and every recorded
    objective is the nll of the snapshot's coefficient (-1.3e-17 and -1.2e-18;
    the floor is 1e-12 of |y|^2, 4e-29)."""
    structure = DknStructure(
        image_dims=(8, 12), factor_dims=[(2, 1), (2, 2), (2, 2), (1, 3)], rank=2
    )
    assert dkn_fit._split_layer(structure) == 2
    rng = np.random.default_rng(23)
    images = rng.standard_normal((30, 8, 12))
    y = 1e-9 * rng.standard_normal(30)
    solve, solves = dkn_fit._solve_layer, []

    def raise_threshold_after_sweep_1(family, design, y, ridge, beta0=None):
        solves.append(solve(family, design, y, ridge, beta0))
        if len(solves) == structure.depth:
            monkeypatch.setattr(dkn_fit, "COLLAPSE_TOL", 1e-4)
        return solves[-1]

    monkeypatch.setattr(dkn_fit, "_solve_layer", raise_threshold_after_sweep_1)
    options = FitOptions(max_sweeps=2, tol=0.0, trace_factors=True, ridge=0.0, seed=4)
    report = assert_sweep_designs_match_gather(images, y, structure, "gaussian", options)
    events = {(e["sweep"], e["layer"], e["side"]) for e in report.collapse_events}
    assert events == {(2, 2, "right"), (2, 3, "right"), (2, 4, "right")}
    rows = canonical_rows(images)
    want = [nll_eta(GAUSSIAN, rows @ vec(compose_coeff(f)), y) for f in report.snapshots]
    assert_allclose(report.objective_trace, want, rtol=0.0, atol=1e-12 * float(y @ y))


@pytest.mark.parametrize("family", ["gaussian", "bernoulli"])
def test_fit_objective_is_the_coefficient_nll(family):
    """The objective the sweep records, taken from the layer-L design, is the
    nll of the sweep's composed coefficient over the stack, to rounding."""
    structure = DknStructure(image_dims=(8, 12), factor_dims=[(2, 2), (2, 2), (2, 3)], rank=2)
    rng = np.random.default_rng(24)
    images = rng.standard_normal((60, 8, 12))
    y = rng.standard_normal(60) if family == "gaussian" else (rng.random(60) < 0.5) * 1.0
    options = FitOptions(max_sweeps=4, tol=0.0, trace_factors=True)
    _, report = fit(images, y, structure, family=family, options=options)
    rows = canonical_rows(images)
    fam = GAUSSIAN if family == "gaussian" else BERNOULLI
    want = [nll_eta(fam, rows @ vec(compose_coeff(f)), y) for f in report.snapshots]
    assert_allclose(report.objective_trace, want, rtol=1e-12)


def record_contractions(mp, structure):
    """Patch ``dkn_fit``'s two contraction primitives and its layer solve to
    log every contraction as (primitive, input size, product length) under
    the sweep it belongs to: a sweep's contractions run after the previous
    sweep's last solve."""
    calls, solves = {}, [0]

    def spy(name, contract):
        def logged(t, prod):
            calls.setdefault(solves[0] // structure.depth + 1, []).append(
                (name, t.size, np.shape(prod)[-1])
            )
            return contract(t, prod)

        return logged

    solve = dkn_fit._solve_layer

    def counted(*args, **kwargs):
        solves[0] += 1
        return solve(*args, **kwargs)

    mp.setattr(dkn_fit, "_contract_lower", spy("lower", dkn_fit._contract_lower))
    mp.setattr(dkn_fit, "_contract_upper", spy("upper", dkn_fit._contract_upper))
    mp.setattr(dkn_fit, "_solve_layer", counted)
    return calls


def stack_passes(calls, n_floats):
    """The (primitive, product length) of every contraction that reads a
    whole stack of ``n_floats``."""
    return sorted((name, k) for name, size, k in calls if size == n_floats)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_fit_reads_the_stack_twice_per_sweep(rank):
    """Every sweep reads the stack twice, whatever the rank and depth: once
    against every term's upper product of layers m+1..L and once against
    its lower product of layers 1..m.  Sweep 1 splits at m = 1, because its
    spectral upper products are not chains of factors; later sweeps at
    ``_split_layer``.  All other reads are of each term's (K_m, n) and
    (n_voxels / K_m, n) arrays and of the smaller ones carried up from
    them; their rows at least halve per layer, so each chain reads less
    than twice its first array, twice.  That bounds a sweep's reads by
    2 n_voxels n + 4 R n (K_m + n_voxels / K_m) floats."""
    for side in (4, 8, 16, 32):  # depths 2..5 of 2x2 factors
        structure, _ = auto_structure((side, side), rank)
        m = dkn_fit._split_layer(structure)
        k_split = int(np.prod([structure.layer_size(l) for l in range(1, m + 1)]))
        v, n = structure.n_voxels, 24
        rng = np.random.default_rng(side)
        images = rng.standard_normal((n, side, side))
        y = rng.standard_normal(n)
        options = FitOptions(max_sweeps=3, tol=0.0)
        # A fit started from chains of factors splits sweep 1 at m as well.
        for start in (None, random_chains(rng, structure)):
            stack = _vectorize_images(images, structure, None, y)
            with pytest.MonkeyPatch.context() as mp:
                calls = record_contractions(mp, structure)
                dkn_fit._fit(stack, y, 0.0, None, structure, GAUSSIAN, options, None, start)
            assert sorted(calls) == [1, 2, 3]
            for t in (1, 2, 3):
                k = structure.layer_size(1) if t == 1 and start is None else k_split
                assert stack_passes(calls[t], v * n) == [("lower", k), ("upper", v // k)], (
                    side, t, start is None)
                reads = sum(size for _, size, _ in calls[t])
                assert reads <= 2 * v * n + 4 * rank * n * (k + v // k), (side, t, reads)


def test_fit_splits_a_sweep_that_opens_collapsed_at_layer_1(monkeypatch):
    """A sweep that opens with a collapsed upper product reseeds it with a
    vector that is not a chain of factors, so it splits at m = 1: it reads
    the stack against the upper products of layers 2..L and the lower
    product of layer 1.  The threshold is raised only while sweep 2 opens,
    so sweep 3 runs split again, and the objective stays the coefficient's
    nll at the rtol of ``test_fit_objective_is_the_coefficient_nll``."""
    structure = DknStructure(
        image_dims=(8, 12), factor_dims=[(2, 1), (2, 2), (2, 2), (1, 3)], rank=2
    )
    assert dkn_fit._split_layer(structure) == 2  # K_2 = 8 of 96 voxels
    rng = np.random.default_rng(24)
    images = rng.standard_normal((60, 8, 12))
    y = rng.standard_normal(60)
    L, tol, solve, solves = structure.depth, dkn_fit.COLLAPSE_TOL, dkn_fit._solve_layer, [0]

    def threshold_raised_as_sweep_2_opens(family, design, y, ridge, beta0=None):
        solves[0] += 1
        if solves[0] == L + 1:  # layer 1 of sweep 2: before any lower product is tested
            monkeypatch.setattr(dkn_fit, "COLLAPSE_TOL", tol)
        beta = solve(family, design, y, ridge, beta0)
        if solves[0] == L:  # sweep 1's upper products after it: norms 0.87 to 1.42, and 1
            monkeypatch.setattr(dkn_fit, "COLLAPSE_TOL", 0.9)
        return beta

    monkeypatch.setattr(dkn_fit, "_solve_layer", threshold_raised_as_sweep_2_opens)
    calls = record_contractions(monkeypatch, structure)
    options = FitOptions(max_sweeps=3, tol=0.0, trace_factors=True)
    _, report = fit(images, y, structure, options=options)
    assert report.collapse_events == [
        {"sweep": 2, "layer": 2, "term": 1, "side": "left", "source": "svd_pool"}
    ]
    assert stack_passes(calls[2], 96 * 60) == [("lower", 2), ("upper", 48)]
    assert stack_passes(calls[3], 96 * 60) == [("lower", 8), ("upper", 12)]
    rows = canonical_rows(images)
    want = [nll_eta(GAUSSIAN, rows @ vec(compose_coeff(f)), y) for f in report.snapshots]
    assert_allclose(report.objective_trace, want, rtol=1e-12)


def test_fit_reseeds_layer_1_upper_products_before_the_first_stack_pass(monkeypatch):
    """A collapsed upper product of layers 2..L is reseeded at layer 1,
    before the sweep's first stack pass reads it, so layer 1's design is
    built from the reseeded product.  Term 2's, of norm 0.59 after sweep 1,
    is the only upper product under the threshold raised while sweep 2
    opens (the next smallest is 0.95), and the aggregate has no spare
    direction at that boundary, so the reseed is a random unit vector."""
    structure = DknStructure(
        image_dims=(8, 12), factor_dims=[(2, 1), (2, 2), (2, 2), (1, 3)], rank=2
    )
    rng = np.random.default_rng(11)
    images = rng.standard_normal((60, 8, 12))
    y = rng.standard_normal(60)
    L, tol, solve, designs = structure.depth, dkn_fit.COLLAPSE_TOL, dkn_fit._solve_layer, []

    def threshold_raised_as_sweep_2_opens(family, design, y, ridge, beta0=None):
        designs.append(np.array(design))
        if len(designs) == L + 1:
            monkeypatch.setattr(dkn_fit, "COLLAPSE_TOL", tol)
        beta = solve(family, design, y, ridge, beta0)
        if len(designs) == L:
            monkeypatch.setattr(dkn_fit, "COLLAPSE_TOL", 0.75)
        return beta

    monkeypatch.setattr(dkn_fit, "_solve_layer", threshold_raised_as_sweep_2_opens)
    options = FitOptions(max_sweeps=2, tol=0.0, trace_factors=True, seed=3)
    _, report = fit(images, y, structure, options=options)
    assert report.collapse_events == [
        {"sweep": 2, "layer": 1, "term": 2, "side": "left", "source": "random"}
    ]
    prev = DknModel(structure=structure, factors=report.snapshots[0])
    g = rng_mod.stream(options.seed, rng_mod.PURPOSE_RESEED, 0)
    reseed = g.standard_normal(structure.n_voxels // structure.layer_size(1))
    left = [partial_products(prev, 2, "left")[0], reseed / np.linalg.norm(reseed)]
    want = build_design(images, structure, 1, left, [np.ones(1)] * 2)
    assert_allclose(designs[L], want, rtol=1e-12, atol=1e-12 * float(np.abs(want).max()))


def test_build_design_validation():
    rng = np.random.default_rng(3)
    images = rng.standard_normal((4, 8, 8))
    ok = [np.ones(16)]
    with pytest.raises(DimensionError):
        build_design(images, S883, 0, ok, [np.ones(1)])
    with pytest.raises(DimensionError):
        build_design(images, S883, 1, [np.ones(7)], [np.ones(1)])
    with pytest.raises(DimensionError):
        build_design(images, S883, 1, ok, [])


def composed_partial_products(model, l, side):
    """Oracle for ``partial_products``: each term's product composed one
    layer at a time with ``tkp``, layer k onto the product of layers
    k+1..L ("left", from k = L down to l) or under that of layers 1..k-1
    ("right", from k = 1 up to l)."""
    structure = model.structure
    if side == "left":
        layers = range(structure.depth, l - 1, -1)
    else:
        layers = range(1, l + 1)
    prods = [np.ones(1) for _ in range(structure.rank)]
    for k in layers:
        ext = structure.upper_extents(k + 1) if side == "left" else structure.lower_extents(k - 1)
        pairs = [(unvec(p, ext), chain[k - 1]) for p, chain in zip(prods, model.factors)]
        prods = [vec(tkp(p, f) if side == "left" else tkp(f, p)) for p, f in pairs]
    return prods


def test_partial_products_match_direct_composition():
    """Right products compose in the oracle's order, so they are equal; left
    products differ from it only in the association of each entry's product
    of factor entries."""
    rng = np.random.default_rng(4)
    for dims in [(12,), (8, 8), (6, 10), (4, 8, 6), (16, 16)]:
        for rank in (1, 2, 3):
            structure, _ = auto_structure(dims, rank)
            L = structure.depth
            model = DknModel(structure=structure, factors=random_chains(rng, structure))
            for l in range(1, L + 2):  # the boundaries, l = L+1 and 0, are ones
                got = partial_products(model, l, "left")
                for g, w in zip(got, composed_partial_products(model, l, "left")):
                    assert_allclose(g, w, rtol=1e-15, atol=0)
            for l in range(0, L + 1):
                got = partial_products(model, l, "right")
                for g, w in zip(got, composed_partial_products(model, l, "right")):
                    assert np.array_equal(g, w), (dims, rank, l)
    model = DknModel(structure=S883, factors=random_chains(rng, S883))
    with pytest.raises(DimensionError):
        partial_products(model, 5, "left")
    with pytest.raises(DimensionError):
        partial_products(model, 1, "up")


def test_init_spectral_exact_from_basis_images():
    """With the full standard basis as images, the response-weighted
    aggregate is the coefficient itself, so each boundary's top direction
    is the true upper product."""
    rng = np.random.default_rng(5)
    chains = random_chains(rng, S883)
    coeff = compose_coeff(chains)
    images = [unvec(row, (8, 8)) for row in np.eye(64)]
    y = vec(coeff)
    init = init_spectral(images, y, S883)
    for l in (2, 3):
        want = vec(kron_chain(chains[0][l - 1 :]))
        assert dist(init[l][0], want) <= 1e-10
    assert np.array_equal(init[4][0], [1.0])


def test_init_spectral_single_kronecker_image():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2))
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    from dkn.kron_ops import tkp

    x = tkp(a, b)  # composition [b, a]: a is the layer-2 factor
    structure = DknStructure(image_dims=(4, 4), factor_dims=[(2, 2), (2, 2)])
    init = init_spectral([x], [1.0], structure)
    assert dist(init[2][0], vec(a)) <= 1e-10


def test_init_spectral_degenerate_inputs():
    images = np.random.default_rng(7).standard_normal((10, 8, 8))
    with pytest.raises(DegenerateDataError):
        init_spectral(images, np.zeros(10), S883)
    # a single one-hot image gives an aggregate with exact zero singular
    # values, so it cannot seed two terms
    rank2 = DknStructure(image_dims=(4, 4), factor_dims=[(2, 2), (2, 2)], rank=2)
    one_hot = np.zeros((4, 4))
    one_hot[0, 0] = 1.0
    with pytest.raises(DegenerateDataError):
        init_spectral([one_hot], [1.0], rank2)


def test_sweep_update_keeps_truth_fixed():
    images, y, coeff, chains = noiseless_problem(8, 100, S883)
    model = DknModel(structure=S883, factors=chains)
    opts = FitOptions(ridge=0.0)
    for l in range(1, 4):
        updated, info = sweep_update(model, images, y, l=l, options=opts)
        assert info["layer"] == l
        assert info["objective"] <= 1e-10
        for got, want in zip(updated.factors[0], chains[0]):
            assert_allclose(got, want, rtol=1e-8, atol=1e-10)


def test_sweep_update_names_the_layer_out_of_range():
    images, y, _, chains = noiseless_problem(8, 20, S883)
    model = DknModel(structure=S883, factors=chains)
    for l in (0, 4):
        with pytest.raises(DimensionError, match=f"^layer {l} outside 1..3$"):
            sweep_update(model, images, y, l=l)


def test_sweep_update_keeps_a_converged_centered_fit_fixed():
    """A converged fit of a centered response is a fixed point of
    sweep_update at every layer: the update solves, and reports its
    objective, against the response less the model's intercept, as the fit
    did."""
    rng = np.random.default_rng(7)
    images = rng.standard_normal((200, 8, 8))
    truth = np.zeros((8, 8))
    truth[2:6, 2:6] = 1.0
    y = 5.0 + np.einsum("nij,ij->n", images, truth) + 0.5 * rng.standard_normal(200)
    opts = FitOptions(max_sweeps=500, tol=1e-14, center_response=True)
    model, report = fit(images, y, S883, options=opts)
    assert report.converged and model.intercept > 4.0
    coeff = model.coefficient()
    for l in range(1, 4):
        updated, info = sweep_update(model, images, y, l=l)
        moved = np.linalg.norm(updated.coefficient() - coeff) / np.linalg.norm(coeff)
        assert moved < 1e-6, (l, moved)
        assert_allclose(info["objective"], report.objective_trace[-1], rtol=1e-12)


@pytest.mark.parametrize("family", ["gaussian", "bernoulli"])
def test_sweep_update_refuses_a_non_finite_held_factor(family):
    """The layer-l factor a solve is warm-started from must be finite, for
    both families: the Gaussian closed form does not read it, and IRLS
    would start from a non-finite objective."""
    images, y, _, chains = noiseless_problem(8, 60, S883)
    if family == "bernoulli":
        y = (y > 0) * 1.0
    for l in range(1, 4):
        held = [list(chain) for chain in chains]
        held[0][l - 1] = held[0][l - 1].copy()
        held[0][l - 1][0, 0] = np.inf
        model = DknModel(structure=S883, factors=held, family=family)
        with pytest.raises(DimensionError, match="^beta0 entry 0 is not finite$"):
            sweep_update(model, images, y, l=l)


@pytest.mark.parametrize("family, rank", [("gaussian", 2), ("bernoulli", 1)])
def test_layer_solves_are_block_coordinate_descent(family, rank):
    """From sweep 2 on, each layer solve minimizes a convex subproblem whose
    feasible set holds the current factor (upper products lag one sweep,
    lower ones are this sweep's), so with ridge 0 and no reseed no layer
    raises the NLL.  Gaussian solves are exact, up to rounding; IRLS stops
    at its gradient tolerance, which bounds how far above the minimum it
    may end."""
    structure = DknStructure(
        image_dims=(8, 12), factor_dims=[(2, 2), (2, 2), (2, 3)], rank=rank
    )
    rng = np.random.default_rng(25)
    chains = random_chains(rng, structure)
    images = rng.standard_normal((300, 8, 12))
    eta = np.array([inner(x, compose_image(chains, structure)) for x in images])
    if family == "gaussian":
        y = eta + rng.standard_normal(300)
    else:
        y = (rng.random(300) < 1.0 / (1.0 + np.exp(-eta / np.std(eta)))) * 1.0
    fam = GAUSSIAN if family == "gaussian" else BERNOULLI
    nlls = []
    solve = dkn_fit._solve_layer

    def spy(family, design, y, ridge, beta0=None):
        assert ridge == 0.0
        beta = solve(family, design, y, ridge, beta0)
        nlls.append(nll_eta(family, design @ beta, y))
        return beta

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dkn_fit, "_solve_layer", spy)
        options = FitOptions(max_sweeps=8, tol=0.0, ridge=0.0)
        _, report = fit(images, y, structure, family=fam, options=options)
    assert report.collapse_events == []
    assert len(nlls) == 8 * structure.depth
    for i in range(structure.depth, len(nlls)):
        prev = nlls[i - 1]
        slack = 1e-10 * abs(prev) if family == "gaussian" else IRLS_GRAD_TOL * (1.0 + abs(prev))
        assert nlls[i] <= prev + slack, (i, nlls[i], prev)


def test_fit_sweeps_match_manual_schedule():
    """Replaying sweep 2 with sweep_update and the previous sweep's upper
    products reproduces the fit's own factors, for both families: the
    Bernoulli solves of both are warm-started from the sweep-1 factors.
    A padded model's sweep_update reads the unpadded images where they lie,
    to the bits of the update on their padded copy."""
    rng = np.random.default_rng(9)
    structure = DknStructure(
        image_dims=(8, 8), factor_dims=[(2, 2), (2, 2), (2, 2)], rank=2
    )
    images = rng.standard_normal((80, 8, 8))
    y_gauss = rng.standard_normal(80)
    opts = FitOptions(max_sweeps=2, tol=0.0, trace_factors=True)
    for family, y, x, padded_from in (
        ("gaussian", y_gauss, images, None),
        ("bernoulli", (y_gauss > 0) * 1.0, images, None),
        ("gaussian", y_gauss, images[:, :7, :5], (7, 5)),
    ):
        _, report = fit(x, y, structure, family=family, options=opts, padded_from=padded_from)
        assert len(report.snapshots) == 2

        model1 = DknModel(structure=structure, factors=report.snapshots[0], family=family,
                          padded_from=padded_from)
        cur = model1
        for l in range(1, 4):
            left = partial_products(model1, l + 1, "left")
            prev, (cur, info) = cur, sweep_update(cur, x, y, l=l, options=opts, left=left)
            if padded_from is not None:
                padded = pad_images(x, padded_from, structure.image_dims)
                want, want_info = sweep_update(prev, padded, y, l=l, options=opts, left=left)
                assert info == want_info
                for got_chain, want_chain in zip(cur.factors, want.factors):
                    for got, expected in zip(got_chain, want_chain):
                        assert np.array_equal(got, expected)
        for r in range(2):
            for l in range(3):
                assert_allclose(
                    cur.factors[r][l], report.snapshots[1][r][l], rtol=1e-12, atol=1e-14,
                    err_msg=f"{family}, padded_from={padded_from}",
                )


def test_fit_recovers_noiseless_rank1():
    images, y, coeff, _ = noiseless_problem(10, 300, S883)
    opts = FitOptions(max_sweeps=50, tol=1e-12, trace_truth=coeff)
    model, report = fit(images, y, S883, options=opts)
    assert dist(model.coefficient(), coeff) <= 1e-6
    assert report.sweeps <= 50
    # the trace's last entry is the same distance up to the metric's noise
    # floor (the angular distance loses half the float digits near zero)
    assert abs(report.dist_trace[-1] - dist(model.coefficient(), coeff)) <= 5e-8


def test_fit_objective_trace_nonincreasing():
    images, y, coeff, _ = noiseless_problem(11, 200, S883)
    y = y + 0.5 * np.random.default_rng(12).standard_normal(200)
    _, report = fit(images, y, S883, options=FitOptions(max_sweeps=15, tol=0.0))
    trace = report.objective_trace
    assert len(trace) == 15
    for a, b in zip(trace, trace[1:]):
        assert b <= a + 1e-8 * (1.0 + abs(a))


def test_fit_centering_stores_intercept_and_absorbs_shifts():
    images, y, coeff, _ = noiseless_problem(13, 250, S883)
    y = y + 100.0
    opts = FitOptions(center_response=True, tol=1e-12)
    model, report = fit(images, y, S883, options=opts)
    assert model.intercept == pytest.approx(np.mean(y))
    assert report.intercept == model.intercept
    # centering cannot cancel the in-sample signal mean exactly, but the
    # residuals must be small next to the response spread
    resid = predict(model, images) - y
    assert np.sqrt(np.mean(resid**2)) <= 0.05 * np.std(y)
    # a constant response shift moves the intercept and nothing else
    shifted, _ = fit(images, y + 1000.0, S883, options=opts)
    assert shifted.intercept == pytest.approx(model.intercept + 1000.0)
    for c1, c2 in zip(model.factors, shifted.factors):
        for f1, f2 in zip(c1, c2):
            assert_allclose(f1, f2, rtol=1e-9, atol=1e-12)
    with pytest.raises(DimensionError):
        fit(
            images,
            (y > np.median(y)).astype(float),
            S883,
            family="bernoulli",
            options=FitOptions(center_response=True),
        )


def test_fit_validation():
    rng = np.random.default_rng(14)
    images = rng.standard_normal((10, 8, 8))
    with pytest.raises(DimensionError):
        fit(images, np.zeros(9), S883)
    with pytest.raises(DimensionError):
        fit(
            images,
            rng.standard_normal(10),
            S883,
            options=FitOptions(trace_truth=np.ones((4, 4))),
        )
    for field, bad in [("max_sweeps", 0), ("max_sweeps", -1), ("tol", np.nan),
                       ("tol", np.inf), ("tol", -1e-8), ("ridge", np.nan),
                       ("ridge", -1.0), ("ridge", np.inf)]:
        with pytest.raises(DimensionError, match=field):
            FitOptions(**{field: bad})


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_names_a_non_finite_pixel(bad):
    """A bad pixel is named even when its image's response weight is 0."""
    rng = np.random.default_rng(41)
    images = rng.standard_normal((60, 16, 16))
    y = rng.standard_normal(60)
    images[17, 3, 9] = bad
    y[17] = 0.0
    with pytest.raises(DimensionError, match=r"^image 17 has a non-finite pixel$"):
        fit(images, y, deepest_structure((16, 16)))


@pytest.mark.parametrize("center", [False, True])
def test_fit_names_a_non_finite_response(center):
    rng = np.random.default_rng(42)
    images = rng.standard_normal((60, 16, 16))
    y = rng.standard_normal(60)
    y[23] = np.inf
    with pytest.raises(DimensionError, match=r"^response row 23 is not finite"):
        fit(images, y, deepest_structure((16, 16)), options=FitOptions(center_response=center))


_STACK_REFUSALS = [
    ("short", r"^response length \(59,\) does not match 60 images$"),
    ("non_finite", r"^response row 5 is not finite \(nan\)$"),
    ("center_bernoulli", r"^center_response applies to the gaussian family only$"),
    ("truth_extents", r"^trace_truth extents \(8, 8\) do not match image extents$"),
    ("truth_order_0", r"^trace_truth extents \(\) do not match image extents$"),
    ("truth_order_4", r"^trace_truth extents \(16, 16, 1, 1\) do not match image extents$"),
    ("truth_zero_extent", r"^trace_truth extents \(0, 16\) do not match image extents$"),
    ("rank_0", r"^rank must be >= 1, got 0$"),
]


@pytest.mark.parametrize(
    "entry, case, message",
    # The fit cases keep their bare ids; the others are prefixed.  A model's
    # rank is not sweep_update's to refuse.
    [pytest.param(entry, case, message, id=case if entry == "fit" else f"{entry}-{case}")
     for entry in ("fit", "scan_rank", "sweep_update") for case, message in _STACK_REFUSALS
     if (entry, case) != ("sweep_update", "rank_0")],
)
def test_fit_refuses_bad_inputs_before_building_the_stack(monkeypatch, entry, case, message):
    """Each refusal of ``fit``, ``scan_rank`` and ``sweep_update`` comes
    before the images are copied into the solver's stack, with the same
    message."""

    def no_stack(*args, **kwargs):
        raise AssertionError("the solver stack was built before the inputs were checked")

    monkeypatch.setattr(dkn_fit, "_vectorize_images", no_stack)
    rng = np.random.default_rng(43)
    images = rng.standard_normal((60, 16, 16))
    y = (rng.random(60) < 0.5) * 1.0
    family, options, rank = "gaussian", FitOptions(), 1
    truths = {"truth_extents": np.ones((8, 8)), "truth_order_0": np.ones(()),
              "truth_order_4": np.ones((16, 16, 1, 1)), "truth_zero_extent": np.ones((0, 16))}
    if case == "short":
        y = y[:59]
    elif case == "non_finite":
        y[5] = np.nan
    elif case == "center_bernoulli":
        family, options = "bernoulli", FitOptions(center_response=True)
    elif case == "rank_0":
        rank = 0
    else:
        options = FitOptions(trace_truth=truths[case])
    structure = deepest_structure((16, 16))
    with pytest.raises(DimensionError, match=message):
        if entry == "fit":
            # ``fit`` takes a structure dict as well; a rank-0 one is refused.
            fit(images, y, dict(vars(structure), rank=rank), family=family, options=options)
        elif entry == "scan_rank":
            scan_rank(images, y, structure, [rank, 2], family=family, options=options)
        else:
            factors = [[np.ones(fd) for fd in structure.factor_dims]]
            model = DknModel(structure=structure, factors=factors, family=family)
            sweep_update(model, images, y, l=2, options=options)


def test_fit_zero_response_is_degenerate():
    rng = np.random.default_rng(15)
    images = rng.standard_normal((10, 8, 8))
    with pytest.raises(DegenerateDataError):
        fit(images, np.zeros(10), S883)


def test_fit_pure_noise_bounded_by_least_squares():
    """The structured fit can never beat the unconstrained least-squares
    residual, and never does worse than the zero coefficient."""
    rng = np.random.default_rng(16)
    images = rng.standard_normal((200, 8, 8))
    y = rng.standard_normal(200)
    model, report = fit(images, y, S883)
    resid = y - predict(model, images)
    rss = float(resid @ resid)
    rows = canonical_rows(images)
    ols = np.linalg.lstsq(rows, y, rcond=None)[0]
    rss_ols = float(np.sum((y - rows @ ols) ** 2))
    assert rss >= rss_ols - 1e-8
    assert rss <= float(y @ y) + 1e-8


def test_collapse_reseeding(monkeypatch):
    """With an absurd collapse threshold every partial product is treated
    as collapsed; the fit must reseed (pool first, then random) and still
    return finite factors."""
    monkeypatch.setattr(dkn_fit, "COLLAPSE_TOL", 1e6)
    rng = np.random.default_rng(17)
    images = rng.standard_normal((50, 8, 8))
    y = rng.standard_normal(50)
    model, report = fit(images, y, S883, options=FitOptions(max_sweeps=2, tol=0.0))
    assert report.collapse_events
    sources = {e["source"] for e in report.collapse_events}
    assert sources == {"svd_pool", "random"}
    for e in report.collapse_events:
        assert e["side"] in ("left", "right")
        assert 1 <= e["layer"] <= 3
    for chain in model.factors:
        for f in chain:
            assert np.all(np.isfinite(f))


def fit_bits(model, report):
    """The bytes of a fit's objective trace, factors and BIC, and its
    collapse events."""
    factors = [f.tobytes() for chain in model.factors for f in chain]
    return np.array(report.objective_trace).tobytes(), factors, repr(report.bic), report.collapse_events


@pytest.mark.parametrize("case", ["cold", "scan", "collapse"])
def test_tracing_leaves_the_fit_bitwise_unchanged(case, monkeypatch):
    """``trace_truth`` and ``trace_factors`` only record: with both on, the
    objective trace, factors, BIC and collapse events are bitwise those of
    the untraced fit.  ``dkn diagnose`` relies on this, as its traced refit
    stands in for a plain fit.  Cases: a cold fit, a rank scan (whose ranks
    2 and 3 are started from the rank before) and the collapse instance of
    ``test_collapse_reseeding`` at rank 2, where every partial product is
    reseeded (30 events)."""
    rng = np.random.default_rng(17)
    images = rng.standard_normal((50, 8, 8))
    y = rng.standard_normal(50)
    truth = rng.standard_normal((8, 8))
    if case == "collapse":
        monkeypatch.setattr(dkn_fit, "COLLAPSE_TOL", 1e6)

    def run(**trace):
        options = FitOptions(max_sweeps=3 if case == "collapse" else 40, seed=883, **trace)
        if case == "scan":
            scan = scan_rank(images, y, S883, [1, 2, 3], options=options)
            return [fit_bits(scan.best_model, rep) for rep in scan.reports.values()]
        return [fit_bits(*fit(images, y, replace(S883, rank=2), options=options))]

    plain = run()
    assert run(trace_truth=truth, trace_factors=True) == plain
    assert len(plain[0][3]) == (30 if case == "collapse" else 0)


def test_normalize_canonical_form():
    rng = np.random.default_rng(18)
    structure = DknStructure(
        image_dims=(8, 8), factor_dims=[(2, 2), (2, 2), (2, 2)], rank=3
    )
    chains = random_chains(rng, structure, scale_first=3.0)
    model = DknModel(structure=structure, factors=chains)
    nm = normalize(model)
    assert_allclose(nm.coefficient(), model.coefficient(), rtol=1e-12, atol=1e-12)
    lams = nm.kron_eigenvalues()
    assert all(a >= b - 1e-12 for a, b in zip(lams, lams[1:]))
    for r, chain in enumerate(nm.factors):
        for f in chain[1:]:
            assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-12)
            fv = f.ravel(order="F")
            assert fv[np.argmax(np.abs(fv))] >= 0
        assert np.linalg.norm(chain[0]) == pytest.approx(lams[r], abs=1e-9)
    again = normalize(nm)
    for c1, c2 in zip(nm.factors, again.factors):
        for f1, f2 in zip(c1, c2):
            assert_allclose(f1, f2, rtol=1e-13, atol=1e-14)


def test_normalize_rejects_zero_factor():
    chains = [[np.zeros((2, 2)), np.ones((4, 4))]]
    model = DknModel(
        structure=DknStructure(image_dims=(8, 8), factor_dims=[(2, 2), (4, 4)]),
        factors=chains,
    )
    with pytest.raises(DegenerateDataError):
        normalize(model)


def test_kron_eigenvalues_are_norm_products():
    rng = np.random.default_rng(19)
    chains = random_chains(rng, S883)
    model = DknModel(structure=S883, factors=chains)
    want = np.prod([np.linalg.norm(f) for f in chains[0]])
    assert_allclose(model.kron_eigenvalues(), [want], rtol=1e-12)


def test_predict_both_families():
    rng = np.random.default_rng(20)
    chains = random_chains(rng, S883)
    coeff = compose_image(chains, S883)
    images = rng.standard_normal((12, 8, 8))
    eta = np.array([inner(x, coeff) for x in images])

    gm = DknModel(structure=S883, factors=chains, intercept=0.7)
    assert_allclose(predict(gm, images), eta + 0.7, rtol=1e-10)

    bm = DknModel(structure=S883, factors=chains, family="bernoulli")
    assert_allclose(predict(bm, images), 1.0 / (1.0 + np.exp(-eta)), rtol=1e-10)


def test_bic_formula():
    rng = np.random.default_rng(21)
    chains = random_chains(rng, S883)
    coeff = compose_image(chains, S883)
    model = DknModel(structure=S883, factors=chains, intercept=0.3)
    images = rng.standard_normal((40, 8, 8))
    y = rng.standard_normal(40)
    eta = np.array([inner(x, coeff) for x in images]) + 0.3
    want = 2.0 * nll_eta(GAUSSIAN, eta, y) + 12 * np.log(40)
    assert_allclose(bic(model, images, y), want, rtol=1e-12)


def test_scan_rank_prefers_true_rank_one():
    images, y, coeff, _ = noiseless_problem(22, 300, S883)
    result = scan_rank(images, y, S883, [1, 2])
    assert result.best_rank == 1
    assert set(result.reports) == {1, 2}
    assert result.bic_table[1] <= result.bic_table[2]
    assert result.best_model.structure.rank == 1
    d = result.to_dict(include_timing=False)
    assert d["best_rank"] == 1
    assert "wall_time_s" not in d["reports"]["1"]
    with pytest.raises(DimensionError):
        scan_rank(images, y, S883, [])


def scan_problem(seed, n, family):
    """Images and a response of a rank-2 coefficient at ``S883``; the
    Bernoulli one is scaled down so that the classes overlap."""
    rng = np.random.default_rng(seed)
    images = rng.standard_normal((n, 8, 8))
    coeff = compose_coeff(random_chains(rng, replace(S883, rank=2)))
    eta = canonical_rows(images) @ vec(coeff)
    if family == "gaussian":
        return images, eta + 0.5 * rng.standard_normal(n)
    return images, (rng.random(n) < 1.0 / (1.0 + np.exp(-0.5 * eta))).astype(float)


@pytest.mark.parametrize("family", ["gaussian", "bernoulli"])
def test_scan_objective_falls_with_rank_up_to_the_ridge_term(family, monkeypatch):
    """Each rank after the first starts from the previous rank's factors,
    with its new terms' layer-1 factors zero, and every one of its layer
    solves starts from the layer's factors it holds (``beta0``).  A solve
    ends no higher in nll + ridge/2 |beta|^2 than at ``beta0``, so its nll
    rises by at most ridge/2 |beta0|^2: summed over the rank's solves, the
    most its final objective may exceed the previous rank's."""
    images, y = scan_problem(41, 300, family)
    slack, cold, solve = {}, {1: 0, 2: 0, 3: 0}, dkn_fit._solve_layer

    def spy(family, design, y, ridge, beta0=None):
        rank = design.shape[1] // 4  # every factor of S883 has 4 entries
        lam = default_ridge(design) if ridge is None else ridge
        if beta0 is None:
            cold[rank] += 1
        else:
            slack[rank] = slack.get(rank, 0.0) + 0.5 * lam * float(beta0 @ beta0)
        return solve(family, design, y, ridge, beta0)

    monkeypatch.setattr(dkn_fit, "_solve_layer", spy)
    scan = scan_rank(images, y, S883, [1, 2, 3], family=family)
    assert cold == {1: S883.depth, 2: 0, 3: 0}  # only the cold fit's sweep 1 starts at zero
    final = {r: rep.objective_trace[-1] for r, rep in scan.reports.items()}
    for prev, r in [(1, 2), (2, 3)]:
        assert not scan.reports[r].collapse_events
        assert final[r] <= final[prev] + slack[r] + 1e-12 * abs(final[prev]), (prev, r)


def test_scan_first_rank_is_a_cold_fit_bit_for_bit():
    """The smallest rank, whatever order the ranks come in, is a plain fit."""
    images, y = scan_problem(42, 300, "bernoulli")
    options = FitOptions(trace_factors=True)
    scan = scan_rank(images, y, S883, [3, 2], family="bernoulli", options=options)
    _, cold = fit(images, y, replace(S883, rank=2), family="bernoulli", options=options)
    got = scan.reports[2]
    assert got.objective_trace == cold.objective_trace
    assert (got.sweeps, got.bic, scan.bic_table[2]) == (cold.sweeps, cold.bic, cold.bic)
    for a, b in zip(got.snapshots, cold.snapshots):
        assert all(np.array_equal(f, g) for s, t in zip(a, b) for f, g in zip(s, t))
    assert len(got.snapshots) == cold.sweeps


@pytest.mark.parametrize("case", [
    "fit",
    pytest.param("scan", marks=pytest.mark.xfail(
        raises=ConvergenceError, strict=True,
        reason="a layer solve of the scan separates its rows, so IRLS has no optimum to stop at")),
])
def test_bernoulli_fit_completes_where_irls_stalls_at_the_optimum(case):
    """A Bernoulli fit whose layer solve reaches its optimum but whose
    gradient test cannot pass: the objective is flat to 12 digits while the
    gradient stays above the test's threshold, so IRLS halves its steps
    until the iteration cap.  The data are not separable, and the solve
    returns its stalled optimum (``glm._stalled``), so the rank-3 fit
    completes.  The rank scan still raises, at one and two BLAS threads:
    one of its layer solves misclassifies no row, and a stop on such a
    separated layer waits for a fit report that can flag it."""
    images = np.random.default_rng(41).standard_normal((400, 8, 8))
    h = np.random.default_rng(1)
    chains = [[h.standard_normal((2, 2)) for _ in range(3)] for _ in range(2)]
    truth = compose_coeff(chains).reshape(8, 8, order="F")
    eta = images.reshape(400, -1) @ truth.ravel()
    eta *= 8.0 / eta.std()
    y = (h.random(400) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    structure = replace(S883, rank=3)
    if case == "fit":
        fit(images, y, structure, family="bernoulli")
    else:
        scan_rank(images, y, structure, [1, 2, 3], family="bernoulli")


def test_scan_rank_accepts_a_dict_structure():
    """A structure given as a dict is coerced as ``fit`` coerces it."""
    images, y = scan_problem(44, 120, "gaussian")
    as_dict = {"image_dims": S883.image_dims, "factor_dims": S883.factor_dims, "rank": 1}
    got = scan_rank(images, y, as_dict, [1, 2])
    want = scan_rank(images, y, S883, [1, 2])
    assert got.to_dict(include_timing=False) == want.to_dict(include_timing=False)
    assert got.best_model.structure == want.best_model.structure
    for a, b in zip(got.best_model.factors, want.best_model.factors):
        assert all(np.array_equal(f, g) for f, g in zip(a, b))


def _count_solves(monkeypatch):
    """Patch ``glm._solve``, the solve behind ``_solve_layer``, to record the
    ridge of every call."""
    calls, solve = [], dkn_fit.glm._solve

    def spy(family, design, y, lam, beta0):
        calls.append(lam)
        return solve(family, design, y, lam, beta0)

    monkeypatch.setattr(dkn_fit.glm, "_solve", spy)
    return calls


def test_solve_layer_does_not_repeat_a_default_ridge_solve(monkeypatch):
    """With ``ridge=None`` the solve already used the default ridge (0.0
    on an all-zero design), so a rank-deficient one is not run again."""
    calls = _count_solves(monkeypatch)
    with pytest.raises(RankDeficiencyError):
        dkn_fit._solve_layer(GAUSSIAN, np.zeros((4, 2)), np.arange(4.0), None)
    assert calls == [0.0]


def test_solve_layer_retries_an_explicit_ridge_with_the_default(monkeypatch):
    design = np.full((4, 2), 1e8)  # two equal columns: the gram is singular
    y = np.arange(4.0)
    calls = _count_solves(monkeypatch)
    beta = dkn_fit._solve_layer(GAUSSIAN, design, y, 1e-20)
    assert calls == [1e-20, default_ridge(design)]
    assert np.array_equal(beta, fit_glm(GAUSSIAN, design, y, ridge=default_ridge(design)))
    with pytest.raises(RankDeficiencyError):
        fit_glm(GAUSSIAN, design, y, ridge=1e-20)


def test_rank_start_seeds_one_term_per_added_rank(monkeypatch):
    """Ranks [1, 3] add two terms to the rank-1 fit: term k + 1 gets a zero
    layer-1 factor and the chain nearest to the k-th left singular vector
    of the score aggregate, computed here from canonical rows."""
    images, y = scan_problem(43, 120, "gaussian")
    starts, run = {}, dkn_fit._fit

    def spy(stack, y, intercept, truth_vec, structure, family, options, padded_from, start=None):
        starts[structure.rank] = start
        return run(stack, y, intercept, truth_vec, structure, family, options, padded_from, start)

    monkeypatch.setattr(dkn_fit, "_fit", spy)
    scan = scan_rank(images, y, S883, [1, 3])
    assert sorted(scan.reports) == [1, 3] and starts[1] is None
    model1, _ = fit(images, y, S883)
    start = starts[3]
    assert len(start) == 3
    assert all(np.array_equal(f, g) for f, g in zip(start[0], model1.factors[0]))
    agg = canonical_rows(images).T @ (y - predict(model1, images))
    u = np.linalg.svd(agg[reshape_R_indices(S883.dims3, S883.upper_extents(2))])[0]
    for k, chain in enumerate(start[1:]):
        assert not np.any(chain[0]), k
        upper = vec(kron_chain(chain[1:]))
        want = dkn_fit._chain_factors(u[dkn_fit._digits(S883, 2, 3), k], S883.factor_dims[1:])
        want = vec(kron_chain(want))
        assert_allclose(upper, np.sign(upper @ want) * want, atol=1e-12)
    with pytest.raises(DegenerateDataError, match="rank 5 requested"):  # as a cold fit is
        scan_rank(images, y, S883, [1, 5])


def record_fits(mp):
    """Patch ``dkn_fit._fit`` to keep every fit's (model, report), and
    ``_inner_products`` to count the image passes it makes inside one."""
    fits, inside, passes = [], [False], [0]
    run, inner = dkn_fit._fit, dkn_fit._inner_products

    def counted(*args, **kwargs):
        passes[0] += inside[0]
        return inner(*args, **kwargs)

    def spy(*args, **kwargs):
        inside[0] = True
        try:
            fits.append(run(*args, **kwargs))
        finally:
            inside[0] = False
        return fits[-1]

    mp.setattr(dkn_fit, "_inner_products", counted)
    mp.setattr(dkn_fit, "_fit", spy)
    return fits, passes


@pytest.mark.parametrize("case", ["centered", "gaussian", "bernoulli", "padded", "max_sweeps", "scan"])
def test_report_bic_is_the_public_bic_without_an_image_pass(case, monkeypatch):
    """The BIC a fit reports comes from its last layer-L design, so the fit
    makes no pass over the images for it; it is :func:`bic` of the fitted
    model to rounding: with the intercept of a centered gaussian fit, for
    unpadded images of a padded structure, for a fit that stops at
    ``max_sweeps`` and for every rank of a scan, the started ones too."""
    family = "gaussian" if case in ("centered", "gaussian") else "bernoulli"
    images, y = scan_problem(45, 200, family)
    structure, padded_from, options = replace(S883, rank=2), None, FitOptions()
    if case == "centered":
        y, options = y + 3.0, FitOptions(center_response=True)
    elif case == "padded":
        structure, padded_from = auto_structure((7, 6), rank=2)
        images = images[:, :7, :6]
    elif case == "max_sweeps":
        options = FitOptions(max_sweeps=2, tol=0.0)
    fits, passes = record_fits(monkeypatch)
    if case == "scan":
        scan_rank(images, y, S883, [1, 2, 3], family=family)
    else:
        fit(images, y, structure, family=family, options=options, padded_from=padded_from)
    assert passes == [0] and len(fits) == (3 if case == "scan" else 1)
    for model, report in fits:
        assert report.bic == pytest.approx(bic(model, images, y), rel=1e-12)
        assert (report.intercept != 0.0) == (case == "centered")
        if case == "max_sweeps":
            assert (report.sweeps, report.converged) == (2, False)


def test_a_rank_scan_builds_one_stack(monkeypatch):
    """Every rank of a scan reads the one solver stack the scan builds."""
    images, y = scan_problem(46, 120, "bernoulli")
    calls, build = [], dkn_fit._vectorize_images

    def counted(*args, **kwargs):
        calls.append(args[1])
        return build(*args, **kwargs)

    monkeypatch.setattr(dkn_fit, "_vectorize_images", counted)
    scan = scan_rank(images, y, S883, [1, 2, 3], family="bernoulli")
    assert sorted(scan.reports) == [1, 2, 3] and calls == [S883]


@pytest.mark.parametrize("ranks", [[1, 3], [1, 2, 3]])
def test_one_call_checks_its_inputs_once(monkeypatch, ranks):
    """``fit`` is a one-rank ``scan_rank``: a fit, and a scan of any number
    of ranks, checks its response, options and trace truth once, and its
    ranks' wall times add up to no more than the call's."""
    images, y = scan_problem(47, 120, "gaussian")
    calls, check = [], dkn_fit._checked_inputs

    def counted(*args, **kwargs):
        calls.append(args[2])
        return check(*args, **kwargs)

    monkeypatch.setattr(dkn_fit, "_checked_inputs", counted)
    options = FitOptions(trace_truth=np.ones((8, 8)))
    t0 = time.perf_counter()
    _, report = fit(images, y, replace(S883, rank=2), options=options)
    elapsed = time.perf_counter() - t0
    assert calls == [replace(S883, rank=2)] and 0.0 < report.wall_time_s <= elapsed
    assert len(report.dist_trace) == report.sweeps
    calls.clear()
    t0 = time.perf_counter()
    scan = scan_rank(images, y, S883, ranks, options=options)
    elapsed = time.perf_counter() - t0
    assert calls == [S883] and sorted(scan.reports) == ranks
    times = [rep.wall_time_s for rep in scan.reports.values()]
    assert min(times) > 0.0 and sum(times) <= elapsed


@pytest.mark.parametrize("ranks", [[1.5, 2.7], [1, 2.0], [True, 2], [1, "2"], 2, [np.float64(2)]],
                         ids=["fractions", "float", "bool", "string", "bare", "numpy-float"])
def test_scan_rank_refuses_ranks_that_are_not_integers(monkeypatch, ranks):
    """A rank that is not an integer, a bool included, is refused, naming
    it, before the solver stack is built; numpy integers are integers."""

    def no_stack(*args, **kwargs):
        raise AssertionError("the solver stack was built before the ranks were checked")

    images, y = scan_problem(48, 60, "gaussian")
    with monkeypatch.context() as mp:
        mp.setattr(dkn_fit, "_vectorize_images", no_stack)
        with pytest.raises(DimensionError) as err:
            scan_rank(images, y, S883, ranks)
    bad = ranks if ranks == 2 else next(r for r in ranks if type(r) is not int)
    assert repr(bad) in str(err.value)
    scan = scan_rank(images, y, S883, [np.int64(2), 1])
    assert sorted(scan.reports) == [1, 2] and all(type(r) is int for r in scan.reports)


@pytest.mark.parametrize("entry", ["fit", "fit-list", "scan_rank", "predict", "init_spectral",
                                   "probe_rip", "probe_tau0"])
def test_no_images_are_refused(entry):
    """Every entry point that reads images refuses none at all with a
    DimensionError, for an empty array and an empty list alike."""
    from dkn.diagnostics import probe_rip, probe_tau0

    none, y = np.zeros((0, 8, 8)), np.zeros(0)
    model = DknModel(structure=S883, factors=[[np.ones(fd) for fd in S883.factor_dims]])
    calls = {
        "fit": lambda: fit(none, y, S883),
        "fit-list": lambda: fit([], y, S883),
        "scan_rank": lambda: scan_rank(none, y, S883, [1, 2]),
        "predict": lambda: predict(model, none),
        "init_spectral": lambda: init_spectral(none, y, S883),
        "probe_rip": lambda: probe_rip(none, S883),
        "probe_tau0": lambda: probe_tau0(none, y, S883),
    }
    with pytest.raises(DimensionError, match=r"^need at least one image$"):
        calls[entry]()


def test_chain_factors_recompose_an_exact_chain():
    """Successive rank-1 SVDs of an exact chain in layer-digit order give
    factors that recompose it to rounding, unit layers included."""
    rng = np.random.default_rng(44)
    for fds in [[(2, 1, 1), (3, 1, 1)], [(2, 2, 1), (2, 2, 1), (2, 2, 1)],
                [(2, 2, 2), (1, 1, 1), (3, 2, 1), (2, 1, 2)]]:
        chain = [rng.standard_normal(fd) for fd in fds]
        v = reduce(np.kron, [vec(f) for f in chain])
        got = dkn_fit._chain_factors(v, fds)
        assert [f.shape for f in got] == fds
        assert_allclose(reduce(np.kron, [vec(f) for f in got]), v, rtol=0,
                        atol=1e-12 * np.linalg.norm(v))


def test_kron_is_np_kron_on_vectors():
    rng = np.random.default_rng(45)
    for m, k in [(1, 1), (1, 5), (4, 1), (4, 16), (8, 27)]:
        a, b = rng.standard_normal(m), rng.standard_normal(k)
        assert np.array_equal(dkn_fit._kron(a, b), np.kron(a, b))


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(23)
    structure = DknStructure(
        image_dims=(8, 8), factor_dims=[(2, 2), (2, 2), (2, 2)], rank=2
    )
    chains = random_chains(rng, structure)
    model = DknModel(
        structure=structure,
        factors=chains,
        family="bernoulli",
        intercept=0.25,
        padded_from=(7, 8),
    )
    out = tmp_path / "model"
    save_model(model, out)
    back = load_model(out)
    assert back.family == "bernoulli"
    assert back.intercept == 0.25
    assert back.padded_from == (7, 8)
    assert back.structure == structure
    for c1, c2 in zip(model.factors, back.factors):
        for f1, f2 in zip(c1, c2):
            assert np.array_equal(f1, f2)


def test_manifest_bytes_are_sorted_strict_json_at_indent_2(tmp_path):
    rng = np.random.default_rng(23)
    model = DknModel(structure=S883, factors=random_chains(rng, S883), intercept=0.5)
    with open(save_model(model, tmp_path)) as fh:
        text = fh.read()
    manifest = json.loads(text)
    assert text == json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n"
    assert list(manifest) == sorted(manifest) and manifest["intercept"] == 0.5


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.sampled_from((2, 3, 5, 6, 7, 10, 12)), min_size=1, max_size=3).filter(
        lambda dims: auto_structure(dims)[1] is not None and np.prod(dims) <= 600
    ),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_padded_fit_crops_back_to_the_original_extents(dims, rank, seed):
    """A fit on images at awkward extents, zero-padded by ``auto_structure``,
    gives a coefficient at the original extents, predicts the unpadded
    images as it predicts their padded copies, and keeps ``padded_from``
    through ``save_model``/``load_model``."""
    structure, padded_from = auto_structure(dims, 1)
    # The spectral init needs rank R directions at every layer boundary.
    cap = min(
        min(np.prod(structure.upper_extents(l)), np.prod(structure.lower_extents(l - 1)))
        for l in range(2, structure.depth + 1)
    )
    structure = replace(structure, rank=int(min(rank, cap)))
    rng = np.random.default_rng(seed)
    images = rng.standard_normal((40,) + tuple(dims))
    y = rng.standard_normal(40)
    options = FitOptions(max_sweeps=3, tol=0.0)
    model, _ = fit(images, y, structure, options=options, padded_from=padded_from)
    assert model.padded_from == tuple(dims)
    assert model.coefficient().shape == tuple(dims)
    assert model.coefficient(crop=False).shape == structure.image_dims
    got = predict(model, images)
    want = predict(model, pad_images(images, padded_from, structure.image_dims))
    scale = float(np.max(np.abs(canonical_rows(images)) @ np.abs(vec(model.coefficient()))))
    assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)
    with tempfile.TemporaryDirectory() as out:
        save_model(model, out)
        back = load_model(out)
    assert back.padded_from == tuple(dims)
    assert_allclose(predict(back, images), got, rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_pixels_pass_through_to_their_rows(bad):
    """``predict`` and ``build_design`` do not check pixels: the non-finite
    rows of their output are exactly the images with a non-finite pixel,
    and every other row is what it is without them."""
    rng = np.random.default_rng(43)
    structure = DknStructure(image_dims=(8, 12), factor_dims=[(2, 2), (2, 2), (2, 3)], rank=2)
    model = DknModel(structure=structure, factors=random_chains(rng, structure))
    clean = rng.standard_normal((20, 8, 12))
    images = clean.copy()
    images[3, 0, 0] = bad
    images[11, 5, 7] = bad
    images[11, 7, 11] = bad
    bad_rows = [3, 11]
    # numpy may warn about the invalid arithmetic; the rows are the contract.
    with np.errstate(invalid="ignore", over="ignore"):
        pred = predict(model, images)
        designs = [
            build_design(images, structure, l, partial_products(model, l + 1, "left"),
                         partial_products(model, l - 1, "right"))
            for l in range(1, structure.depth + 1)
        ]
    assert np.flatnonzero(~np.isfinite(pred)).tolist() == bad_rows
    ok = np.isfinite(pred)
    assert_allclose(pred[ok], predict(model, clean)[ok], rtol=1e-12)
    for l, design in enumerate(designs, start=1):
        rows = np.flatnonzero(~np.all(np.isfinite(design), axis=1))
        assert rows.tolist() == bad_rows, l
        left = partial_products(model, l + 1, "left")
        want = build_design(clean, structure, l, left, partial_products(model, l - 1, "right"))
        assert_allclose(design[ok], want[ok], rtol=1e-12)


def test_fit_trace_agrees_across_blas_thread_counts():
    """Byte-identity holds for a fixed BLAS thread count; across 1 and 2
    threads one fit's objective trace agrees within 1e-12 relative."""
    code = (
        "import json, numpy as np\n"
        "from dkn.dkn_fit import FitOptions, auto_structure, fit\n"
        "rng = np.random.default_rng(5)\n"
        "x = rng.standard_normal((600, 32, 32))\n"
        "y = x[:, 8:16, 8:16].sum(axis=(1, 2)) + rng.standard_normal(600)\n"
        "structure, _ = auto_structure((32, 32), 2)\n"
        "opts = FitOptions(max_sweeps=6, tol=0.0)\n"
        "print(json.dumps(fit(x, y, structure, options=opts)[1].objective_trace))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    traces = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        traces.append(json.loads(proc.stdout))
    assert len(traces[0]) == len(traces[1]) == 6
    assert_allclose(traces[1], traces[0], rtol=1e-12)


def test_load_model_rejects_malformed_directories(tmp_path):
    rng = np.random.default_rng(24)
    chains = random_chains(rng, S883)
    model = DknModel(structure=S883, factors=chains)
    out = tmp_path / "model"
    save_model(model, out)

    with pytest.raises(DataFormatError):
        load_model(tmp_path / "nowhere")

    bad_json = tmp_path / "badjson"
    bad_json.mkdir()
    (bad_json / "manifest.json").write_text("{ not json")
    with pytest.raises(DataFormatError):
        load_model(bad_json)

    import json

    manifest = json.loads((out / "manifest.json").read_text())
    manifest["format"] = "other"
    other = tmp_path / "otherfmt"
    other.mkdir()
    (other / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DataFormatError):
        load_model(other)

    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["factor_files"]["r1_l2"]
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DataFormatError):
        load_model(out)


def test_load_model_checks_factor_extents(tmp_path):
    rng = np.random.default_rng(25)
    chains = random_chains(rng, S883)
    model = DknModel(structure=S883, factors=chains)
    out = tmp_path / "model"
    save_model(model, out)
    from dkn.tensor_core import write_dkt

    write_dkt(out / "factor_r1_l2.dkt", np.ones((3, 3)))
    with pytest.raises(DataFormatError):
        load_model(out)


def test_fit_on_padded_images_end_to_end():
    """Images whose extents need padding still fit, and the coefficient
    comes back cropped to the original extents."""
    rng = np.random.default_rng(26)
    structure, padded_from = auto_structure((12, 10))
    chains = random_chains(rng, structure)
    coeff_pad = compose_image(chains, structure)
    coeff = coeff_pad[:12, :10]
    images = rng.standard_normal((300, 12, 10))
    y = np.array([inner(x, coeff) for x in images])
    model, report = fit(
        images,
        y,
        structure,
        options=FitOptions(max_sweeps=200, tol=1e-12),
        padded_from=padded_from,
    )
    assert model.coefficient().shape == (12, 10)
    assert model.image_dims_out == (12, 10)
    assert dist(model.coefficient(), coeff) <= 1e-6
    assert_allclose(predict(model, images), y, rtol=0, atol=1e-4)


def test_predict_is_the_same_for_every_input_layout(tmp_path):
    """A padded rank-2 Bernoulli model with an intercept predicts the same
    for every accepted layout of the same images, also after normalize and
    after a save/load round trip; the BIC a fit reports is the public bic."""
    rng = np.random.default_rng(43)
    n = 150
    structure, padded_from = auto_structure((12, 10), rank=2)
    images = rng.standard_normal((n, 12, 10))
    coeff = compose_image(random_chains(rng, structure), structure)[:12, :10]
    eta = np.array([inner(x, coeff) for x in images]) / np.linalg.norm(coeff)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    fitted, report = fit(images, y, structure, family="bernoulli",
                         options=FitOptions(max_sweeps=3, tol=0.0), padded_from=padded_from)
    assert bic(fitted, images, y) == pytest.approx(report.bic, rel=1e-12)

    # the same coefficient, but not in normalize's canonical form
    raw = [[c[0] * -2.0] + c[1:-1] + [c[-1] * -0.5] for c in fitted.factors]
    model = replace(fitted, factors=raw, intercept=0.4)
    save_model(model, str(tmp_path / "model"))
    models = {"raw": model, "normalized": normalize(model),
              "reloaded": load_model(str(tmp_path / "model"))}

    padded = pad_images(images, padded_from, structure.image_dims)
    (tmp_path / "images").mkdir()
    for i, x in enumerate(images):
        write_dkt(str(tmp_path / "images" / f"img_{i:05d}.dkt"), x)
    from_files = read_dkt_stack(_image_paths(str(tmp_path / "images")))
    assert from_files.strides[1] < from_files.strides[2]  # column-major images
    layouts = {
        "list of tensors": list(images),
        "original extents": images,
        "padded extents": padded,
        "dims3": padded.reshape((n,) + structure.dims3),
        "canonical rows": np.stack([vec(x) for x in padded]),
        "DKT1 stack": from_files,
    }
    want_eta = np.array([inner(x, model.coefficient()) for x in images]) + 0.4
    want = BERNOULLI.mean(want_eta)
    for m_name, m in models.items():
        for name, x in layouts.items():
            assert_allclose(predict(m, x), want, rtol=1e-12, err_msg=f"{m_name}, {name}")


def test_model_validation():
    rng = np.random.default_rng(27)
    chains = random_chains(rng, S883)
    with pytest.raises(DimensionError):
        DknModel(structure=S883, factors=chains + chains)  # rank mismatch
    with pytest.raises(DimensionError):
        DknModel(structure=S883, factors=[chains[0][:2]])  # depth mismatch
    with pytest.raises(DimensionError):
        DknModel(structure=S883, factors=[[np.ones((3, 3))] * 3])


def test_report_to_dict_timing_switch():
    images, y, coeff, _ = noiseless_problem(28, 60, S883)
    _, report = fit(
        images, y, S883, options=FitOptions(max_sweeps=3, tol=0.0, trace_truth=coeff)
    )
    with_t = report.to_dict()
    without_t = report.to_dict(include_timing=False)
    assert "wall_time_s" in with_t
    assert "wall_time_s" not in without_t
    assert len(without_t["dist_trace"]) == 3
    assert without_t["rank"] == 1


def two_layer_designs(images, b_other, layer):
    """Loop-built layer designs for a depth-2 model on 4x4 images.

    The composed coefficient has entries C[i2 + 2*i1, j2 + 2*j1]
    = B1[i1, j1] * B2[i2, j2], so each layer's design column multiplies one
    factor entry, columns ordered first-index-fastest.
    """
    n = images.shape[0]
    blocks = []
    for other in b_other:
        block = np.zeros((n, 4))
        for ja in range(2):
            for ia in range(2):
                acc = np.zeros(n)
                for ib in range(2):
                    for jb in range(2):
                        if layer == 1:
                            acc += other[ib, jb] * images[:, ib + 2 * ia, jb + 2 * ja]
                        else:
                            acc += other[ib, jb] * images[:, ia + 2 * ib, ja + 2 * jb]
                block[:, ia + 2 * ja] = acc
        blocks.append(block)
    return np.hstack(blocks)


def compose_two_layer(b1s, b2s):
    c = np.zeros((4, 4))
    for b1, b2 in zip(b1s, b2s):
        for i1 in range(2):
            for j1 in range(2):
                for i2 in range(2):
                    for j2 in range(2):
                        c[i2 + 2 * i1, j2 + 2 * j1] += b1[i1, j1] * b2[i2, j2]
    return c


def test_depth_two_fit_equals_plain_alternating_least_squares():
    """A from-scratch two-layer ALS (lstsq, loop-built designs) follows the
    solver sweep for sweep when both start from the same initialization."""
    rng = np.random.default_rng(29)
    structure = DknStructure(image_dims=(4, 4), factor_dims=[(2, 2), (2, 2)], rank=2)
    truth = random_chains(rng, structure)
    coeff = compose_image(truth, structure)
    images = rng.standard_normal((60, 4, 4))
    y = np.array([inner(x, coeff) for x in images])
    y = y + 0.1 * rng.standard_normal(60)

    opts = FitOptions(max_sweeps=3, tol=0.0, ridge=0.0, trace_factors=True)
    _, report = fit(images, y, structure, options=opts)

    b2s = [unvec(v, (2, 2)) for v in init_spectral(images, y, structure)[2]]
    for t in range(3):
        d1 = two_layer_designs(images, b2s, layer=1)
        beta1 = np.linalg.lstsq(d1, y, rcond=None)[0]
        b1s = [unvec(beta1[4 * r : 4 * (r + 1)], (2, 2)) for r in range(2)]
        d2 = two_layer_designs(images, b1s, layer=2)
        beta2 = np.linalg.lstsq(d2, y, rcond=None)[0]
        b2s = [unvec(beta2[4 * r : 4 * (r + 1)], (2, 2)) for r in range(2)]
        c_mine = compose_two_layer(b1s, b2s)
        c_fit = compose_image(report.snapshots[t], structure)
        # lstsq and the solver's normal equations agree to solver precision
        assert dist(c_mine, c_fit) <= 1e-6
