from dataclasses import replace

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
from dkn.cli import _load_images_dir
from dkn.dkn_fit import _vectorize_images
from dkn.errors import DataFormatError, DegenerateDataError, DimensionError
from dkn.glm import BERNOULLI, GAUSSIAN, IRLS_GRAD_TOL, nll_eta
from dkn.kron_ops import compose_coeff, kron_chain, reshape_R_indices, tkp
from dkn.tensor_core import dist, inner, unvec, vec, write_dkt

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
    """Every accepted layout gives the voxel-major stack: C-contiguous
    (n_voxels, n), column i the canonical vec of image i."""
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
            assert np.array_equal(stack[:, i], vec(x[i])), name
    with pytest.raises(DimensionError):
        _vectorize_images(rng.standard_normal((6, 8, 4)), S883)


def test_weighted_sum_is_the_stack_adjoint_for_every_layout():
    """sum_i w_i vec(X_i), summed in the images' own memory order, equals
    the voxel-major stack times w for every accepted layout, and for
    unpadded images of a padded structure."""
    rng = np.random.default_rng(25)
    x = rng.standard_normal((6, 8, 8))
    w = rng.standard_normal(6)
    want = _vectorize_images(x, S883) @ w
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
    padded = _vectorize_images(small, structure, padded_from) @ w
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
    handed, in call order: one per (sweep, layer)."""
    designs = []
    solve = dkn_fit._solve_layer

    def spy(family, design, y, ridge, beta0=None):
        designs.append(np.array(design))
        return solve(family, design, y, ridge, beta0)

    mp.setattr(dkn_fit, "_solve_layer", spy)
    return designs


def sweep_partial_products(report, structure, seed):
    """(upper, lower) products of every (sweep, layer) solve, rebuilt from a
    fit report: upper products from the spectral seeds in sweep 1 and from
    the previous sweep's factors after it; lower products from this sweep's
    factors, restarted from the seeded stream at each lower-side reseed."""
    L, R = structure.depth, structure.rank
    out = []
    for t, factors in enumerate(report.snapshots, start=1):
        if t == 1:
            ups = report.init_left_products
        else:
            prev = DknModel(structure=structure, factors=report.snapshots[t - 2])
            ups = {l: partial_products(prev, l, "left") for l in range(2, L + 2)}
        lows = [np.ones(1)] * R
        for l in range(1, L + 1):
            for k, e in enumerate(report.collapse_events):
                assert e["side"] == "right"  # upper reseeds are not rebuilt here
                if (e["sweep"], e["layer"]) == (t, l):
                    v = rng_mod.stream(seed, rng_mod.PURPOSE_RESEED, k).standard_normal(
                        lows[e["term"] - 1].size
                    )
                    lows[e["term"] - 1] = v / np.linalg.norm(v)
            out.append((ups[l + 1], lows))
            lows = [
                vec(tkp(factors[r][l - 1], unvec(lows[r], structure.lower_extents(l - 1))))
                for r in range(R)
            ]
    return out


def assert_sweep_designs_match_gather(images, y, structure, family, options, padded_from=None):
    with pytest.MonkeyPatch.context() as mp:
        designs = record_designs(mp)
        _, report = fit(images, y, structure, family=family, options=options, padded_from=padded_from)
    products = sweep_partial_products(report, structure, options.seed)
    assert len(designs) == len(products) == report.sweeps * structure.depth
    if padded_from is not None:
        images = pad_images(images, padded_from, structure.image_dims)
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
    vec_x = _vectorize_images(images, structure)
    fam = GAUSSIAN if family == "gaussian" else BERNOULLI
    want = [nll_eta(fam, vec(compose_coeff(f)) @ vec_x, y) for f in report.snapshots]
    assert_allclose(report.objective_trace, want, rtol=1e-12)


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


def test_partial_products_match_direct_composition():
    rng = np.random.default_rng(4)
    structure = DknStructure(
        image_dims=(8, 8), factor_dims=[(2, 2), (2, 2), (2, 2)], rank=2
    )
    chains = random_chains(rng, structure)
    model = DknModel(structure=structure, factors=chains)
    for l in range(1, 5):
        got = partial_products(model, l, "left")
        for r in range(2):
            if l == 4:
                assert np.array_equal(got[r], [1.0])
            else:
                # equality up to the float association order of triple products
                assert_allclose(
                    got[r], vec(kron_chain(chains[r][l - 1 :])), rtol=1e-13, atol=1e-15
                )
    for l in range(0, 4):
        got = partial_products(model, l, "right")
        for r in range(2):
            if l == 0:
                assert np.array_equal(got[r], [1.0])
            else:
                assert_allclose(
                    got[r], vec(kron_chain(chains[r][:l])), rtol=1e-13, atol=1e-15
                )
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
    Bernoulli solves of both are warm-started from the sweep-1 factors."""
    rng = np.random.default_rng(9)
    structure = DknStructure(
        image_dims=(8, 8), factor_dims=[(2, 2), (2, 2), (2, 2)], rank=2
    )
    images = rng.standard_normal((80, 8, 8))
    y_gauss = rng.standard_normal(80)
    opts = FitOptions(max_sweeps=2, tol=0.0, trace_factors=True)
    for family, y in (("gaussian", y_gauss), ("bernoulli", (y_gauss > 0) * 1.0)):
        _, report = fit(images, y, structure, family=family, options=opts)
        assert len(report.snapshots) == 2

        model1 = DknModel(structure=structure, factors=report.snapshots[0], family=family)
        cur = model1
        for l in range(1, 4):
            left = partial_products(model1, l + 1, "left")
            cur, _ = sweep_update(cur, images, y, l=l, options=opts, left=left)
        for r in range(2):
            for l in range(3):
                assert_allclose(
                    cur.factors[r][l], report.snapshots[1][r][l], rtol=1e-12, atol=1e-14,
                    err_msg=family,
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
    xs = _vectorize_images(images, S883)
    ols = np.linalg.lstsq(xs.T, y, rcond=None)[0]
    rss_ols = float(np.sum((y - ols @ xs) ** 2))
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
    from_files = _load_images_dir(str(tmp_path / "images"))
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

    b2s = [unvec(v, (2, 2)) for v in report.init_left_products[2]]
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
