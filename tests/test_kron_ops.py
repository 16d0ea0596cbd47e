import itertools
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dkn.errors import DimensionError
from dkn.kron_ops import (
    _contract_lower,
    _contract_upper,
    _triple,
    compose_coeff,
    conv_chain_eval,
    kron_chain,
    nonoverlap_conv,
    reshape_R,
    reshape_R_indices,
    reshape_T,
    reshape_T_indices,
    tkp,
)
from dkn.tensor_core import dist, fro_norm, inner, unvec, vec


def chain_oracle(factors):
    """Composed chain built only from numpy's kron.

    np.kron runs its second operand fastest along every mode, so folding
    left to right leaves the last factor innermost.
    """
    return reduce(np.kron, factors)


def cp_outer_oracle(terms):
    out = None
    for chain in terms:
        t = reduce(np.multiply.outer, [vec(f) for f in chain])
        out = t if out is None else out + t
    return out


def random_chain(rng, dims_list):
    return [rng.standard_normal(d) for d in dims_list]


def test_tkp_vector_hand_example():
    got = tkp(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    assert_allclose(got, [3.0, 6.0, 4.0, 8.0])


def test_tkp_matches_numpy_kron_with_swapped_roles():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal(3), rng.standard_normal(4)
    assert np.array_equal(tkp(a, b), np.kron(b, a))
    a, b = rng.standard_normal((2, 3)), rng.standard_normal((3, 2))
    assert np.array_equal(tkp(a, b), np.kron(b, a))


def test_tkp_entry_formula():
    """out[i_a + da*i_b, j_a + pa*j_b, k_a + qa*k_b] = a[ia,ja,ka] * b[ib,jb,kb],
    checked entry by entry at every order, and the result is column-major."""
    rng = np.random.default_rng(1)
    for a_dims, b_dims in [((3,), (4,)), ((2, 3), (3, 2)), ((2, 3, 2), (3, 2, 2))]:
        a = rng.standard_normal(a_dims)
        b = rng.standard_normal(b_dims)
        out = tkp(a, b)
        assert out.shape == tuple(m * n for m, n in zip(a_dims, b_dims))
        assert out.flags.f_contiguous
        for ia in np.ndindex(*a_dims):
            for ib in np.ndindex(*b_dims):
                at = tuple(i + m * j for i, m, j in zip(ia, a_dims, ib))
                assert out[at] == a[ia] * b[ib]


def test_tkp_associative():
    # equality is up to the float non-associativity of triple products
    rng = np.random.default_rng(2)
    a, b, c = (rng.standard_normal((2, 2)) for _ in range(3))
    assert_allclose(tkp(tkp(a, b), c), tkp(a, tkp(b, c)), rtol=1e-13)


def test_tkp_norm_multiplicative():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 2))
    b = rng.standard_normal((2, 4))
    assert_allclose(fro_norm(tkp(a, b)), fro_norm(a) * fro_norm(b), rtol=1e-13)


def test_tkp_order_mismatch():
    with pytest.raises(DimensionError):
        tkp(np.zeros(2), np.zeros((2, 2)))


def test_kron_chain_matches_vec_kron_oracle():
    rng = np.random.default_rng(4)
    shapes = [
        [(2,), (3,), (2,)],
        [(2, 2), (2, 3)],
        [(2, 2, 2), (2, 2, 2), (2, 2, 2)],
        [(2, 1, 2), (1, 3, 1), (2, 2, 2), (2, 1, 1)],
    ]
    for dims_list in shapes:
        factors = random_chain(rng, dims_list)
        assert np.array_equal(kron_chain(factors), chain_oracle(factors))


def test_kron_chain_edges():
    a = np.arange(4, dtype=np.float64).reshape(2, 2)
    assert np.array_equal(kron_chain([a]), a)
    with pytest.raises(DimensionError):
        kron_chain([])
    with pytest.raises(DimensionError):
        kron_chain([a, np.zeros(2)])
    with pytest.raises(DimensionError):
        kron_chain([np.ones((2, 1, 1, 2)), np.ones((1, 2, 2, 1))])


def test_compose_coeff_sums_chains():
    rng = np.random.default_rng(5)
    terms = [random_chain(rng, [(2, 2), (3, 2)]) for _ in range(3)]
    want = sum(kron_chain(c) for c in terms)
    assert np.array_equal(compose_coeff(terms), want)
    with pytest.raises(DimensionError):
        compose_coeff([])
    with pytest.raises(DimensionError):
        compose_coeff([terms[0], random_chain(rng, [(2, 2), (2, 2)])])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3),
    st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_reshape_against_outer_product(a_dims, b_dims, seed):
    """The reshape's defining identity: a Kronecker product becomes rank one."""
    if len(a_dims) != len(b_dims):
        b_dims = (b_dims + [1, 1, 1])[: len(a_dims)]
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(tuple(a_dims))
    b = rng.standard_normal(tuple(b_dims))
    got = reshape_R(tkp(a, b), a.shape)
    assert np.array_equal(got, np.outer(vec(a), vec(b)))


def test_reshape_rows_are_sublattices():
    rng = np.random.default_rng(6)
    c = rng.standard_normal((4, 6, 2))
    grid = (2, 3, 2)
    got = reshape_R(c, grid)
    d1, p1, q1 = grid
    for k in range(q1):
        for j in range(p1):
            for h in range(d1):
                row = h + d1 * j + d1 * p1 * k
                assert np.array_equal(got[row], vec(c[h::d1, j::p1, k::q1]))


def test_reshape_degenerate_grids():
    rng = np.random.default_rng(7)
    c = rng.standard_normal((3, 4))
    as_col = reshape_R(c, c.shape)
    assert as_col.shape == (12, 1)
    assert np.array_equal(as_col[:, 0], vec(c))
    as_row = reshape_R(c, (1, 1))
    assert as_row.shape == (1, 12)
    assert np.array_equal(as_row[0], vec(c))


def test_reshape_is_entry_permutation():
    rng = np.random.default_rng(8)
    c = rng.standard_normal((4, 4, 2))
    got = reshape_R(c, (2, 2, 1))
    assert np.array_equal(np.sort(got.ravel()), np.sort(c.ravel()))


def test_reshape_index_map_gathers():
    rng = np.random.default_rng(9)
    c = rng.standard_normal((4, 6, 2))
    m = reshape_R_indices(c.shape, (2, 3, 1))
    assert np.array_equal(vec(c)[m], reshape_R(c, (2, 3, 1)))
    assert not m.flags.writeable
    # batch use: one gather applies the reshape to every row at once
    stack = rng.standard_normal((5, c.size))
    batched = stack[:, m]
    for i in range(5):
        assert np.array_equal(batched[i], unflattened := stack[i][m])
        assert unflattened.shape == m.shape


def test_reshape_grid_must_divide():
    with pytest.raises(DimensionError):
        reshape_R(np.zeros((4, 4)), (3, 2))
    with pytest.raises(DimensionError):
        reshape_R_indices((4, 4, 1), (0, 2, 1))


def reshape_R_indices_oracle(dims3, grid3):
    """``reshape_R_indices`` built from the sub-lattice definition: each
    mode split into (offset, stride) digits, the offsets grouped as rows."""
    d, p, q = dims3
    d1, p1, q1 = grid3
    d2, p2, q2 = d // d1, p // p1, q // q1
    src = np.arange(d * p * q, dtype=np.intp).reshape(dims3, order="F")
    t6 = src.reshape((d1, d2, p1, p2, q1, q2), order="F")
    return t6.transpose(0, 2, 4, 1, 3, 5).reshape((d1 * p1 * q1, d2 * p2 * q2), order="F")


def test_reshape_index_map_matches_the_sub_lattice_oracle():
    """The map taken from the two-level layer-digit map equals the
    sub-lattice construction for every dividing grid, read-only as well."""
    extents, grids, pairs = (1, 2, 3, 4, 6, 8, 12), (1, 2, 3, 4, 6), 0
    for dims in itertools.product(extents, repeat=3):
        for grid in itertools.product(grids, repeat=3):
            if any(n % g for n, g in zip(dims, grid)):
                continue
            got, want = reshape_R_indices(dims, grid), reshape_R_indices_oracle(dims, grid)
            assert got.shape == want.shape and np.array_equal(got, want), (dims, grid)
            assert not got.flags.writeable
            pairs += 1
    assert pairs == 8000


def test_regroup_cp_identity_ranks_and_depths():
    """Sums of Kronecker chains regroup to sums of CP outer products."""
    rng = np.random.default_rng(10)
    for L, dims_list in [(2, [(2, 3), (3, 2)]), (3, [(2, 2), (2, 2), (3, 2)])]:
        for R in (1, 2, 3):
            terms = [random_chain(rng, dims_list) for _ in range(R)]
            got = reshape_T(compose_coeff(terms), dims_list)
            assert got.ndim == L
            assert_allclose(got, cp_outer_oracle(terms), rtol=0, atol=1e-12)


def test_regroup_single_chain_is_exact():
    rng = np.random.default_rng(11)
    dims_list = [(2, 2, 2), (2, 3, 1), (3, 1, 2)]
    chain = random_chain(rng, dims_list)
    got = reshape_T(kron_chain(chain), dims_list)
    assert np.array_equal(got, cp_outer_oracle([chain]))


def test_regroup_preserves_entries_and_norm():
    rng = np.random.default_rng(12)
    c = rng.standard_normal((4, 4, 4))
    dims_list = [(2, 2, 2), (2, 2, 2)]
    got = reshape_T(c, dims_list)
    assert np.array_equal(np.sort(got.ravel()), np.sort(c.ravel()))
    assert_allclose(fro_norm(got), fro_norm(c), rtol=1e-14)


def test_regroup_depth_five():
    rng = np.random.default_rng(13)
    dims_list = [(2, 1, 1)] * 5
    chain = random_chain(rng, dims_list)
    got = reshape_T(kron_chain(chain), dims_list)
    assert got.shape == (2, 2, 2, 2, 2)
    assert np.array_equal(
        got.ravel(order="F"), cp_outer_oracle([chain]).ravel(order="F")
    )


def test_regroup_extent_validation():
    with pytest.raises(DimensionError):
        reshape_T(np.zeros((4, 4)), [(2, 2), (3, 2)])
    with pytest.raises(DimensionError):
        reshape_T(np.zeros((4, 4)), [])


def conv_oracle(x, b):
    """The einsum ``nonoverlap_conv`` ran before it became a contraction of
    the stack; kept as the oracle for that primitive."""
    x3 = x.reshape(_triple(x.shape), order="F")
    b3 = b.reshape(_triple(b.shape), order="F")
    od, op, oq = (n // m for n, m in zip(x3.shape, b3.shape))
    x6 = x3.reshape((od, b3.shape[0], op, b3.shape[1], oq, b3.shape[2]), order="F")
    return np.einsum("aubvcw,uvw->abc", x6, b3)


def lower_oracle(t, extents, lo, lo_extents):
    """The einsum contraction of a ``(rows, n)`` stack of canonical vecs at
    per-mode ``extents`` against the lower product ``lo`` at ``lo_extents``,
    the slowest part of every mode: the strided primitive the solver used
    while its stack was in canonical order."""
    (d, p, q), (d_lo, p_lo, q_lo) = extents, lo_extents
    n = t.shape[1]
    view = t.reshape(q_lo, q // q_lo, p_lo, p // p_lo, d_lo, d // d_lo, n)
    out = np.einsum("qapbdcn,qpd->abcn", view, np.reshape(lo, (q_lo, p_lo, d_lo)))
    return out.reshape(-1, n)


def upper_oracle(t, extents, up, up_extents):
    """The mirror of :func:`lower_oracle`: ``up`` at ``up_extents`` is the
    fastest part of every mode."""
    (d, p, q), (d_up, p_up, q_up) = extents, up_extents
    n = t.shape[1]
    view = t.reshape(q // q_up, q_up, p // p_up, p_up, d // d_up, d_up, n)
    out = np.einsum("aqbpcdn,qpd->abcn", view, np.reshape(up, (q_up, p_up, d_up)))
    return out.reshape(-1, n)


def upper_entry_formula(x, b):
    """out[h,j,k] = sum_uvw b[u,v,w] * x[u + bd*h, v + bp*j, w + bq*k]: the
    kernel is the fastest part of each mode."""
    x3 = x.reshape(_triple(x.shape), order="F")
    b3 = b.reshape(_triple(b.shape), order="F")
    bd, bp, bq = b3.shape
    out = np.zeros([n // m for n, m in zip(x3.shape, b3.shape)])
    for u in range(bd):
        for v in range(bp):
            for w in range(bq):
                out += b3[u, v, w] * x3[u::bd, v::bp, w::bq]
    return out


def test_conv_entry_formula():
    """out[h,j,k] = sum_uvw b[u,v,w] * x[h + od*u, j + op*v, k + oq*w] for
    ``nonoverlap_conv`` and its oracle, the kernel the slowest part of each
    mode; ``upper_oracle`` takes the kernel as the fastest part instead."""
    rng = np.random.default_rng(14)
    x = rng.standard_normal((4, 6, 2))
    b = rng.standard_normal((2, 3, 2))
    out = nonoverlap_conv(x, b)
    old = conv_oracle(x, b)
    od, op, oq = 2, 2, 1
    assert out.shape == (od, op, oq)
    up = unvec(upper_oracle(vec(x)[:, None], x.shape, vec(b), b.shape), out.shape)
    for h in range(od):
        for j in range(op):
            for k in range(oq):
                want = want_up = 0.0
                for u in range(2):
                    for v in range(3):
                        for w in range(2):
                            want += b[u, v, w] * x[h + od * u, j + op * v, k + oq * w]
                            want_up += b[u, v, w] * x[u + 2 * h, v + 3 * j, w + 2 * k]
                assert_allclose(out[h, j, k], want, rtol=1e-12)
                assert_allclose(old[h, j, k], want, rtol=1e-12)
                assert_allclose(up[h, j, k], want_up, rtol=1e-12)
    # The strided form of the upper formula, the oracle of the test below.
    assert_allclose(up, upper_entry_formula(x, b), rtol=1e-12)


@st.composite
def chain_extents(draw):
    """Per-level extents of an order 1..3 chain of 2..4 levels, and a layer."""
    k = draw(st.integers(1, 3))
    depth = draw(st.integers(2, 4))
    fd = [tuple(draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))) for _ in range(depth)]
    return fd, draw(st.integers(1, depth))


def composed(fd):
    """Per-mode extents of the levels in ``fd`` composed; (1, 1, 1) for none."""
    return tuple(int(np.prod([_triple(f)[m] for f in fd])) for m in range(3))


def digit_order(fd):
    """Index map into layer-digit order for the levels in ``fd``."""
    return reshape_T_indices(composed(fd), fd) if fd else slice(None)


@settings(max_examples=80, deadline=None)
@given(
    chain_extents(),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_contraction_primitive_matches_oracles(extents, rank, n, seed):
    """On the stack mapped into layer-digit order, ``_contract_lower`` and
    ``_contract_upper`` equal the einsum oracles on the canonical stack,
    mapped the same way, for R products at once and for each alone; the
    oracles equal the convolution and the kernel-fastest entry formula."""
    fd, l = extents
    dims = composed(fd)
    lo_fd, up_fd = fd[: l - 1], fd[l:]
    rng = np.random.default_rng(seed)
    images = rng.standard_normal((n,) + tuple(dims[: len(fd[0])]))
    stack = np.stack([vec(x) for x in images], axis=1)
    mapped = stack[reshape_T_indices(dims, fd)]
    lows = rng.standard_normal((rank, int(np.prod(composed(lo_fd)))))
    ups = rng.standard_normal((rank, int(np.prod(composed(up_fd)))))
    got_lower = _contract_lower(mapped, lows[:, digit_order(lo_fd)])
    got_upper = _contract_upper(mapped, ups[:, digit_order(up_fd)])
    for r in range(rank):
        lower = lower_oracle(stack, dims, lows[r], composed(lo_fd))
        upper = upper_oracle(stack, dims, ups[r], composed(up_fd))
        # Rounding is bounded by the sum of absolute products in each entry.
        lo_scale = float(lower_oracle(np.abs(stack), dims, np.abs(lows[r]), composed(lo_fd)).max())
        up_scale = float(upper_oracle(np.abs(stack), dims, np.abs(ups[r]), composed(up_fd)).max())
        want = lower[digit_order(fd[l - 1 :])]
        assert_allclose(got_lower[r], want, rtol=1e-12, atol=1e-12 * lo_scale)
        alone = _contract_lower(mapped, lows[r, digit_order(lo_fd)])
        assert_allclose(alone, want, rtol=1e-12, atol=1e-12 * lo_scale)
        want = upper[digit_order(fd[:l])]
        assert_allclose(got_upper[:, r], want, rtol=1e-12, atol=1e-12 * up_scale)
        alone = _contract_upper(mapped, ups[r, digit_order(up_fd)])
        assert_allclose(alone, want, rtol=1e-12, atol=1e-12 * up_scale)
        for i, x in enumerate(images):
            kernel = unvec(lows[r], composed(lo_fd))
            assert_allclose(lower[:, i], vec(conv_oracle(x, kernel)), rtol=1e-12, atol=1e-12 * lo_scale)
            kernel = unvec(ups[r], composed(up_fd))
            assert_allclose(upper[:, i], vec(upper_entry_formula(x, kernel)), rtol=1e-12, atol=1e-12 * up_scale)


@settings(max_examples=40, deadline=None)
@given(chain_extents(), st.integers(min_value=0, max_value=2**32 - 1))
def test_reshape_T_index_map_gathers(extents, seed):
    """``vec(c)[reshape_T_indices(...)]`` is ``reshape_T(c).ravel()``, and on
    a chain it is the outer product of the vecs, level 1 slowest."""
    fd, _ = extents
    rng = np.random.default_rng(seed)
    chain = [rng.standard_normal(f) for f in fd]
    c = kron_chain(chain)
    got = vec(c)[reshape_T_indices(c.shape, fd)]
    assert np.array_equal(got, reshape_T(c, fd).ravel())
    assert_allclose(got, cp_outer_oracle([chain]).ravel(), rtol=1e-13)


def test_conv_projects_out_matching_factor():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((3, 2, 2))
    b = rng.standard_normal((2, 3, 2))
    got = nonoverlap_conv(tkp(a, b), b)
    assert_allclose(got, fro_norm(b) ** 2 * a, rtol=1e-13)


def test_conv_validation():
    with pytest.raises(DimensionError):
        nonoverlap_conv(np.zeros((4, 4)), np.zeros((3, 2)))
    with pytest.raises(DimensionError):
        nonoverlap_conv(np.zeros((4, 4)), np.zeros(2))


def test_conv_chain_matches_inner_product():
    rng = np.random.default_rng(16)
    shapes = [
        [(2, 2), (3, 2), (2, 3)],
        [(2,), (2,)],
        [(2, 2, 2), (2, 2, 2), (2, 1, 2), (1, 2, 1)],
    ]
    for dims_list in shapes:
        factors = random_chain(rng, dims_list)
        c = kron_chain(factors)
        x = rng.standard_normal(c.shape)
        got = conv_chain_eval(x, factors)
        want = float(np.dot(vec(x), vec(chain_oracle(factors))))
        assert_allclose(got, want, rtol=1e-12)
        assert_allclose(got, inner(x, c), rtol=1e-12)


def test_conv_chain_linear_over_rank_terms():
    rng = np.random.default_rng(17)
    dims_list = [(2, 2), (2, 2), (2, 2)]
    terms = [random_chain(rng, dims_list) for _ in range(3)]
    x = rng.standard_normal((8, 8))
    total = sum(conv_chain_eval(x, chain) for chain in terms)
    assert_allclose(total, inner(x, compose_coeff(terms)), rtol=1e-12)


def test_conv_chain_extent_validation():
    with pytest.raises(DimensionError):
        conv_chain_eval(np.zeros((8, 8)), [np.zeros((2, 2)), np.zeros((2, 2))])
    with pytest.raises(DimensionError):
        conv_chain_eval(np.zeros((4, 4)), [])


def test_chain_distance_bracketed_by_factor_distances():
    """Angular error of a composed chain sits between the worst and the sum
    of the per-factor angular errors."""
    rng = np.random.default_rng(18)
    for _ in range(25):
        L = int(rng.integers(2, 4))
        dims_list = [(2, 2) for _ in range(L)]
        u = random_chain(rng, dims_list)
        v = [f + 0.3 * rng.standard_normal(f.shape) for f in u]
        per_level = [dist(a, b) for a, b in zip(u, v)]
        whole = dist(kron_chain(u), kron_chain(v))
        assert max(per_level) <= whole + 1e-12
        assert whole <= sum(per_level) + 1e-12
