import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dkn.errors import DataFormatError, DegenerateDataError, DimensionError
from dkn.tensor_core import (
    as_tensor,
    block,
    dist,
    fro_norm,
    inner,
    read_dkt,
    read_dkt_stack,
    unvec,
    vec,
    write_dkt,
)


def flat_position(index, dims):
    """Canonical flat position of a 0-based multi-index: first index fastest."""
    pos, stride = 0, 1
    for i, n in zip(index, dims):
        pos += i * stride
        stride *= n
    return pos


def test_vec_positions_match_flat_formula():
    rng = np.random.default_rng(0)
    t = rng.standard_normal((3, 4, 2))
    v = vec(t)
    for i1 in range(3):
        for i2 in range(4):
            for i3 in range(2):
                assert v[flat_position((i1, i2, i3), t.shape)] == t[i1, i2, i3]


def test_vec_first_index_fastest():
    t = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert_allclose(vec(t), [1.0, 2.0, 3.0, 4.0])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_unvec_round_trip(dims, seed):
    t = np.random.default_rng(seed).standard_normal(tuple(dims))
    assert np.array_equal(unvec(vec(t), dims), t)


def test_unvec_size_mismatch():
    with pytest.raises(DimensionError):
        unvec(np.zeros(5), (2, 3))


def test_as_tensor_orders():
    for k in range(1, 5):
        t = as_tensor(np.zeros((2,) * k))
        assert t.ndim == k
    with pytest.raises(DimensionError):
        as_tensor(np.float64(3.0))
    with pytest.raises(DimensionError):
        as_tensor(np.zeros((2,) * 5))
    with pytest.raises(DimensionError):
        as_tensor(np.zeros((2, 0)))


def test_as_tensor_dims_handling():
    flat = np.arange(6, dtype=np.float64)
    shaped = as_tensor(flat, dims=(2, 3))
    assert np.array_equal(shaped, unvec(flat, (2, 3)))
    ok = as_tensor(shaped, dims=(2, 3))
    assert np.array_equal(ok, shaped)
    with pytest.raises(DimensionError):
        as_tensor(shaped, dims=(3, 2))


def test_inner_and_fro_norm_against_numpy():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 3, 2))
    b = rng.standard_normal((4, 3, 2))
    assert_allclose(inner(a, b), np.sum(a * b), rtol=1e-13)
    assert_allclose(fro_norm(a), np.sqrt(np.sum(a * a)), rtol=1e-13)
    assert_allclose(inner(a, a), fro_norm(a) ** 2, rtol=1e-13)
    with pytest.raises(DimensionError):
        inner(a, rng.standard_normal((4, 3)))


def test_dist_basic_values():
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    assert dist(a, a) == 0.0
    assert dist(a, b) == 1.0
    # 45 degrees between (1,0) and (1,1)
    assert_allclose(dist(a, np.array([1.0, 1.0])), np.sqrt(0.5), rtol=1e-14)


def test_dist_scale_and_sign_invariance():
    rng = np.random.default_rng(2)
    u = rng.standard_normal((3, 3))
    v = rng.standard_normal((3, 3))
    base = dist(u, v)
    for c in (3.7, -1.0, 1e-9, -2e6):
        assert abs(dist(c * u, v) - base) <= 1e-12
        assert abs(dist(u, c * v) - base) <= 1e-12


def test_dist_zero_norm_rejected():
    with pytest.raises(DegenerateDataError):
        dist(np.zeros(3), np.ones(3))
    with pytest.raises(DegenerateDataError):
        dist(np.ones(3), np.zeros(3))


def test_dist_clamps_rounding_overshoot():
    # Nearly parallel vectors can push the cosine past 1 in floating point.
    u = np.array([1.0, 1e-16])
    assert dist(u, u) == 0.0


def test_block_matches_slice_oracle():
    rng = np.random.default_rng(3)
    t = rng.standard_normal((4, 6, 2))
    bd = (2, 3, 1)
    for h in range(1, 3):
        for j in range(1, 3):
            for k in range(1, 3):
                got = block(t, (h, j, k), bd)
                want = t[
                    (h - 1) * 2 : h * 2,
                    (j - 1) * 3 : j * 3,
                    (k - 1) * 1 : k * 1,
                ]
                assert np.array_equal(got, want)


def test_blocks_tile_the_tensor():
    """Reassembling all blocks in grid order reproduces the tensor."""
    rng = np.random.default_rng(4)
    t = rng.standard_normal((6, 4))
    bd = (3, 2)
    rebuilt = np.zeros_like(t)
    for h in range(1, 3):
        for j in range(1, 3):
            rebuilt[(h - 1) * 3 : h * 3, (j - 1) * 2 : j * 2] = block(t, (h, j), bd)
    assert np.array_equal(rebuilt, t)


def test_block_validation():
    t = np.zeros((4, 4))
    with pytest.raises(DimensionError):
        block(t, (1, 1), (3, 2))  # 3 does not divide 4
    with pytest.raises(DimensionError):
        block(t, (0, 1), (2, 2))  # indices count from 1
    with pytest.raises(DimensionError):
        block(t, (3, 1), (2, 2))  # only 2 blocks per mode
    with pytest.raises(DimensionError):
        block(t, (1, 1, 1), (2, 2))


def test_block_returns_a_copy():
    t = np.zeros((2, 2))
    b = block(t, (1, 1), (1, 1))
    b[0, 0] = 5.0
    assert t[0, 0] == 0.0


def test_dkt_round_trip_all_orders(tmp_path):
    rng = np.random.default_rng(5)
    for dims in [(7,), (3, 4), (2, 3, 4), (2, 2, 3, 2)]:
        t = rng.standard_normal(dims)
        path = tmp_path / f"t{len(dims)}.dkt"
        write_dkt(path, t)
        back = read_dkt(path)
        assert back.shape == t.shape
        assert np.array_equal(back, t)
        assert not path.with_suffix(".dkt.tmp").exists()


def test_dkt_golden_bytes(tmp_path):
    """The byte layout is pinned: magic, order, extents, entries first-index-fastest."""
    t = np.array([[1.0, 2.0], [3.0, 4.0]])
    path = tmp_path / "g.dkt"
    write_dkt(path, t)
    raw = path.read_bytes()
    expected = b"DKT1" + bytes([2])
    expected += (2).to_bytes(8, "little") * 2
    expected += np.array([1.0, 3.0, 2.0, 4.0]).astype("<f8").tobytes()
    assert raw == expected


def test_dkt_rejects_malformed_files(tmp_path, malformed_dkt):
    good = tmp_path / "good.dkt"
    write_dkt(good, np.arange(4, dtype=np.float64).reshape(2, 2))
    for name, contents in malformed_dkt(good.read_bytes()).items():
        p = tmp_path / name
        p.write_bytes(contents)
        with pytest.raises(DataFormatError, match=name):
            read_dkt(p)


def test_dkt_length_errors_report_the_file_size(tmp_path):
    good = tmp_path / "good.dkt"
    write_dkt(good, np.arange(6, dtype=np.float64).reshape(2, 3))
    raw = good.read_bytes()
    for name, contents in [("short.dkt", raw[:-1]), ("long.dkt", raw + b"\x00")]:
        p = tmp_path / name
        p.write_bytes(contents)
        expect = f"expected {len(raw)} bytes for extents (2, 3), got {len(contents)}"
        for read in (read_dkt, lambda q: read_dkt_stack([good, q])):
            with pytest.raises(DataFormatError, match=re.escape(expect)):
                read(p)


def _write_stack(root, dims, n, seed=0):
    g = np.random.default_rng(seed)
    paths = []
    for i in range(n):
        paths.append(root / f"img_{i}.dkt")
        write_dkt(paths[-1], g.standard_normal(dims))
    return paths


@pytest.mark.parametrize("dims", [(7,), (3, 4), (2, 3, 4), (2, 2, 3, 2)])
@pytest.mark.parametrize("n", [1, 5])
def test_read_dkt_stack_matches_stacking_read_dkt(tmp_path, dims, n):
    """The oracle reads each file's payload on its own, ``np.frombuffer``
    after the header, unvecs it and stacks the tensors.  The stack and the
    stacked ``read_dkt`` results match it in values, dtype, shape and
    strides (so the same memory order downstream)."""
    paths = _write_stack(tmp_path, dims, n, seed=len(dims))
    header = 5 + 8 * len(dims)
    tensors = [unvec(np.frombuffer(p.read_bytes(), dtype="<f8", offset=header), dims) for p in paths]
    want = np.stack(tensors)
    for got in (read_dkt_stack(paths), np.stack([read_dkt(p) for p in paths])):
        assert got.dtype == want.dtype == np.float64
        assert got.shape == want.shape
        assert got.strides == want.strides
        assert np.array_equal(got, want)
        assert got.flags.writeable
    for p, t in zip(paths, tensors):
        got = read_dkt(p)
        assert got.strides == t.strides
        assert np.array_equal(got, t)


def test_read_dkt_stack_names_each_malformed_file(tmp_path, malformed_dkt):
    paths = _write_stack(tmp_path, (2, 3), 4)
    for name, contents in malformed_dkt(paths[0].read_bytes()).items():
        bad = tmp_path / name
        bad.write_bytes(contents)
        for at in (0, 2, 4):
            with pytest.raises(DataFormatError, match=name):
                read_dkt_stack(paths[:at] + [bad] + paths[at:])


def test_read_dkt_stack_refuses_mixed_extents_naming_both_files(tmp_path):
    paths = _write_stack(tmp_path, (2, 3), 3)
    odd = tmp_path / "odd.dkt"
    write_dkt(odd, np.zeros((3, 2)))
    with pytest.raises(DataFormatError, match=r"odd\.dkt.*\(3, 2\).*\(2, 3\).*img_0\.dkt"):
        read_dkt_stack(paths + [odd])
    write_dkt(odd, np.zeros((2, 3, 1)))
    with pytest.raises(DataFormatError, match=r"odd\.dkt.*img_0\.dkt"):
        read_dkt_stack(paths[:1] + [odd] + paths[1:])
    with pytest.raises(DimensionError):
        read_dkt_stack([])
