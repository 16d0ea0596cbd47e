"""Tests for the contraction-theory diagnostics."""

import math
import tracemalloc
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dkn import diagnostics, rng
from dkn.diagnostics import (
    DecayVerdict,
    coeff_distance,
    identifiability_check,
    krank,
    measure_mu,
    probe_rip,
    probe_tau0,
    theory_constants,
    true_left_products,
    verify_decay,
)
from dkn.dkn_fit import (
    DknModel,
    DknStructure,
    FitOptions,
    FitReport,
    auto_structure,
    build_design,
    fit,
    init_spectral,
    normalize,
    pad_images,
    partial_products,
)
from dkn.errors import DegenerateDataError, DimensionError
from dkn.kron_ops import compose_coeff, kron_chain
from dkn.tensor_core import dist, fro_norm, inner, unvec, vec

S883 = DknStructure(image_dims=(8, 8), factor_dims=[(2, 2), (2, 2), (2, 2)])


def rank1_chain(seed, structure, scale_first=2.5):
    g = rng.stream(seed, rng.PURPOSE_SIGNAL, 0)
    chain = [g.standard_normal(fd) for fd in structure.factor_dims]
    chain = [f / np.linalg.norm(f) for f in chain]
    chain[0] = chain[0] * scale_first
    return chain


def krank_oracle(matrix):
    """Largest k with all k-column subsets independent, largest size first."""
    m = np.asarray(matrix, dtype=np.float64)
    for size in range(min(m.shape), 0, -1):
        ok = True
        for cols in combinations(range(m.shape[1]), size):
            sub = m[:, cols]
            s = np.linalg.svd(sub, compute_uv=False)
            if np.linalg.matrix_rank(sub, tol=1e-10 * s[0]) < size:
                ok = False
                break
        if ok:
            return size
    return 0


# ---------------------------------------------------------------- constants


def test_constants_hand_example():
    c = theory_constants(0.05, 0.1, 0.0, 1.0, 3)
    assert c.tau == 0.0
    assert c.eta == 1.0
    assert_allclose(c.nu, 0.1 + 0.15 / 0.85, rtol=1e-12)
    assert_allclose(c.nu, 0.27647058823529413, rtol=1e-12)
    assert_allclose(c.kappa, 0.5269108487685725, rtol=1e-12)
    assert_allclose(c.c1, 3.049401768369071, rtol=1e-12)
    assert_allclose(c.c2, 13.457465679545964, rtol=1e-12)
    assert_allclose(c.condition_rhs, math.sqrt(2.0) - 1.0, rtol=1e-12)
    assert c.condition_met


def test_constants_recompute_noisy_formulas():
    delta, mu, tau0, cnorm, depth = 0.1, 0.2, 0.3, 2.0, 3
    c = theory_constants(delta, mu, tau0, cnorm, depth)
    tau = (tau0 / cnorm) / (1.0 - 3.0 * delta)
    nu = mu + 3.0 * delta / (1.0 - 3.0 * delta)
    eta = mu / (mu + tau * (nu + 1.0) / nu)
    kappa = (1.0 + nu) ** depth - (2.0 * nu + 1.0)
    assert_allclose(c.tau, tau, rtol=1e-12)
    assert_allclose(c.nu, nu, rtol=1e-12)
    assert_allclose(c.eta, eta, rtol=1e-12)
    assert_allclose(c.kappa, kappa, rtol=1e-12)
    assert_allclose(c.c1, (depth - 1) * (1.0 + nu / kappa), rtol=1e-12)
    # kappa > 1 here, so the geometric series behind c2 diverges
    assert c.c2 == math.inf
    assert not c.condition_met


def test_constants_exact_recovery_regime():
    c = theory_constants(0.0, 0.0, 0.0, 1.0, 4)
    assert c.nu == 0.0
    assert c.eta == 1.0
    assert c.kappa == 0.0
    assert c.c1 == 0.0 and c.c2 == 0.0
    assert c.condition_met
    for t in range(6):
        assert c.error_bound(t) == 0.0


def test_constants_depth_two_threshold():
    # noiseless depth 2: the condition is exactly nu < 1
    met = theory_constants(0.0, 0.999, 0.0, 1.0, 2)
    edge = theory_constants(0.0, 1.0, 0.0, 1.0, 2)
    assert met.condition_rhs == 1.0
    assert met.condition_met
    assert not edge.condition_met


def test_constants_noiseless_reduction_grid():
    # with tau0 = 0 the contraction condition collapses to
    # nu < 2**(1/(L-1)) - 1 because eta pins at 1
    for depth in range(2, 7):
        rhs = 2.0 ** (1.0 / (depth - 1)) - 1.0
        grid = [0.0, 0.01, 0.1, rhs - 1e-6, rhs + 1e-6, 0.5, 0.99, 1.0]
        for mu in grid:
            if not 0.0 <= mu <= 1.0:
                continue
            c = theory_constants(0.0, mu, 0.0, 1.0, depth)
            assert c.eta == 1.0
            assert abs(c.condition_rhs - rhs) <= 1e-12
            assert c.condition_met == (mu < rhs)


def test_constants_domain_errors():
    for bad in (1.0 / 3.0, 0.4, -0.01):
        with pytest.raises(DimensionError):
            theory_constants(bad, 0.1, 0.0, 1.0, 3)
    with pytest.raises(DimensionError):
        theory_constants(0.1, -0.1, 0.0, 1.0, 3)
    with pytest.raises(DimensionError):
        theory_constants(0.1, 0.1, -1.0, 1.0, 3)
    with pytest.raises(DimensionError):
        theory_constants(0.1, 0.1, 0.0, 0.0, 3)
    with pytest.raises(DimensionError):
        theory_constants(0.1, 0.1, 0.0, 1.0, 1)


def test_error_bound_decreases_and_splits():
    c = theory_constants(0.05, 0.1, 0.01, 1.0, 3)
    assert c.kappa < 1.0
    bounds = [c.error_bound(t) for t in range(8)]
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
    # the bound levels off at the noise term
    assert_allclose(c.error_bound(200), c.c2 * c.tau, rtol=1e-10)
    assert_allclose(bounds[0], c.c1 * c.mu + c.c2 * c.tau, rtol=1e-12)


def test_error_bound_infinite_only_with_noise():
    noisy = theory_constants(0.1, 0.2, 0.3, 2.0, 3)
    assert noisy.kappa > 1.0
    assert noisy.error_bound(0) == math.inf
    # same geometry without noise: the diverging c2 never enters
    clean = theory_constants(0.1, 0.2, 0.0, 2.0, 3)
    assert math.isfinite(clean.error_bound(5))
    assert clean.error_bound(1) > clean.error_bound(0)


# ------------------------------------------------------------- verify_decay


def test_verify_decay_geometric_trace_passes():
    c = theory_constants(0.05, 0.1, 0.0, 1.0, 3)
    trace = [0.5 * c.c1 * c.kappa**t * c.mu for t in range(7)]
    verdict = verify_decay(trace, c)
    assert verdict.passed
    assert not verdict.vacuous
    assert verdict.condition_met
    assert all(verdict.within_bound)
    assert_allclose(verdict.margins, [c.error_bound(t) - d for t, d in enumerate(trace)], rtol=1e-12)
    assert_allclose(verdict.ratios, [c.kappa] * 6, rtol=1e-12)
    assert verdict.ratio_threshold == c.kappa + 0.05
    d = verdict.to_dict()
    assert d["passed"] is True
    assert len(d["margins"]) == 7 and all(isinstance(v, float) for v in d["margins"])


def test_verify_decay_stalled_trace_fails():
    c = theory_constants(0.05, 0.1, 0.0, 1.0, 3)
    verdict = verify_decay([0.3] * 5, c)
    assert not verdict.passed
    assert not verdict.vacuous
    # kappa**t eventually undercuts any constant distance
    assert not all(verdict.within_bound)
    assert verdict.margins[1] < 0
    assert all(r > verdict.ratio_threshold for r in verdict.ratios)


def test_verify_decay_single_entry():
    c = theory_constants(0.05, 0.1, 0.0, 1.0, 3)
    head = c.c1 * c.mu
    good = verify_decay([0.9 * head], c)
    assert good.passed and good.ratios == []
    bad = verify_decay([1.1 * head], c)
    assert not bad.passed and bad.within_bound == [False]


def test_verify_decay_vacuous_when_condition_fails():
    c = theory_constants(0.1, 0.2, 0.3, 2.0, 3)
    assert not c.condition_met and c.c2 == math.inf
    verdict = verify_decay([0.5, 0.4, 0.3], c)
    assert verdict.vacuous
    d = verdict.to_dict()
    # infinite margins serialize as nulls, the threshold stays finite
    assert d["margins"] == [None, None, None]
    assert d["ratio_threshold"] == pytest.approx(c.kappa + 0.05)


def test_decay_verdict_to_dict_writes_every_non_finite_float_as_none():
    verdict = DecayVerdict(
        passed=False, condition_met=False, vacuous=True, within_bound=[True, False],
        margins=[math.inf, np.float64(0.25)], ratios=[math.nan, 2.0],
        ratio_threshold=math.inf, noise_floor=-math.inf,
    )
    assert verdict.to_dict() == {
        "passed": False, "condition_met": False, "vacuous": True,
        "within_bound": [True, False], "margins": [None, 0.25], "ratios": [None, 2.0],
        "ratio_threshold": None, "noise_floor": None,
    }
    assert type(verdict.to_dict()["margins"][1]) is float


def test_verify_decay_noise_floor_suppresses_ratios():
    c = theory_constants(0.05, 0.1, 1e-6, 1.0, 3)
    assert c.condition_met
    floor = max(10.0 * c.c2 * c.tau, 1e-10)
    trace = [floor / 10.0, floor / 5.0]
    verdict = verify_decay(trace, c)
    assert verdict.noise_floor == pytest.approx(floor)
    assert verdict.ratios == []
    assert verdict.passed


def test_verify_decay_accepts_fit_report():
    c = theory_constants(0.05, 0.1, 0.0, 1.0, 3)
    report = FitReport(family="gaussian", rank=1, dist_trace=[0.01, 0.001])
    from_report = verify_decay(report, c, t_start=1)
    from_list = verify_decay([0.01, 0.001], c, t_start=1)
    assert from_report.margins == from_list.margins
    assert from_report.passed == from_list.passed


def test_verify_decay_rejects_missing_or_empty_traces():
    c = theory_constants(0.05, 0.1, 0.0, 1.0, 3)
    with pytest.raises(DimensionError):
        verify_decay([], c)
    with pytest.raises(DimensionError):
        verify_decay(FitReport(family="gaussian", rank=1), c)


# -------------------------------------------------------------------- krank


def test_krank_crafted_cases():
    assert krank(np.eye(4)) == 4
    m = np.array([[1.0, 2.0, 1.0], [0.0, 1.0, 0.0], [3.0, 0.0, 3.0]])
    assert krank(m) == 1  # first and last columns repeat
    m = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
    assert krank(m) == 2  # e1, e2, e1+e2: any two independent, all three not
    withzero = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert krank(withzero) == 0
    assert krank(np.zeros((3, 3))) == 0


def test_krank_tolerance_is_relative_to_subset():
    big = np.array([[1.0, 0.0], [0.0, 1.0]])
    tiny = np.array([[1e-12], [1e-12]])
    m = np.hstack([big, tiny])
    # alone the tiny column is full rank, next to a unit column it is noise
    assert krank(m) == 1
    assert krank(m, tol=1e-15) == 2


def test_krank_validation():
    with pytest.raises(DimensionError):
        krank(np.zeros((2, 17)))
    with pytest.raises(DimensionError):
        krank(np.arange(4.0))


def test_krank_matches_bruteforce_oracle():
    g = np.random.default_rng(11)
    mats = [g.standard_normal((4, 6)) for _ in range(4)]
    u = g.standard_normal((4, 2))
    v = g.standard_normal((2, 6))
    mats.append(u @ v)  # rank two, so any three columns are dependent
    base = g.standard_normal((4, 3))
    mats.append(np.hstack([base, (base @ np.array([1.0, 1.0, 0.0]))[:, None]]))
    dup = g.standard_normal((4, 4))
    mats.append(np.hstack([dup, dup[:, :1]]))
    for m in mats:
        assert krank(m) == krank_oracle(m)


# --------------------------------------------------------- identifiability


def make_model(chains, structure):
    return normalize(DknModel(structure=structure, factors=[[np.asarray(f, dtype=np.float64) for f in c] for c in chains]))


def test_identifiability_generic_rank_two_meets_threshold():
    g = np.random.default_rng(3)
    s = DknStructure(image_dims=(8, 8), factor_dims=[(2, 2), (2, 2), (2, 2)], rank=2)
    chains = [[g.standard_normal(fd) for fd in s.factor_dims] for _ in range(2)]
    rep = identifiability_check(make_model(chains, s))
    assert rep.per_layer_krank == [2, 2, 2]
    assert rep.krank_sum == 6 and rep.sufficiency_rhs == 6
    assert rep.sufficient
    assert rep.per_layer_rank == [2, 2, 2]
    assert rep.min_complement_product == 4
    assert rep.necessary
    d = rep.to_dict()
    assert d["sufficient"] is True and d["necessary"] is True


def test_identifiability_rank_one_never_sufficient():
    g = np.random.default_rng(5)
    s = DknStructure(image_dims=(8, 8), factor_dims=[(2, 2), (2, 2), (2, 2)])
    rep = identifiability_check(make_model([[g.standard_normal(fd) for fd in s.factor_dims]], s))
    # kranks are all 1, so the sum L falls short of 2R + L - 1 = L + 1
    assert rep.krank_sum == 3 and rep.sufficiency_rhs == 4
    assert not rep.sufficient
    assert rep.necessary


def test_identifiability_collinear_chains_fail_necessity():
    g = np.random.default_rng(7)
    s = DknStructure(image_dims=(8, 8), factor_dims=[(2, 2), (2, 2), (2, 2)], rank=2)
    chain = [g.standard_normal(fd) for fd in s.factor_dims]
    chains = [chain, [2.0 * f for f in chain]]
    rep = identifiability_check(make_model(chains, s))
    assert rep.per_layer_krank == [1, 1, 1]
    assert not rep.sufficient
    assert rep.min_complement_product == 1
    assert not rep.necessary


def test_identifiability_orthogonal_depth_two_gap():
    # orthogonal columns max out the kranks and still miss 2R + L - 1
    s = DknStructure(image_dims=(4, 4), factor_dims=[(2, 2), (2, 2)], rank=2)
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    b = np.array([[0.0, 0.0], [0.0, 1.0]])
    rep = identifiability_check(make_model([[a, a], [b, b]], s))
    assert rep.per_layer_krank == [2, 2]
    assert rep.krank_sum == 4 and rep.sufficiency_rhs == 5
    assert not rep.sufficient
    assert rep.necessary


# ------------------------------------------------------------------ probes


def test_coeff_distance_accepts_models_and_tensors():
    chain = rank1_chain(2, S883)
    coeff = compose_coeff([chain]).reshape((8, 8), order="F")
    model = make_model([chain], S883)
    assert coeff_distance(model, coeff) <= 1e-12
    assert coeff_distance(model, -3.0 * coeff) <= 1e-12
    assert coeff_distance(coeff, coeff) == 0.0
    other = rank1_chain(3, S883)
    d = coeff_distance(model, compose_coeff([other]).reshape((8, 8), order="F"))
    assert 0.0 < d <= 1.0


def test_probe_rip_exact_isometry_scores_zero():
    images = np.stack([unvec(8.0 * np.eye(64)[i], (8, 8)) for i in range(64)])
    probe = probe_rip(images, {"image_dims": (8, 8), "factor_dims": [(2, 2), (2, 2), (2, 2)]}, n_probes=20, seed=9)
    assert probe.delta_hat <= 1e-12
    assert_allclose(probe.ratios, np.ones(20), rtol=1e-12)
    assert probe.witness_ratio == pytest.approx(1.0, abs=1e-12)


def test_probe_rip_prefix_reproducible_and_monotone():
    g = rng.stream(21, rng.PURPOSE_IMAGES, 0)
    images = g.standard_normal((200, 8, 8))
    short = probe_rip(images, S883, n_probes=10, seed=5)
    full = probe_rip(images, S883, n_probes=50, seed=5)
    assert full.ratios[:10] == short.ratios
    assert short.delta_hat <= full.delta_hat
    assert full.delta_hat == max(abs(r - 1.0) for r in full.ratios)
    # the witness recomputes to its recorded ratio
    c = compose_coeff(full.witness_factors)
    vx = images.reshape(200, -1, order="F")
    ratio = float(np.sum((vx @ vec(c)) ** 2)) / (200 * float(np.sum(c * c)))
    assert_allclose(ratio, full.witness_ratio, rtol=1e-12)
    assert abs(full.witness_ratio - 1.0) == pytest.approx(full.delta_hat, rel=1e-12)


def test_probe_rip_partial_blocks_match_single_probes():
    """A probe count that leaves the last block part-filled gives the same
    ratios, bit for bit, as a longer run, and each equals its own probe's
    ratio computed alone."""
    g = rng.stream(25, rng.PURPOSE_IMAGES, 0)
    images = g.standard_normal((120, 8, 8))
    full = probe_rip(images, S883, n_probes=23, seed=6)
    vx = images.reshape(120, -1, order="F")
    for j, ratio in enumerate(full.ratios):
        p = rng.stream(6, rng.PURPOSE_PROBE, j)
        c = compose_coeff([[p.standard_normal(fd) for fd in S883.factor_dims] for _ in range(2)])
        want = float(np.sum((vx @ vec(c)) ** 2)) / (120 * float(np.sum(c * c)))
        assert_allclose(ratio, want, rtol=1e-12)
    for n_probes in (1, 7, 13):
        assert probe_rip(images, S883, n_probes=n_probes, seed=6).ratios == full.ratios[:n_probes]


def test_probe_rip_matches_composed_probes_on_3d_stacks():
    """Each probe is composed in layer-digit order and scattered to canonical
    order; its ratio matches the probe composed with ``compose_coeff``, for a
    C-ordered stack and for the stack of column-major tensors DKT1 files give."""
    structure = DknStructure(image_dims=(4, 2, 6), factor_dims=[(2, 1, 3), (2, 2, 2)])
    g = rng.stream(27, rng.PURPOSE_IMAGES, 0)
    images = g.standard_normal((40, 4, 2, 6))
    columns = np.stack([np.asfortranarray(x) for x in images])
    vx = images.reshape(40, -1, order="F")
    want = []
    for j in range(13):
        p = rng.stream(8, rng.PURPOSE_PROBE, j)
        c = compose_coeff([[p.standard_normal(fd) for fd in structure.factor_dims] for _ in range(2)])
        want.append(float(np.sum((vx @ vec(c)) ** 2)) / (40 * float(np.sum(c * c))))
    for stack in (images, columns):
        assert_allclose(probe_rip(stack, structure, n_probes=13, seed=8).ratios, want, rtol=1e-12)


def _column_major(images):
    """The stack of column-major tensors that ``read_dkt_stack`` returns."""
    k = images.ndim - 1
    rows = np.ascontiguousarray(images.transpose(0, *range(k, 0, -1)))
    return rows.transpose(0, *range(k, 0, -1))


def test_probe_rip_counts_are_prefixes_of_a_longer_run():
    """Probe counts that fill one, two or three blocks exactly, or leave the
    last one part-filled, give the first ratios of a 60-probe run bit for
    bit, on a C-ordered 8x8 stack and on a column-major 3-D stack."""
    g = rng.stream(28, rng.PURPOSE_IMAGES, 0)
    cases = [
        (S883, g.standard_normal((90, 8, 8))),
        (
            DknStructure(image_dims=(4, 2, 6), factor_dims=[(2, 1, 3), (2, 2, 2)]),
            _column_major(g.standard_normal((70, 4, 2, 6))),
        ),
    ]
    for structure, images in cases:
        full = probe_rip(images, structure, n_probes=60, seed=11)
        assert len(full.ratios) == 60
        for n_probes in (1, 24, 25, 26, 49, 50, 51):
            probe = probe_rip(images, structure, n_probes=n_probes, seed=11)
            assert np.array(probe.ratios).tobytes() == np.array(full.ratios[:n_probes]).tobytes()
            assert probe.delta_hat == max(abs(r - 1.0) for r in full.ratios[:n_probes])


@pytest.mark.parametrize("n_probes, passes", [(1, 1), (20, 1), (25, 1), (26, 2), (50, 2)])
def test_probe_rip_reads_the_images_once_per_25_probes(monkeypatch, n_probes, passes):
    shapes = []
    real = diagnostics._inner_products

    def spy(images, coeff, structure, *args, **kwargs):
        shapes.append(coeff.shape)
        return real(images, coeff, structure, *args, **kwargs)

    monkeypatch.setattr(diagnostics, "_inner_products", spy)
    images = rng.stream(29, rng.PURPOSE_IMAGES, 0).standard_normal((30, 8, 8))
    probe_rip(images, S883, n_probes=n_probes, seed=2)
    assert shapes == [S883.dims3 + (25,)] * passes


def test_probe_rip_makes_no_image_sized_copy():
    """50 probes on a C-ordered 2000 x 32 x 32 stack allocate less than a
    quarter of the stack's bytes at their peak."""
    structure, _ = auto_structure((32, 32))
    images = rng.stream(31, rng.PURPOSE_IMAGES, 0).standard_normal((2000, 32, 32))
    tracemalloc.start()
    try:
        probe_rip(images, structure, n_probes=50, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < images.nbytes / 4


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_probe_rip_passes_non_finite_pixels_through(bad):
    """``probe_rip`` does not check pixels: one non-finite pixel makes every
    ratio, and ``delta_hat``, non-finite."""
    g = rng.stream(26, rng.PURPOSE_IMAGES, 0)
    images = g.standard_normal((50, 8, 8))
    images[7, 2, 5] = bad
    with np.errstate(invalid="ignore", over="ignore"):
        probe = probe_rip(images, S883, n_probes=12, seed=3)
    assert not any(math.isfinite(r) for r in probe.ratios)
    assert not math.isfinite(probe.delta_hat)


def test_probe_rip_validation():
    images = np.zeros((4, 8, 8))
    for n_probes in (0, -3):
        with pytest.raises(DimensionError, match="at least one probe"):
            probe_rip(images, S883, n_probes=n_probes)
        with pytest.raises(DimensionError, match="at least one probe"):
            probe_tau0(images, np.ones(4), S883, n_probes=n_probes)


def test_probe_tau0_zero_noise_and_linearity():
    g = rng.stream(22, rng.PURPOSE_IMAGES, 0)
    images = g.standard_normal((60, 8, 8))
    eps = rng.stream(22, rng.PURPOSE_RESPONSES, 0).standard_normal(60)
    assert probe_tau0(images, np.zeros(60), S883, n_probes=5, seed=1) == 0.0
    one = probe_tau0(images, eps, S883, n_probes=5, seed=1)
    two = probe_tau0(images, 2.0 * eps, S883, n_probes=5, seed=1)
    assert one > 0.0
    assert_allclose(two, 2.0 * one, rtol=1e-12)
    with pytest.raises(DimensionError):
        probe_tau0(images, eps[:-1], S883, n_probes=5, seed=1)


def test_probe_tau0_does_not_depend_on_rank():
    """Every term would get the same probe, so tau0 is the rank-1 value."""
    g = rng.stream(23, rng.PURPOSE_IMAGES, 0)
    images = g.standard_normal((40, 8, 8))
    eps = rng.stream(23, rng.PURPOSE_RESPONSES, 0).standard_normal(40)
    one = probe_tau0(images, eps, S883, n_probes=4, seed=2)
    for rank in (2, 3):
        assert probe_tau0(images, eps, replace(S883, rank=rank), n_probes=4, seed=2) == one


def test_probe_tau0_matches_per_image_designs():
    """tau0 from the noise-weighted aggregate image equals the value from
    each probe's full (n, k) design, for 2-D and padded 3-D stacks; on the
    padded structure, the unpadded images with ``padded_from`` give it as
    well."""
    for dims, n in (((8, 8), 50), ((5, 4, 6), 30)):
        structure, padded_from = auto_structure(dims)
        g = rng.stream(24, rng.PURPOSE_IMAGES, 0)
        raw = g.standard_normal((n,) + dims)
        images = raw if padded_from is None else pad_images(raw, padded_from, structure.image_dims)
        eps = rng.stream(24, rng.PURPOSE_RESPONSES, 0).standard_normal(n)
        want = 0.0
        for j in range(6):
            p = rng.stream(3, rng.PURPOSE_PROBE, j)
            for l in range(1, structure.depth + 1):
                u = p.standard_normal(int(np.prod(structure.upper_extents(l + 1))))
                w = p.standard_normal(int(np.prod(structure.lower_extents(l - 1))))
                design = build_design(images, structure, l, [u / np.linalg.norm(u)],
                                      [w / np.linalg.norm(w)])
                want = max(want, float(np.linalg.norm(design.T @ eps)) / n)
        got = probe_tau0(images, eps, structure, n_probes=6, seed=3)
        assert_allclose(got, want, rtol=1e-12)
        if padded_from is not None:
            assert probe_tau0(raw, eps, structure, n_probes=6, seed=3, padded_from=padded_from) == got


def _tau0_digit_map_oracle(images, noise, structure, n_probes, seed):
    """probe_tau0 without build_design's core: the aggregate mapped to
    layer-digit order by hand, a per-layer table of digit maps, and each
    probe's lower and upper products contracted with their own calls."""
    from dkn.dkn_fit import _digits, _layer_design, _weighted_sum
    from dkn.kron_ops import _contract_lower

    n, L = images.shape[0], structure.depth
    agg = _weighted_sum(images, noise, structure)[_digits(structure, 1, L), None]
    layers = [
        (
            int(np.prod(structure.upper_extents(l + 1))),
            int(np.prod(structure.lower_extents(l - 1))),
            _digits(structure, l + 1, L),
            _digits(structure, 1, l - 1),
        )
        for l in range(1, L + 1)
    ]
    worst = 0.0
    for j in range(n_probes):
        g = rng.stream(seed, rng.PURPOSE_PROBE, j)
        for n_up, n_low, up_digits, low_digits in layers:
            u = g.standard_normal(n_up)
            w = g.standard_normal(n_low)
            u /= np.linalg.norm(u)
            w /= np.linalg.norm(w)
            low = _contract_lower(agg, w[low_digits])
            row = _layer_design([low], [u[up_digits]])
            worst = max(worst, float(np.linalg.norm(row) / n))
    return worst


@pytest.mark.parametrize(
    "dims, factor_dims",
    [
        ((32,), None),
        ((8, 12), [(2, 3), (2, 2), (2, 2)]),
        ((8, 8, 8), None),
        ((4, 6, 8), [(2, 1, 2), (1, 3, 2), (2, 2, 2)]),
        ((5, 4, 6), None),
    ],
)
def test_probe_tau0_matches_the_digit_map_oracle_bitwise(dims, factor_dims):
    """Both routes give the same bytes, at every depth and on a padded
    structure, in either memory order of the images.  The unpadded images
    of a padded structure, read with ``padded_from``, give the oracle's
    bytes of their padded copy when C-ordered, and agree to rounding when
    column-major, whose sums run in another order."""
    if factor_dims is None:
        structure, padded_from = auto_structure(dims)
    else:
        structure, padded_from = DknStructure(dims, factor_dims), None
    g = rng.stream(25, rng.PURPOSE_IMAGES, 0)
    raw = g.standard_normal((30,) + dims)
    images = raw if padded_from is None else pad_images(raw, padded_from, structure.image_dims)
    eps = rng.stream(25, rng.PURPOSE_RESPONSES, 0).standard_normal(30)
    for x in (images, np.asfortranarray(images)):
        want = _tau0_digit_map_oracle(x, eps, structure, n_probes=8, seed=4)
        assert probe_tau0(x, eps, structure, n_probes=8, seed=4) == want
    if padded_from is not None:
        want = _tau0_digit_map_oracle(images, eps, structure, n_probes=8, seed=4)
        got = probe_tau0(raw, eps, structure, n_probes=8, seed=4, padded_from=padded_from)
        assert got == want
        got = probe_tau0(np.asfortranarray(raw), eps, structure, n_probes=8, seed=4,
                         padded_from=padded_from)
        assert_allclose(got, want, rtol=1e-12)


def test_true_left_products_recovers_chain():
    chain = rank1_chain(4, S883)
    truth = compose_coeff([chain])
    out = true_left_products(truth, S883)
    assert sorted(out.keys()) == [2, 3, 4]
    assert np.array_equal(out[4], np.ones(1))
    for l in (2, 3):
        expected = vec(kron_chain(chain[l - 1:]))
        assert dist(out[l], expected) <= 1e-10
        assert np.linalg.norm(out[l]) == pytest.approx(1.0, rel=1e-12)


def test_true_left_products_rejects_higher_rank():
    chains = [rank1_chain(4, S883), rank1_chain(5, S883)]
    with pytest.raises(DegenerateDataError):
        true_left_products(compose_coeff(chains), S883)
    with pytest.raises(DegenerateDataError):
        true_left_products(np.zeros((8, 8)), S883)


def test_measure_mu_exact_design_is_tiny():
    chain = rank1_chain(6, S883)
    coeff = compose_coeff([chain]).reshape((8, 8), order="F")
    images = np.stack([unvec(8.0 * np.eye(64)[i], (8, 8)) for i in range(64)])
    y = np.array([inner(x, coeff) for x in images])
    # exact moments leave only the angular metric's own rounding
    assert measure_mu(images, y, coeff, S883) <= 1e-7


@pytest.mark.parametrize("dims", [(5, 4, 6), (23, 45)], ids=str)
def test_diagnostics_read_unpadded_images_with_padded_from(dims, crop_shares):
    """``probe_rip``, ``init_spectral`` and ``measure_mu`` read the unpadded
    images of a padded structure where they lie: given ``padded_from``, C-
    or column-major, they agree with their zero-padded copy to rounding
    (the probes' inner products then skip the padding's zero terms), except
    that a probe's ratio divides by the energy of its crop to the images'
    own voxels, where the copy's divides by the whole probe's."""
    structure, padded_from = auto_structure(dims)
    assert padded_from == dims
    g = rng.stream(30, rng.PURPOSE_IMAGES, 0)
    raw = g.standard_normal((80,) + dims)
    padded = pad_images(raw, padded_from, structure.image_dims)
    truth = compose_coeff([[g.standard_normal(fd) for fd in structure.factor_dims]])
    truth = truth.reshape(structure.image_dims, order="F")
    y = padded.reshape(80, -1) @ truth.ravel()
    want_rip = probe_rip(padded, structure, n_probes=30, seed=2).ratios
    want_rip = [r * share for r, share in zip(want_rip, crop_shares(structure, dims, 2, 30))]
    want_init = init_spectral(padded, y, structure)
    want_mu = measure_mu(padded, y, truth, structure)
    for x in (raw, np.asfortranarray(raw)):
        got = probe_rip(x, structure, n_probes=30, seed=2, padded_from=padded_from).ratios
        assert_allclose(got, want_rip, rtol=1e-12)
        got = init_spectral(x, y, structure, padded_from)
        for l in range(2, structure.depth + 2):
            assert_allclose(got[l][0], want_init[l][0], rtol=1e-12, atol=1e-14)
        got = measure_mu(x, y, truth, structure, padded_from)
        assert_allclose(got, want_mu, rtol=1e-12)


def test_probe_rip_measures_the_design_not_the_padding():
    """iid images of 20 x 20, padded to 32 x 32, are close to an isometry
    on their own voxels, and ``probe_rip`` reads a small ``delta_hat`` for
    them.  Divided by the whole probe's energy, a ratio would read about
    the probe's share on the images' voxels, near 0.3, and ``delta_hat``
    0.7 or more."""
    dims = (20, 20)
    structure, padded_from = auto_structure(dims)
    assert padded_from == dims and structure.image_dims == (32, 32)
    images = rng.stream(41, rng.PURPOSE_IMAGES, 0).standard_normal((2000,) + dims)
    probe = probe_rip(images, structure, seed=1, padded_from=padded_from)
    assert probe.delta_hat < 1.0 / 3.0
    assert_allclose(np.median(probe.ratios), 1.0, atol=0.05)


# ----------------------------------------------- traced fit vs. the theory


@pytest.fixture(scope="module")
def contraction_run():
    """Noiseless rank-1 fit in a regime where the contraction condition holds."""
    structure = S883
    chain = rank1_chain(7, structure)
    coeff = compose_coeff([chain])
    g = rng.stream(7, rng.PURPOSE_IMAGES, 0)
    images = g.standard_normal((4000, 8, 8))
    y = images.reshape(4000, -1, order="F") @ vec(coeff)
    probe = probe_rip(images, structure, n_probes=50, seed=3)
    mu = measure_mu(images, y, coeff, structure)
    constants = theory_constants(probe.delta_hat, mu, 0.0, fro_norm(coeff), structure.depth)
    options = FitOptions(max_sweeps=30, tol=1e-14, trace_truth=coeff, trace_factors=True, seed=0)
    model, report = fit(images, y, structure, options=options)
    return structure, chain, constants, model, report


def test_measured_constants_land_in_valid_regime(contraction_run):
    _, _, constants, _, _ = contraction_run
    assert constants.delta < 1.0 / 3.0
    assert constants.mu <= 0.3
    assert constants.condition_met
    assert 0.0 < constants.kappa < 1.0


def test_traced_fit_satisfies_decay_bound(contraction_run):
    _, _, constants, _, report = contraction_run
    verdict = verify_decay(report, constants, t_start=1)
    assert not verdict.vacuous
    assert verdict.passed
    assert all(m >= 0.0 for m in verdict.margins)


def test_traced_fit_satisfies_per_layer_contraction(contraction_run):
    structure, chain, constants, _, report = contraction_run
    snaps = [DknModel(structure=structure, factors=f) for f in report.snapshots]
    depth = structure.depth
    true_upper = {l: vec(kron_chain(chain[l - 1:])) for l in range(1, depth + 1)}
    true_lower = {l: vec(kron_chain(chain[:l])) for l in range(1, depth + 1)}
    checked = 0
    for t in range(len(snaps) - 1):
        for l in range(1, depth + 1):
            lhs = dist(vec(snaps[t + 1].factors[0][l - 1]), vec(chain[l - 1]))
            low = 0.0
            if l > 1:
                low = dist(partial_products(snaps[t + 1], l - 1, "right")[0], true_lower[l - 1])
            up = 0.0
            if l < depth:
                up = dist(partial_products(snaps[t], l + 1, "left")[0], true_upper[l + 1])
            rhs = constants.nu * (low + up) + constants.tau
            # 5e-8 covers the angular metric's floor once everything converges
            assert lhs <= rhs + 5e-8
            checked += 1
    assert checked >= 2 * depth
