"""Tests for the simulation harness: signals, data generation, scoring, ridge."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dkn import rng
from dkn.errors import DimensionError
from dkn.harness import (
    ExperimentConfig,
    SignalSpec,
    accuracy,
    baseline_ridge,
    disk_mask,
    gen_images,
    gen_responses,
    gen_signal,
    rmse_coeff,
    rmse_pred,
    run_experiment,
    run_repetition,
)
from dkn.dkn_fit import DknStructure, FitOptions, fit
from dkn.kron_ops import compose_coeff
from dkn.tensor_core import inner


def disk_count_oracle(dims, center, radius):
    n = 0
    for i in range(dims[0]):
        for j in range(dims[1]):
            if (i - center[0]) ** 2 + (j - center[1]) ** 2 <= radius**2:
                n += 1
    return n


# ------------------------------------------------------------------ signals


def test_disk_mask_matches_pointwise_oracle():
    mask = disk_mask((128, 128), (40, 88), 10)
    assert mask.dtype == bool
    assert int(mask.sum()) == disk_count_oracle((128, 128), (40, 88), 10) == 317
    # the boundary is inclusive
    small = disk_mask((11, 11), (5, 5), 3)
    assert small[5, 8] and small[5, 2] and not small[5, 9]
    with pytest.raises(DimensionError):
        disk_mask((8,), (3,), 2)


def test_circle_geometry_scales_with_rounding_half_up():
    spec = SignalSpec(shape="one_circle", kind="sparse")
    assert int(spec.support((128, 128)).sum()) == 317
    # at 32x32 the radius lands exactly on .5 and must round up
    mask32 = spec.support((32, 32))
    assert np.array_equal(mask32, disk_mask((32, 32), (10, 22), 3))
    assert np.array_equal(spec.support((8, 8)), disk_mask((8, 8), (3, 6), 1))


def test_two_circles_support_is_disjoint_union():
    spec = SignalSpec(shape="two_circles", kind="sparse")
    mask = spec.support((128, 128))
    a = disk_mask((128, 128), (24, 40), 8)
    b = disk_mask((128, 128), (72, 88), 8)
    assert np.array_equal(mask, a | b)
    assert not np.any(a & b)
    assert int(mask.sum()) == int(a.sum()) + int(b.sum())


def test_explicit_circles_override_scaling():
    spec = SignalSpec(shape="one_circle", kind="sparse", circles=((2, 3, 1),))
    assert np.array_equal(spec.support((8, 8)), disk_mask((8, 8), (2, 3), 1))


def test_custom_mask_and_spec_validation():
    m = np.zeros((6, 6), dtype=bool)
    m[2:4, 2:4] = True
    spec = SignalSpec(shape="custom", kind="sparse", mask=m)
    assert np.array_equal(spec.support((6, 6)), m)
    with pytest.raises(DimensionError):
        SignalSpec(shape="custom").support((6, 6))
    with pytest.raises(DimensionError):
        SignalSpec(shape="custom", mask=np.zeros((3, 3), dtype=bool)).support((6, 6))
    with pytest.raises(DimensionError):
        SignalSpec(shape="blob").support((6, 6))
    with pytest.raises(DimensionError):
        gen_signal(SignalSpec(kind="fuzzy"), (6, 6))


def test_sparse_signal_is_the_support_indicator():
    spec = SignalSpec(shape="one_circle", kind="sparse")
    sig = gen_signal(spec, (32, 32))
    assert sig.dtype == np.float64
    assert np.array_equal(sig, spec.support((32, 32)).astype(np.float64))


def test_quasi_sparse_signal_moments_and_determinism():
    spec = SignalSpec(shape="one_circle", kind="quasi_sparse")
    sig = gen_signal(spec, (128, 128), seed=4)
    again = gen_signal(spec, (128, 128), seed=4)
    assert np.array_equal(sig, again)
    assert not np.array_equal(sig, gen_signal(spec, (128, 128), seed=5))
    mask = spec.support((128, 128))
    inside, outside = sig[mask], sig[~mask]
    # N(1, 1) on the 317 support pixels, N(0.1, 0.1) off it
    assert abs(inside.mean() - 1.0) < 0.2
    assert abs(inside.var(ddof=1) - 1.0) < 0.3
    assert abs(outside.mean() - 0.1) < 0.01
    assert abs(outside.var(ddof=1) - 0.1) < 0.01


# ---------------------------------------------------------------- data gen


def test_gen_images_shape_determinism_and_purpose_split():
    x = gen_images(12, (5, 4), seed=3)
    assert x.shape == (12, 5, 4)
    assert np.array_equal(x, gen_images(12, (5, 4), seed=3))
    test_x = gen_images(12, (5, 4), seed=3, purpose=rng.PURPOSE_TEST_IMAGES)
    assert not np.array_equal(x, test_x)
    with pytest.raises(DimensionError):
        gen_images(0, (5, 4))


def test_gen_responses_gaussian_matches_inner_product_oracle():
    g = np.random.default_rng(8)
    images = g.standard_normal((15, 4, 4))
    coeff = g.standard_normal((4, 4))
    clean = gen_responses(images, coeff, "gaussian", noise_sd=0.0, seed=2)
    oracle = np.array([inner(x, coeff) for x in images])
    assert_allclose(clean, oracle, rtol=1e-12)
    # the same seed draws the same noise, so the sd scales it linearly
    y1 = gen_responses(images, coeff, "gaussian", noise_sd=1.0, seed=2)
    y2 = gen_responses(images, coeff, "gaussian", noise_sd=2.0, seed=2)
    assert_allclose(y2 - clean, 2.0 * (y1 - clean), rtol=1e-10)


def test_gen_responses_bernoulli_thresholds_strong_signals():
    g = np.random.default_rng(9)
    images = g.standard_normal((40, 4, 4))
    coeff = 1e3 * g.standard_normal((4, 4))
    y = gen_responses(images, coeff, "bernoulli", seed=6)
    assert set(np.unique(y)) <= {0.0, 1.0}
    assert np.array_equal(y, gen_responses(images, coeff, "bernoulli", seed=6))
    eta = np.array([inner(x, coeff) for x in images])
    # at |eta| in the hundreds the sigmoid saturates either way
    assert np.array_equal(y, (eta > 0).astype(np.float64))


# ------------------------------------------------------------------ scoring


def test_rmse_coeff_values_and_model_input():
    truth = np.arange(12.0).reshape(3, 4)
    assert rmse_coeff(truth, truth) == 0.0
    assert rmse_coeff(truth + 0.5, truth) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(DimensionError):
        rmse_coeff(np.zeros((4, 3)), truth)
    s = DknStructure(image_dims=(4, 4), factor_dims=[(2, 2), (2, 2)])
    g = np.random.default_rng(1)
    chain = [g.standard_normal(fd) for fd in s.factor_dims]
    coeff = compose_coeff([chain]).reshape((4, 4), order="F")
    images = g.standard_normal((80, 4, 4))
    y = images.reshape(80, -1, order="F") @ coeff.ravel(order="F")
    model, _ = fit(images, y, s, options=FitOptions(max_sweeps=50, tol=1e-12))
    assert rmse_coeff(model, coeff) <= 1e-6


def test_rmse_pred_and_accuracy_hand_values():
    assert rmse_pred([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert rmse_pred([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5))
    with pytest.raises(DimensionError):
        rmse_pred([1.0], [1.0, 2.0])
    pred = [0.7, 0.2, 0.9, 0.4]
    actual = [1.0, 0.0, 0.0, 1.0]
    assert accuracy(pred, actual) == 0.5
    # the threshold binarizes both sides: pred -> FFTF, actual -> TFFT
    assert accuracy(pred, actual, threshold=0.8) == 0.25
    with pytest.raises(DimensionError):
        accuracy([0.5], [1.0, 0.0])


# ------------------------------------------------------------------- ridge


def test_ridge_fixed_lambda_matches_direct_primal_solve():
    # 21 samples of 20 features sit one sample above the primal/dual boundary.
    for n in (30, 21):
        g = np.random.default_rng(2)
        images = g.standard_normal((n, 5, 4))
        y = g.standard_normal(n)
        beta_img, intercept, lam = baseline_ridge(images, y, lambdas=[0.7])
        assert lam == 0.7
        assert intercept == pytest.approx(float(np.mean(y)), rel=1e-14)
        xs = images.reshape(n, -1)
        yc = y - np.mean(y)
        direct = np.linalg.solve(xs.T @ xs + 0.7 * np.eye(20), xs.T @ yc)
        assert beta_img.shape == (5, 4)
        assert_allclose(beta_img.ravel(), direct, rtol=1e-10)


def test_ridge_dual_route_agrees_with_primal_formula():
    # 35 samples of 36 features sit one sample below the primal/dual boundary.
    for n in (10, 35):
        g = np.random.default_rng(4)
        images = g.standard_normal((n, 6, 6))
        y = g.standard_normal(n)
        beta_img, _, _ = baseline_ridge(images, y, lambdas=[3.0], n_folds=2)
        xs = images.reshape(n, -1)
        yc = y - np.mean(y)
        primal = np.linalg.solve(xs.T @ xs + 3.0 * np.eye(36), xs.T @ yc)
        assert_allclose(beta_img.ravel(), primal, rtol=1e-9, atol=1e-12)


def test_ridge_huge_lambda_shrinks_to_intercept():
    g = np.random.default_rng(5)
    images = g.standard_normal((25, 4, 4))
    y = 3.0 + g.standard_normal(25)
    beta_img, intercept, _ = baseline_ridge(images, y, lambdas=[1e12])
    assert np.max(np.abs(beta_img)) <= 1e-6
    assert intercept == pytest.approx(float(np.mean(y)), rel=1e-14)


def test_ridge_cv_picks_sane_lambda_extremes():
    g = np.random.default_rng(0)
    images = g.standard_normal((40, 5, 4))
    beta = g.standard_normal(20)
    y_clean = images.reshape(40, -1) @ beta
    _, _, lam = baseline_ridge(images, y_clean, lambdas=[1e-6, 1e6])
    assert lam == 1e-6
    y_noise = g.standard_normal(40)
    _, _, lam = baseline_ridge(images, y_noise, lambdas=[1e-8, 1e8])
    assert lam == 1e8


def test_ridge_default_grid_and_validation():
    g = np.random.default_rng(6)
    images = g.standard_normal((20, 3, 3))
    y = g.standard_normal(20)
    _, _, lam = baseline_ridge(images, y)
    scale = np.sum(images.reshape(20, -1) ** 2) / 9
    grid = np.logspace(-4, 4, 17) * scale
    assert any(np.isclose(lam, grid, rtol=1e-12))
    with pytest.raises(DimensionError):
        baseline_ridge(images, y, n_folds=1)
    with pytest.raises(DimensionError):
        baseline_ridge(images, y, n_folds=21)
    with pytest.raises(DimensionError):
        baseline_ridge(images, y[:-1])
    with pytest.raises(DimensionError):
        baseline_ridge(np.zeros(5), y)


# -------------------------------------------------------------- experiments


def test_config_round_trips_and_derived_sizes():
    cfg = ExperimentConfig(
        image_dims=(8, 8),
        n_train=60,
        signal=SignalSpec("one_circle", "sparse", circles=((3, 6, 1),)),
        family="gaussian",
        noise_sd=0.5,
        rank=2,
        depth=2,
        n_reps=4,
        seed=99,
        max_sweeps=20,
        tol=1e-6,
        run_ridge=False,
    )
    d = cfg.to_dict()
    assert d == {
        "image_dims": [8, 8],
        "n_train": 60,
        "signal": {"shape": "one_circle", "kind": "sparse", "circles": [[3, 6, 1]]},
        "family": "gaussian",
        "noise_sd": 0.5,
        "rank": 2,
        "depth": 2,
        "n_reps": 4,
        "seed": 99,
        "max_sweeps": 20,
        "tol": 1e-6,
        "run_ridge": False,
    }
    assert ExperimentConfig.from_dict(d) == cfg
    d["metadata"] = {"written_by": "a previous run"}
    assert ExperimentConfig.from_dict(d) == cfg
    assert cfg.n_test == 15
    assert ExperimentConfig(n_train=7).n_test == 1


def test_run_experiment_matches_manual_repetitions():
    cfg = ExperimentConfig(
        image_dims=(8, 8),
        n_train=60,
        signal=SignalSpec("one_circle", "sparse"),
        noise_sd=0.5,
        n_reps=3,
        seed=99,
        max_sweeps=20,
        tol=1e-6,
    )
    out = run_experiment(cfg)
    assert sorted(out.keys()) == ["config", "external_methods", "metadata", "repetitions", "summary"]
    assert out["external_methods"] == {}
    assert ExperimentConfig.from_dict(out["config"]) == cfg
    assert len(out["repetitions"]) == 3
    for rep in range(3):
        rep_seed = rng.derive(cfg.seed, rng.PURPOSE_REPETITION, rep) % (2**63)
        manual = run_repetition(cfg, rep_seed, rep=rep)
        assert manual.to_dict() == out["repetitions"][rep]
    vals = [r["rmse_coeff_dkn"] for r in out["repetitions"]]
    agg = out["summary"]["rmse_coeff_dkn"]
    assert agg["mean"] == pytest.approx(np.mean(vals), rel=1e-12)
    assert agg["sd"] == pytest.approx(np.std(vals, ddof=1), rel=1e-12)


def test_run_repetition_scores_both_methods():
    cfg = ExperimentConfig(
        image_dims=(8, 8),
        n_train=80,
        signal=SignalSpec("one_circle", "sparse"),
        noise_sd=0.2,
        n_reps=1,
        seed=17,
        max_sweeps=30,
        tol=1e-8,
    )
    r = run_repetition(cfg, rep_seed=12345, rep=0)
    assert r.rep == 0 and r.seed == 12345
    assert 0.0 <= r.rmse_coeff_dkn < 1.0
    assert np.isfinite(r.rmse_coeff_ridge)
    assert r.rmse_pred_dkn > 0.0 and r.rmse_pred_ridge > 0.0
    assert math.isnan(r.accuracy_dkn)
    d = r.to_dict()
    assert d["accuracy_dkn"] is None
    assert d["converged"] in (True, False)


def test_run_repetition_ridge_with_fewer_training_images_than_folds(monkeypatch):
    """With fewer than five training images the ridge baseline runs one CV
    fold per image, and a config with one image, where no CV is possible,
    is refused before any data are drawn."""
    from dkn import harness

    folds = []

    def spy(images, response, lambdas=None, n_folds=5):
        folds.append(n_folds)
        return baseline_ridge(images, response, lambdas, n_folds)

    monkeypatch.setattr(harness, "baseline_ridge", spy)
    cfg = ExperimentConfig(image_dims=(8, 8), n_train=3, run_ridge=True, n_reps=1,
                           max_sweeps=5)
    r = run_repetition(cfg, 11)
    assert folds == [3] and np.isfinite(r.rmse_coeff_ridge) and np.isfinite(r.rmse_pred_ridge)
    with pytest.raises(DimensionError, match="run_ridge needs n_train >= 2"):
        ExperimentConfig(image_dims=(8, 8), n_train=1, run_ridge=True)
    assert ExperimentConfig(image_dims=(8, 8), n_train=1, run_ridge=False).n_train == 1


def test_run_repetition_bernoulli_reports_accuracy():
    cfg = ExperimentConfig(
        image_dims=(8, 8),
        n_train=80,
        signal=SignalSpec("one_circle", "sparse"),
        family="bernoulli",
        n_reps=1,
        seed=23,
        max_sweeps=15,
        tol=1e-6,
        run_ridge=False,
    )
    r = run_repetition(cfg, rep_seed=777, rep=0)
    assert 0.0 <= r.accuracy_dkn <= 1.0
    assert math.isnan(r.rmse_coeff_ridge)
    assert r.to_dict()["rmse_coeff_ridge"] is None


def test_quasi_sparse_experiments_record_variance_reading():
    cfg = ExperimentConfig(
        image_dims=(8, 8),
        n_train=40,
        signal=SignalSpec("one_circle", "quasi_sparse"),
        n_reps=1,
        seed=5,
        max_sweeps=10,
        tol=1e-4,
        run_ridge=False,
    )
    out = run_experiment(cfg)
    assert out["metadata"]["quasi_sparse_outside"] == {"mean": 0.1, "variance": 0.1}
