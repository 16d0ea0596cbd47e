"""CLI tests: each command run in-process, plus a check of the `dkn` console script.

The console-script check reads the `dkn` target from `[project.scripts]` in
pyproject.toml and runs it in a subprocess the way an installed wrapper does,
so it needs no install; an installed `dkn` on PATH is checked as well.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import dkn
from dkn import rng
from dkn.cli import _load_images_dir, _load_response_csv, build_parser, main
from dkn.dkn_fit import (
    DknModel,
    DknStructure,
    FitOptions,
    auto_structure,
    fit,
    load_model,
    predict,
    save_model,
)
from dkn.kron_ops import compose_coeff
from dkn.tensor_core import read_dkt, write_dkt


def write_config(path, **overrides):
    cfg = {
        "image_dims": [8, 8],
        "n_train": 60,
        "signal": {"shape": "one_circle", "kind": "sparse", "circles": None},
        "family": "gaussian",
        "noise_sd": 0.3,
        "rank": 1,
        "depth": None,
        "n_reps": 1,
        "seed": 11,
        "max_sweeps": 30,
        "tol": 1e-8,
        "run_ridge": False,
    }
    cfg.update(overrides)
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return cfg


def write_responses(path, values):
    with open(path, "w") as fh:
        fh.write("id,y\n")
        for i, v in enumerate(values):
            fh.write(f"{i},{float(v)!r}\n")


def write_rank1_dataset(root, n=500, seed=31, noise_sd=0.05):
    """Images, responses, and a Kronecker rank-1 truth in CLI on-disk layout."""
    s = DknStructure(image_dims=(8, 8), factor_dims=[(2, 2), (2, 2), (2, 2)])
    g = rng.stream(seed, rng.PURPOSE_SIGNAL, 0)
    chain = [g.standard_normal(fd) for fd in s.factor_dims]
    coeff = compose_coeff([chain]).reshape((8, 8), order="F")
    x = rng.stream(seed, rng.PURPOSE_IMAGES, 0).standard_normal((n, 8, 8))
    eps = rng.stream(seed, rng.PURPOSE_RESPONSES, 0).standard_normal(n)
    y = x.reshape(n, -1, order="F") @ coeff.ravel(order="F") + noise_sd * eps
    imgdir = os.path.join(root, "images")
    os.makedirs(imgdir)
    for i, img in enumerate(x):
        write_dkt(os.path.join(imgdir, f"img_{i:05d}.dkt"), img)
    write_responses(os.path.join(root, "y.csv"), y)
    write_dkt(os.path.join(root, "truth.dkt"), coeff)
    return imgdir, os.path.join(root, "y.csv"), os.path.join(root, "truth.dkt"), x, y


@pytest.mark.parametrize("overrides", [
    {},
    {"signal": {"shape": "two_circles", "kind": "quasi_sparse", "circles": None},
     "image_dims": [12, 10], "family": "bernoulli"},
    {"n_train": 3},
], ids=["sparse", "quasi_sparse", "n_train_3"])
def test_simulate_writes_run_repetitions_draw(tmp_path, monkeypatch, overrides):
    """``dkn simulate`` and ``run_repetition`` make one draw: at the config's
    seed, the truth and the train and test pairs that simulate writes are
    the ones the repetition fits and scores.  A config of 3 training images
    has no test set, so simulate writes none, while the repetition still
    scores one test image."""
    from dkn import harness

    raw = write_config(tmp_path / "config.json", **overrides)
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(tmp_path / "config.json"), "--out", str(data)]) == 0
    seen = {}

    def spy(name, fn, keep):
        def wrapped(*args, **kwargs):
            seen.setdefault(name, keep(*args))
            return fn(*args, **kwargs)
        monkeypatch.setattr(harness, name, wrapped)

    spy("fit", harness.fit, lambda x, y, *rest: (x, y))
    spy("predict", harness.predict, lambda model, x: x)
    spy("rmse_pred", harness.rmse_pred, lambda pred, y: y)
    spy("rmse_coeff", harness.rmse_coeff, lambda model, truth: truth)
    cfg = harness.ExperimentConfig.from_dict(raw)
    harness.run_repetition(cfg, cfg.seed)

    assert np.array_equal(read_dkt(str(data / "truth.dkt")), seen["rmse_coeff"])
    assert np.array_equal(_load_images_dir(str(data / "images")), seen["fit"][0])
    assert np.array_equal(_load_response_csv(str(data / "y.csv")), seen["fit"][1])
    if cfg.n_test == 0:
        assert not (data / "test_images").exists() and not (data / "y_test.csv").exists()
        assert seen["predict"].shape == (1,) + cfg.image_dims
        return
    assert np.array_equal(_load_images_dir(str(data / "test_images")), seen["predict"])
    assert np.array_equal(_load_response_csv(str(data / "y_test.csv")), seen["rmse_pred"])


def test_simulate_then_fit_then_predict(tmp_path):
    cfg_path = tmp_path / "config.json"
    raw = write_config(cfg_path)
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(data)]) == 0
    assert sorted(os.listdir(data / "images")) == [f"img_{i:05d}.dkt" for i in range(60)]
    assert len(os.listdir(data / "test_images")) == 15
    assert (data / "truth.dkt").exists()
    echoed = json.loads((data / "config.json").read_text())
    assert echoed["n_train"] == raw["n_train"]
    assert echoed["seed"] == raw["seed"]

    model_dir = tmp_path / "model"
    assert main(["fit", "--images", str(data / "images"), "--y", str(data / "y.csv"),
                 "--out", str(model_dir), "--seed", "0"]) == 0
    report = json.loads((model_dir / "fit_report.json").read_text())
    assert report["family"] == "gaussian" and report["rank"] == 1
    assert "wall_time_s" not in json.dumps(report)

    # the CLI fit is the library fit: same data, same options, same trace
    images = np.stack([
        np.fromfile(data / "images" / f"img_{i:05d}.dkt", dtype=np.float64, offset=21)
        .reshape((8, 8), order="F")
        for i in range(60)
    ])
    yvals = np.array([float(line.split(",")[1])
                      for line in (data / "y.csv").read_text().splitlines()[1:]])
    structure, padded = auto_structure((8, 8), rank=1)
    _, api_report = fit(images, yvals, structure,
                        options=FitOptions(center_response=True), padded_from=padded)
    assert_allclose(report["objective_trace"], api_report.objective_trace, rtol=1e-12)

    pred_path = tmp_path / "pred.csv"
    assert main(["predict", "--model", str(model_dir), "--images", str(data / "test_images"),
                 "--out", str(pred_path)]) == 0
    rows = pred_path.read_text().splitlines()
    assert rows[0] == "id,pred"
    assert len(rows) == 16
    cli_pred = np.array([float(r.split(",")[1]) for r in rows[1:]])
    model = load_model(str(model_dir))
    test_images = np.stack([
        np.fromfile(data / "test_images" / f"img_{i:05d}.dkt", dtype=np.float64, offset=21)
        .reshape((8, 8), order="F")
        for i in range(15)
    ])
    assert_allclose(cli_pred, predict(model, test_images), rtol=1e-15)


def test_fit_scan_selects_rank_and_reports_bic(tmp_path):
    imgdir, ycsv, _, _, _ = write_rank1_dataset(tmp_path, n=200, seed=13)
    out = tmp_path / "model"
    assert main(["fit", "--images", imgdir, "--y", ycsv, "--out", str(out),
                 "--rank", "scan", "--ranks", "1,2", "--no-center"]) == 0
    scan = json.loads((out / "scan_report.json").read_text())
    assert sorted(scan["bic_table"].keys()) == ["1", "2"]
    assert scan["best_rank"] == 1  # the data are exactly rank one
    assert "wall_time_s" not in json.dumps(scan)
    model = load_model(str(out))
    assert model.structure.rank == 1
    assert (out / "fit_report.json").exists()


def test_fit_writes_the_files_of_a_one_rank_scan(tmp_path):
    """``dkn fit --rank 1`` is ``scan-rank --ranks 1`` without the scan
    report: the same manifest, factor files and fit report, byte for byte."""
    imgdir, ycsv, _, _, _ = write_rank1_dataset(tmp_path, n=120, seed=19)
    common = ["--images", imgdir, "--y", ycsv, "--family", "gaussian", "--max-sweeps", "6"]
    fit_dir, scan_dir = tmp_path / "fit", tmp_path / "scan"
    assert main(["fit", "--rank", "1", "--out", str(fit_dir)] + common) == 0
    assert main(["scan-rank", "--ranks", "1", "--out", str(scan_dir)] + common) == 0
    written = sorted(os.listdir(fit_dir))
    assert sorted(os.listdir(scan_dir)) == sorted(written + ["scan_report.json"])
    assert "manifest.json" in written and "fit_report.json" in written
    assert sum(name.startswith("factor_") for name in written) == 3
    for name in written:
        assert (fit_dir / name).read_bytes() == (scan_dir / name).read_bytes(), name


@pytest.mark.parametrize(
    "command",
    [["fit"], ["fit", "--rank", "scan", "--ranks", "1,2"], ["scan-rank", "--ranks", "1,2"]],
)
def test_fit_reports_non_convergence_on_stderr_and_exits_0(tmp_path, capsys, command):
    """A fit cut off by --max-sweeps still succeeds, and each rank that did
    not converge gets one stderr line with its sweeps and last change."""
    imgdir, ycsv, _, _, _ = write_rank1_dataset(tmp_path, n=200, seed=13)
    out = tmp_path / "model"
    assert main(command + ["--images", imgdir, "--y", ycsv, "--out", str(out),
                           "--max-sweeps", "2", "--tol", "0"]) == 0
    err = capsys.readouterr().err.splitlines()
    ranks = [1, 2] if len(command) > 1 else [1]
    assert len(err) == len(ranks)
    scan = (out / "scan_report.json").exists()
    reports = (json.loads((out / "scan_report.json").read_text())["reports"] if scan
               else {"1": json.loads((out / "fit_report.json").read_text())})
    for line, rank in zip(err, ranks):
        rep = reports[str(rank)]
        assert rep["converged"] is False and rep["sweeps"] == 2
        assert line == (f"dkn {command[0]}: rank {rank} did not converge: 2 sweeps, "
                        f"final_rel_change {rep['final_rel_change']:.6g} (tol 0)")

    assert main(command + ["--images", imgdir, "--y", ycsv, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


def load_strict_json(path):
    """A JSON file read the way strict parsers read it: NaN, Infinity and
    -Infinity are refused."""
    def refuse(name):
        raise ValueError(f"{path}: non-finite constant {name}")

    return json.loads(Path(path).read_text(), parse_constant=refuse)


@pytest.mark.parametrize("command", [["fit"], ["scan-rank", "--ranks", "1,2"]])
def test_one_sweep_fit_writes_strict_json(tmp_path, command):
    """A fit of one sweep has no relative change: its reports write
    ``final_rel_change`` as null, not as the non-JSON Infinity."""
    imgdir, ycsv, _, _, _ = write_rank1_dataset(tmp_path, n=120, seed=19)
    out = tmp_path / "model"
    assert main(command + ["--images", imgdir, "--y", ycsv, "--out", str(out),
                           "--max-sweeps", "1"]) == 0
    reports = [load_strict_json(out / "fit_report.json")]
    if command[0] == "scan-rank":
        reports += load_strict_json(out / "scan_report.json")["reports"].values()
    assert len(reports) == (3 if command[0] == "scan-rank" else 1)
    for rep in reports:
        assert rep["sweeps"] == 1 and rep["final_rel_change"] is None


def test_fit_reads_structure_file(tmp_path):
    imgdir, ycsv, _, _, _ = write_rank1_dataset(tmp_path, n=120, seed=17)
    spath = tmp_path / "structure.json"
    spath.write_text(json.dumps(
        {"image_dims": [8, 8], "factor_dims": [[2, 2], [4, 4]], "rank": 2}))
    out = tmp_path / "model"
    assert main(["fit", "--images", imgdir, "--y", ycsv, "--out", str(out),
                 "--structure", str(spath), "--no-center"]) == 0
    model = load_model(str(out))
    # rank comes from the file when --rank is not given
    assert model.structure.rank == 2
    assert model.structure.depth == 2
    assert model.structure.factor_dims == ((2, 2, 1), (4, 4, 1))


def test_validation_failures_exit_2(tmp_path, capsys):
    ycsv = tmp_path / "y.csv"
    write_responses(ycsv, np.ones(4))
    assert main(["fit", "--images", str(tmp_path / "missing"), "--y", str(ycsv),
                 "--out", str(tmp_path / "m")]) == 2

    imgdir, good_y, _, _, y = write_rank1_dataset(tmp_path, n=8, seed=3)
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("index,value\n0,1.0\n")
    assert main(["fit", "--images", imgdir, "--y", str(bad_header),
                 "--out", str(tmp_path / "m")]) == 2

    short = tmp_path / "short.csv"
    write_responses(short, y[:5])
    assert main(["fit", "--images", imgdir, "--y", str(short),
                 "--out", str(tmp_path / "m")]) == 2

    bad_struct = tmp_path / "structure.json"
    bad_struct.write_text("{not json")
    assert main(["fit", "--images", imgdir, "--y", good_y, "--out", str(tmp_path / "m"),
                 "--structure", str(bad_struct)]) == 2

    mismatched = tmp_path / "mismatch.json"
    mismatched.write_text(json.dumps({"image_dims": [4, 4], "factor_dims": [[2, 2], [2, 2]]}))
    assert main(["fit", "--images", imgdir, "--y", good_y, "--out", str(tmp_path / "m"),
                 "--structure", str(mismatched)]) == 2

    assert main(["fit", "--images", imgdir, "--y", good_y, "--out", str(tmp_path / "m"),
                 "--rank", "bogus"]) == 2
    assert main(["fit", "--images", imgdir, "--y", good_y, "--out", str(tmp_path / "m"),
                 "--rank", "scan", "--ranks", " , "]) == 2

    good_struct = tmp_path / "good.json"
    good_struct.write_text(json.dumps({"image_dims": [8, 8], "factor_dims": [[2, 2], [4, 4]]}))
    capsys.readouterr()
    for args, cause in [(["--max-sweeps", "0"], "max_sweeps"), (["--tol", "nan"], "tol"),
                        (["--tol=-1"], "tol"), (["--ridge", "nan"], "ridge"),
                        (["--ridge", "inf"], "ridge"),
                        (["--structure", str(good_struct), "--depth", "5"], "--depth")]:
        assert main(["fit", "--images", imgdir, "--y", good_y,
                     "--out", str(tmp_path / "m")] + args) == 2, args
        assert cause in capsys.readouterr().err, args

    cfg = tmp_path / "config.json"
    write_config(cfg, bogus_knob=1)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err
    assert "bogus_knob" in err

    for instances in ("0", "-3"):
        report = tmp_path / f"identities{instances}.json"
        assert main(["check-equivalence", "--instances", instances, "--out", str(report)]) == 2
        assert "--instances" in capsys.readouterr().err
        assert not report.exists()

    # Malformed JSON inputs: each exits 2 and names the file.
    s = DknStructure(image_dims=(8, 8), factor_dims=[(2, 2), (4, 4)])
    save_model(DknModel(structure=s, factors=[[np.ones((2, 2)), np.ones((4, 4))]]),
               tmp_path / "good_model")
    good_manifest = json.loads((tmp_path / "good_model" / "manifest.json").read_text())
    no_structure = {k: v for k, v in good_manifest.items() if k != "structure"}
    files_as_list = dict(good_manifest, factor_files=list(good_manifest["factor_files"]))
    for name, manifest in [("no_structure", no_structure), ("list", [1, 2]),
                           ("files_as_list", files_as_list),
                           ("intercept_null", dict(good_manifest, intercept=None))]:
        model = tmp_path / f"model_{name}"
        shutil.copytree(tmp_path / "good_model", model)
        (model / "manifest.json").write_text(json.dumps(manifest))
        assert main(["predict", "--model", str(model), "--images", imgdir,
                     "--out", str(tmp_path / "p.csv")]) == 2, name
        assert str(model / "manifest.json") in capsys.readouterr().err, name
    for name, text in [("list", "[1, 2]"),
                       ("int_factor_dims", '{"image_dims": [8, 8], "factor_dims": 3}')]:
        structure = tmp_path / f"structure_{name}.json"
        structure.write_text(text)
        assert main(["fit", "--images", imgdir, "--y", good_y, "--out", str(tmp_path / "m"),
                     "--structure", str(structure)]) == 2, name
        assert str(structure) in capsys.readouterr().err, name
    for entry, value in [("n_train", "x"), ("image_dims", "ab"), ("noise_sd", None),
                         ("rank", "2")]:
        write_config(cfg, **{entry: value})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 2
        assert entry in capsys.readouterr().err, entry
    write_config(cfg, signal="x")
    truncated = tmp_path / "truncated.json"
    truncated.write_text("{")
    for config in (cfg, truncated):
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "d")]) == 2
        assert str(config) in capsys.readouterr().err, config


@pytest.mark.parametrize("knob", [{"max_sweeps": 0}, {"tol": float("nan")}])
def test_simulate_refuses_bad_fit_settings_before_writing(tmp_path, capsys, knob):
    cfg = tmp_path / "config.json"
    write_config(cfg, **knob)
    out = tmp_path / "d"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert next(iter(knob)) in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_solver_failure_exits_3(tmp_path):
    imgdir, _, _, _, _ = write_rank1_dataset(tmp_path, n=20, seed=5)
    zeros = tmp_path / "zeros.csv"
    write_responses(zeros, np.zeros(20))
    assert main(["fit", "--images", imgdir, "--y", str(zeros),
                 "--out", str(tmp_path / "m"), "--no-center"]) == 3


def test_non_finite_inputs_exit_2_naming_the_index(tmp_path, capsys):
    imgdir, ycsv, _, x, y = write_rank1_dataset(tmp_path, n=60, seed=9)
    out = str(tmp_path / "m")
    bad = x[17].copy()
    bad[3, 5] = np.nan
    write_dkt(os.path.join(imgdir, "img_00017.dkt"), bad)
    assert main(["fit", "--images", imgdir, "--y", ycsv, "--out", out]) == 2
    assert "image 17 has a non-finite pixel" in capsys.readouterr().err

    write_dkt(os.path.join(imgdir, "img_00017.dkt"), x[17])
    y_inf = y.copy()
    y_inf[23] = np.inf
    write_responses(tmp_path / "inf.csv", y_inf)
    assert main(["fit", "--images", imgdir, "--y", str(tmp_path / "inf.csv"), "--out", out]) == 2
    assert "response row 23 is not finite" in capsys.readouterr().err


def test_image_directory_is_read_in_id_order(tmp_path):
    """Files pair with y.csv rows by the integer id in their names, whatever
    the zero-padding: img_9 before img_10, and padded and unpadded alike."""
    imgdir, ycsv, _, x, _ = write_rank1_dataset(tmp_path, n=24, seed=17)
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    for i in range(24):
        name = f"img_{i}.dkt" if i % 3 else f"img_{i:03d}.dkt"
        shutil.copy(os.path.join(imgdir, f"img_{i:05d}.dkt"), mixed / name)
    assert np.array_equal(_load_images_dir(str(mixed)), x)

    models = [tmp_path / "padded", tmp_path / "mixed_model"]
    for d, out in zip([imgdir, str(mixed)], models):
        assert main(["fit", "--images", d, "--y", ycsv, "--out", str(out),
                     "--max-sweeps", "3"]) == 0
    for name in os.listdir(models[0]):
        assert (models[0] / name).read_bytes() == (models[1] / name).read_bytes(), name


def _copy(src, dst):
    return lambda d: shutil.copy(os.path.join(d, src), os.path.join(d, dst))


def _rename(src, dst):
    return lambda d: os.rename(os.path.join(d, src), os.path.join(d, dst))


@pytest.mark.parametrize("mutate, named", [
    (_copy("img_00001.dkt", "img_1a.dkt"), "img_1a.dkt"),
    (_copy("img_00001.dkt", "img_-1.dkt"), "img_-1.dkt"),
    (_copy("img_00001.dkt", "img_1.dkt"), "img_1.dkt"),
    (lambda d: os.remove(os.path.join(d, "img_00003.dkt")), "3 is missing"),
    (_rename("img_00000.dkt", "img_8.dkt"), "0 is missing"),
    (lambda d: write_dkt(os.path.join(d, "img_00005.dkt"), np.zeros((4, 16))), "img_00005.dkt"),
], ids=["bad-name", "negative-id", "duplicate-id", "gap", "ids-from-1", "mixed-extents"])
def test_fit_refuses_a_bad_image_directory_with_exit_2(tmp_path, capsys, mutate, named):
    imgdir, ycsv, _, _, _ = write_rank1_dataset(tmp_path, n=8, seed=3)
    mutate(imgdir)
    assert main(["fit", "--images", imgdir, "--y", ycsv, "--out", str(tmp_path / "m")]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_fit_refuses_a_malformed_image_file_with_exit_2(tmp_path, capsys, malformed_dkt):
    imgdir, ycsv, _, _, _ = write_rank1_dataset(tmp_path, n=8, seed=3)
    bad = os.path.join(imgdir, "img_00004.dkt")
    with open(bad, "rb") as fh:
        good = fh.read()
    for name, contents in malformed_dkt(good).items():
        with open(bad, "wb") as fh:
            fh.write(contents)
        assert main(["fit", "--images", imgdir, "--y", ycsv, "--out", str(tmp_path / "m")]) == 2
        assert "img_00004.dkt" in capsys.readouterr().err, name
        assert not (tmp_path / "m").exists(), name


def test_fit_refuses_a_bad_file_in_a_later_block_before_making_its_model(
        tmp_path, capsys, monkeypatch, malformed_dkt):
    """``dkn fit`` reads its image files block by block (8 images a block
    here): a malformed file, or one of other extents, in a later block is
    refused with exit 2, naming it (and the first file, whose extents it
    does not share), and no model directory is made."""
    from dkn import dkn_fit

    monkeypatch.setattr(dkn_fit, "_BLOCK_BYTES", 1)
    imgdir, ycsv, _, _, _ = write_rank1_dataset(tmp_path, n=20, seed=3)
    out = tmp_path / "m"
    bad = os.path.join(imgdir, "img_00014.dkt")
    with open(bad, "rb") as fh:
        good = fh.read()
    for name, contents in malformed_dkt(good).items():
        with open(bad, "wb") as fh:
            fh.write(contents)
        assert main(["fit", "--images", imgdir, "--y", ycsv, "--out", str(out)]) == 2, name
        assert "img_00014.dkt" in capsys.readouterr().err, name
        assert not out.exists(), name
    write_dkt(bad, np.zeros((4, 16)))
    assert main(["fit", "--images", imgdir, "--y", ycsv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "img_00014.dkt: extents (4, 16) differ from (8, 8)" in err and "img_00000.dkt" in err
    assert not out.exists()


def test_non_finite_pixel_in_a_later_block_exits_2_naming_the_index(tmp_path, capsys, monkeypatch):
    """The image index of a non-finite pixel is the image's own, in
    whichever block (8 images a block here) the fit reads it."""
    from dkn import dkn_fit

    monkeypatch.setattr(dkn_fit, "_BLOCK_BYTES", 1)
    imgdir, ycsv, _, x, _ = write_rank1_dataset(tmp_path, n=60, seed=9)
    bad = x[17].copy()
    bad[3, 5] = np.inf
    write_dkt(os.path.join(imgdir, "img_00017.dkt"), bad)
    for extra in ([], ["--rank", "scan", "--ranks", "1,2"]):
        assert main(["fit", "--images", imgdir, "--y", ycsv, "--out", str(tmp_path / "m")]
                    + extra) == 2
        assert "image 17 has a non-finite pixel" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("blocks_of_8", [True, False])
def test_fit_on_a_directory_agrees_with_the_fit_of_its_array(tmp_path, monkeypatch, blocks_of_8):
    """``dkn fit`` reads its image files into the solver stack block by
    block, never as one array; its fits agree with those of the array
    ``read_dkt_stack`` reads: the same sweeps, and objective traces within
    1e-12 relative, for a rank scan's started rank as well."""
    from dkn import dkn_fit
    from dkn.dkn_fit import scan_rank
    from dkn.tensor_core import read_dkt_stack

    if blocks_of_8:  # the fewest images a block may hold; else one block of 90
        monkeypatch.setattr(dkn_fit, "_BLOCK_BYTES", 1)
    imgdir, ycsv, _, _, y = write_rank1_dataset(tmp_path, n=90, seed=21, noise_sd=0.5)
    out = tmp_path / "model"
    assert main(["fit", "--images", imgdir, "--y", ycsv, "--out", str(out),
                 "--rank", "scan", "--ranks", "1,2"]) == 0
    with open(out / "scan_report.json") as fh:
        got = json.load(fh)["reports"]
    structure, _ = auto_structure((8, 8))
    want = scan_rank(_load_images_dir(imgdir), y, structure, [1, 2],
                     options=FitOptions(center_response=True))
    for rank, rep in want.reports.items():
        assert got[str(rank)]["sweeps"] == rep.sweeps
        assert_allclose(got[str(rank)]["objective_trace"], rep.objective_trace, rtol=1e-12)


def test_fit_on_a_directory_holds_the_stack_and_one_block(tmp_path):
    """``dkn fit`` in-process on 200 images of 16x16x16 allocates at most
    its solver stack, one block buffer, one tile buffer and 512 KB of slack
    (the response, the sweeps' contractions of the stack), and less than the
    stack and the images together."""
    from dkn import dkn_fit

    x = np.random.default_rng(64).standard_normal((200, 16, 16, 16))
    imgdir = tmp_path / "images"
    imgdir.mkdir()
    for i, img in enumerate(x):
        write_dkt(str(imgdir / f"img_{i:05d}.dkt"), img)
    y = x[:, 4:8, 4:8, 4:8].sum(axis=(1, 2, 3))
    write_responses(tmp_path / "y.csv", y)
    stack_bytes = x.nbytes
    size = dkn_fit._ImageBlocks(paths=[str(imgdir / "img_00000.dkt")] * 200).size
    block_bytes = size * 16 ** 3 * 8
    tile_bytes = min(dkn_fit._STACK_TILE[0], size) * (dkn_fit._STACK_TILE[1] + 8) * 8
    assert dkn_fit._stack_workers(stack_bytes) == 1
    tracemalloc.start()
    try:
        code = main(["fit", "--images", str(imgdir), "--y", str(tmp_path / "y.csv"),
                     "--out", str(tmp_path / "model"), "--max-sweeps", "3"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < stack_bytes + block_bytes + tile_bytes + (512 << 10), (peak, stack_bytes)
    assert peak < stack_bytes + x.nbytes


def test_predict_rejects_missing_model(tmp_path):
    imgdir, _, _, _, _ = write_rank1_dataset(tmp_path, n=4, seed=7)
    assert main(["predict", "--model", str(tmp_path / "nope"), "--images", imgdir,
                 "--out", str(tmp_path / "p.csv")]) == 2


def test_check_equivalence_reports_all_suites(tmp_path):
    out = tmp_path / "report.json"
    assert main(["check-equivalence", "--instances", "25", "--seed", "1",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    names = sorted(report["suites"].keys())
    assert names == ["conv_chain_inner_product", "cp_regrouping", "kron_rank1_reshape"]
    for suite in report["suites"].values():
        assert suite["passed"] is True
    out2 = tmp_path / "report2.json"
    assert main(["check-equivalence", "--instances", "25", "--seed", "1",
                 "--out", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_diagnose_without_truth_reports_probe_only(tmp_path):
    imgdir, ycsv, _, _, _ = write_rank1_dataset(tmp_path, n=120, seed=19)
    model_dir = tmp_path / "model"
    assert main(["fit", "--images", imgdir, "--y", ycsv, "--out", str(model_dir),
                 "--no-center"]) == 0
    out = tmp_path / "diag.json"
    assert main(["diagnose", "--model", str(model_dir), "--images", imgdir,
                 "--y", ycsv, "--probes", "10", "--out", str(out)]) == 0
    d = json.loads(out.read_text())
    assert isinstance(d["delta_hat"], float)
    assert d["constants"] is None and d["decay_verdict"] is None
    assert d["identifiability"]["necessary"] in (True, False)
    assert any("truth" in note for note in d["notes"])


def test_diagnose_with_truth_evaluates_constants(tmp_path):
    imgdir, ycsv, truth, _, _ = write_rank1_dataset(tmp_path, n=500, seed=31)
    model_dir = tmp_path / "model"
    assert main(["fit", "--images", imgdir, "--y", ycsv, "--out", str(model_dir),
                 "--no-center"]) == 0
    out = tmp_path / "diag.json"
    assert main(["diagnose", "--model", str(model_dir), "--images", imgdir,
                 "--y", ycsv, "--truth", truth, "--out", str(out)]) == 0
    d = json.loads(out.read_text())
    assert d["delta_hat"] < 1.0 / 3.0
    assert d["constants"] is not None
    assert d["constants"]["depth"] == 3
    assert d["decay_verdict"] is not None
    assert d["notes"] == []
    # strict JSON: non-finite floats must have been nulled out
    json.dumps(d, allow_nan=False)


def test_diagnose_flags_non_rank1_truth(tmp_path):
    imgdir, ycsv, _, x, y = write_rank1_dataset(tmp_path, n=120, seed=23)
    # a circle indicator is not a Kronecker product; diagnose should degrade
    circle = np.zeros((8, 8))
    circle[2:5, 3:6] = 1.0
    truth2 = tmp_path / "truth2.dkt"
    write_dkt(str(truth2), circle)
    model_dir = tmp_path / "model"
    assert main(["fit", "--images", imgdir, "--y", ycsv, "--out", str(model_dir),
                 "--no-center"]) == 0
    out = tmp_path / "diag.json"
    assert main(["diagnose", "--model", str(model_dir), "--images", imgdir,
                 "--y", ycsv, "--truth", str(truth2), "--out", str(out)]) == 0
    d = json.loads(out.read_text())
    assert d["constants"] is None
    assert any("initialization distance unavailable" in note for note in d["notes"])


def test_diagnose_pads_no_image_stack_of_a_padded_model(tmp_path, monkeypatch, crop_shares):
    """``dkn diagnose`` on a padded 3-D model reads the training images
    where they lie: it runs its full path, and the only image it pads is the
    one-image truth.  Its delta_hat is the padded copy's to rounding, once
    each probe's ratio divides by the energy of its crop to the images'
    voxels rather than by the whole probe's."""
    from dkn import cli, dkn_fit
    from dkn.diagnostics import probe_rip

    dims, n = (4, 15, 4), 500
    structure, padded_from = auto_structure(dims)
    assert padded_from == dims
    x = rng.stream(33, rng.PURPOSE_IMAGES, 0).standard_normal((n,) + dims)
    truth = np.zeros(dims)
    truth[:2, :2, :2] = 1.0
    eps = rng.stream(33, rng.PURPOSE_RESPONSES, 0).standard_normal(n)
    imgdir = tmp_path / "images"
    imgdir.mkdir()
    for i, img in enumerate(x):
        write_dkt(str(imgdir / f"img_{i:05d}.dkt"), img)
    write_responses(tmp_path / "y.csv", x.reshape(n, -1) @ truth.ravel() + 0.05 * eps)
    write_dkt(str(tmp_path / "truth.dkt"), truth)
    model_dir, out = tmp_path / "model", tmp_path / "diag.json"
    assert main(["fit", "--images", str(imgdir), "--y", str(tmp_path / "y.csv"),
                 "--out", str(model_dir), "--no-center"]) == 0

    padded, pad = [], dkn_fit.pad_images

    def spy(images, from_dims, to_dims):
        padded.append(np.shape(images)[0])
        return pad(images, from_dims, to_dims)

    monkeypatch.setattr(cli, "pad_images", spy)
    monkeypatch.setattr(dkn_fit, "pad_images", spy)
    assert main(["diagnose", "--model", str(model_dir), "--images", str(imgdir),
                 "--y", str(tmp_path / "y.csv"), "--truth", str(tmp_path / "truth.dkt"),
                 "--probes", "10", "--out", str(out)]) == 0
    assert padded == [1]
    d = json.loads(out.read_text())
    assert d["notes"] == [] and d["constants"] is not None and d["decay_verdict"] is not None
    ratios = probe_rip(pad(x, dims, structure.image_dims), structure, n_probes=10).ratios
    want = max(abs(r * share - 1.0) for r, share in zip(ratios, crop_shares(structure, dims, 0, 10)))
    assert_allclose(d["delta_hat"], want, rtol=1e-12)


# the subcommands the README documents for the `dkn` console script
SUBCOMMANDS = ("simulate", "fit", "scan-rank", "predict", "check-equivalence", "diagnose")


def _assert_help_lists_subcommands(cmd, env, expected):
    proc = subprocess.run(cmd + ["--help"], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, f"{cmd} --help exited {proc.returncode}: {proc.stderr}"
    choices = re.search(r"\{([^}]*)\}", proc.stdout)
    assert choices is not None, f"no subcommand list in --help output:\n{proc.stdout}"
    listed = choices.group(1).split(",")
    for name in expected:
        assert name in listed, f"--help does not list {name!r}:\n{proc.stdout}"


def test_installed_entry_point_runs():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    registered = list(sub.choices)
    assert sorted(registered) == sorted(SUBCOMMANDS)

    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        module, attr = tomllib.load(fh)["project"]["scripts"]["dkn"].split(":")
    # the wrapper an install generates: import the target and exit with its result
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    env = dict(os.environ)
    code_root = str(Path(dkn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [code_root, env.get("PYTHONPATH")]))
    _assert_help_lists_subcommands([sys.executable, "-c", wrapper], env, registered)

    exe = shutil.which("dkn")
    if exe is not None:
        _assert_help_lists_subcommands([exe], env, registered)


def test_fit_rank_scan_builds_one_stack(tmp_path, monkeypatch):
    """``dkn fit --rank scan`` copies the images into one solver stack for
    all the ranks it fits."""
    from dkn import dkn_fit

    imgdir, ycsv, _, _, _ = write_rank1_dataset(tmp_path, n=120, seed=14)
    calls, build = [], dkn_fit._vectorize_images

    def counted(*args, **kwargs):
        calls.append(args[1].rank)
        return build(*args, **kwargs)

    monkeypatch.setattr(dkn_fit, "_vectorize_images", counted)
    assert main(["fit", "--images", imgdir, "--y", ycsv, "--out", str(tmp_path / "model"),
                 "--rank", "scan", "--ranks", "1,2,3"]) == 0
    assert calls == [1]
