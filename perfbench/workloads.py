"""The benchmark's three workloads: their inputs, operations and output checks.

Each workload solves one fixed problem instance, generated from the data
seed recorded in ``reference.json`` together with what the seed commit
computed on it.  The benchmark's ``--seed`` permutes the order of the
training and test samples.  A fit is invariant to that order up to
rounding, so every seed gives the same sweep counts and the same reference
values, while no two seeds hand the program the same arrays or files.  The
instance stays fixed because the cost of a fit follows its sweep count, and
the sweep count of an over-ranked Bernoulli fit swings by a factor of three
between data seeds; letting it vary would measure the instance, not the
program.

A workload has two kinds of calls.  ``run_pass`` makes one pass of the
operations the workload stands for (a fit or a rank scan, plus the predict
and diagnose where the workload has them); ``total_s`` is its time.
``timed_calls`` gives the calls that are repeated after the passes only to
time ``fit_s``, ``predict_img_per_s`` and ``diagnose_s`` steadily; they stay
out of ``total_s``.

An operation is a fit, a predict, a diagnose step or a CLI command.  One
that raises, exits non-zero or fails an output check counts as failed.
"""

import contextlib
import csv
import io
import json
import os
import resource
import shutil
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from dkn import cli, diagnostics, dkn_fit, harness, rng, tensor_core

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "reference.json")) as _fh:
    REFERENCE = json.load(_fh)

RIP_PROBES = 20


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Ops:
    """Operations attempted and failed in one run, with the failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def run(self, label, fn, *args, **kwargs):
        """Time one operation; a raised error marks it failed."""
        op = Op(label)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            op.result = fn(*args, **kwargs)
        except Exception:  # a failing operation is counted and the run goes on
            op.seconds = time.perf_counter() - t0
            self._fail(op, traceback.format_exc().strip())
            return op
        op.seconds = time.perf_counter() - t0
        return op

    def check(self, op, what, ok, detail=""):
        if not ok and op.ok:
            self._fail(op, f"check failed: {what} {detail}".strip())
        return ok

    def _fail(self, op, message):
        op.ok = False
        self.failed += 1
        self.messages.append(f"{op.label}: {message}")


@dataclass
class Op:
    label: str
    result: object = None
    seconds: float = 0.0
    ok: bool = True


@dataclass
class Sample:
    """What one pass over a workload's operations measured."""

    total_s: float = 0.0
    fit_s: list = field(default_factory=list)
    diagnose_s: list = field(default_factory=list)
    coef_rmse: float = None
    # Peak RSS of the process read right after the fit, before any predict
    # or diagnose call can raise it.
    peak_rss_mb: float = None
    model: object = None


@dataclass
class Inputs:
    images: np.ndarray
    y: np.ndarray
    test: np.ndarray
    truth: np.ndarray
    structure: object
    padded: tuple
    paths: dict = None


def _rel_close(value, expected, rtol):
    return abs(value - expected) <= rtol * abs(expected)


def _simulate(dims, n, n_test, family, truth, data_seed, seed):
    """The fixed instance for ``data_seed``, samples reordered by ``seed``."""
    images = harness.gen_images(n, dims, data_seed)
    y = harness.gen_responses(images, truth, family, 1.0, data_seed)
    test = harness.gen_images(n_test, dims, data_seed, purpose=rng.PURPOSE_TEST_IMAGES)
    g = np.random.default_rng(seed)
    order = g.permutation(n)
    structure, padded = dkn_fit.auto_structure(dims, 1)
    return Inputs(images=images[order], y=y[order], test=test[g.permutation(n_test)],
                  truth=truth, structure=structure, padded=padded)


def linear_predictor(model, images):
    """Reference predictor from the composed coefficient, independent of
    the package's vectorized predict path."""
    coeff = model.coefficient()
    eta = images.reshape(images.shape[0], -1) @ coeff.reshape(-1)
    return eta + model.intercept


def _check_predictions(ops, op, pred, expected):
    scale = 1.0 + float(np.max(np.abs(expected)))
    err = float(np.max(np.abs(np.asarray(pred) - expected)))
    ops.check(op, "predictions match the composed coefficient", err <= 1e-9 * scale,
              f"(max abs error {err:.3g})")


def _check_fit_report(ops, op, report, ref, rtol, label=""):
    """``report`` is a FitReport's ``to_dict()`` or the CLI's fit_report.json.

    With ``ref["sweeps_exact"]`` the sweep count must equal the reference;
    otherwise it may not exceed it, so that a fit that converges sooner
    passes."""
    sweeps, expected = report["sweeps"], ref["sweeps"]
    if ref.get("sweeps_exact"):
        ops.check(op, f"{label}sweeps", sweeps == expected, f"({sweeps} != {expected})")
    else:
        ops.check(op, f"{label}sweeps", sweeps <= expected, f"({sweeps} > {expected})")
    ops.check(op, f"{label}converged", report["converged"] == ref["converged"])
    obj = report["objective_trace"][-1]
    ops.check(op, f"{label}final objective", _rel_close(obj, ref["objective"], rtol),
              f"({obj!r} vs {ref['objective']!r})")


def _check_rmse(ops, op, rmse, ref):
    ops.check(op, "coef_rmse", _rel_close(rmse, ref["coef_rmse"], ref["coef_rmse_rtol"]),
              f"({rmse!r} vs {ref['coef_rmse']!r})")


class InMemory:
    """Shared shape of the two in-memory workloads: a fit, then predict and
    diagnose calls on the held-out images."""

    name = None
    dims = None
    family = None
    n = 1000
    n_test = 1000
    setup_repeats = 10
    # Whether the workload's pass includes one predict after the fit.
    pass_predicts = False

    def setup(self, seed):
        ref = REFERENCE[self.name]
        truth = harness.gen_signal(harness.SignalSpec(), self.dims)
        return _simulate(self.dims, self.n, self.n_test, self.family, truth,
                         ref["data_seed"], seed)

    @staticmethod
    def write(d, workdir):
        pass

    def fit(self, d):
        raise NotImplementedError

    def check_fit(self, ops, op, ref):
        raise NotImplementedError

    def run_pass(self, d, ops):
        ref = REFERENCE[self.name]
        s = Sample()
        op = ops.run("fit", self.fit, d)
        s.peak_rss_mb = peak_rss_mb()
        s.fit_s.append(op.seconds)
        s.total_s += op.seconds
        if not op.ok:
            return s
        model = self.check_fit(ops, op, ref)
        s.model = model
        s.coef_rmse = harness.rmse_coeff(model, d.truth)
        _check_rmse(ops, op, s.coef_rmse, ref)
        if self.pass_predicts:
            s.total_s += self.timed_calls(d, model, ops)["predict"]().seconds
        return s

    def timed_calls(self, d, model, ops):
        ref = REFERENCE[self.name]
        expected = linear_predictor(model, d.test)
        if self.family == "bernoulli":
            expected = 1.0 / (1.0 + np.exp(-expected))

        def predict():
            op = ops.run("predict", dkn_fit.predict, model, d.test)
            if op.ok:
                _check_predictions(ops, op, op.result, expected)
            return op

        def diagnose():
            op = ops.run("diagnose", self.diagnose, model, d)
            if op.ok:
                ops.check(op, "probe_rip delta_hat",
                          _rel_close(op.result.delta_hat, ref["delta_hat"], 1e-9),
                          f"({op.result.delta_hat!r} vs {ref['delta_hat']!r})")
            return op

        return {"predict": predict, "diagnose": diagnose}

    @staticmethod
    def diagnose(model, d):
        """The in-process diagnostics a user runs on a fitted model: its
        identifiability, and the RIP constant probed on the held-out images."""
        diagnostics.identifiability_check(model)
        return diagnostics.probe_rip(d.test, d.structure, n_probes=RIP_PROBES, seed=0)


class FitGauss128(InMemory):
    name = "fit_gauss_128"
    dims = (128, 128)
    family = "gaussian"
    pass_predicts = True

    def fit(self, d):
        return dkn_fit.fit(d.images, d.y, d.structure, family=self.family, padded_from=d.padded)

    def check_fit(self, ops, op, ref):
        model, report = op.result
        _check_fit_report(ops, op, report.to_dict(), ref, ref["objective_rtol"])
        return model


class ScanBern32(InMemory):
    name = "scan_bern_32"
    dims = (32, 32)
    family = "bernoulli"
    setup_repeats = 30

    def fit(self, d):
        return dkn_fit.scan_rank(d.images, d.y, d.structure, [1, 2, 3], family=self.family,
                                 padded_from=d.padded)

    def check_fit(self, ops, op, ref):
        scan = op.result
        ops.check(op, "best rank", scan.best_rank == ref["best_rank"],
                  f"({scan.best_rank} != {ref['best_rank']})")
        for rank, rep_ref in ref["ranks"].items():
            _check_fit_report(ops, op, scan.reports[int(rank)].to_dict(), rep_ref,
                              ref["objective_rtol"], f"rank {rank} ")
        return scan.best_model


def _cube_truth(dims, lo, hi):
    truth = np.zeros(dims)
    truth[tuple(slice(lo, hi) for _ in dims)] = 1.0
    return truth


def _write_csv(path, header, values):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i, v in enumerate(values):
            w.writerow((i, repr(float(v))))


def _read_pred_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([float(v) for _, v in rows[1:]])


class CliDiagnose16Cube:
    """``dkn fit``, ``dkn predict`` and ``dkn diagnose`` on files on disk.

    The truth is ones on the dyadic-aligned cube [4:8)^3, a single Kronecker
    chain of 2x2x2 factors, so ``diagnose`` runs its full path: RIP probe,
    initialization distance, tau0 probe, constants and the traced refit.
    ``dkn simulate`` only makes 2-D circle truths, which are not Kronecker
    rank-1, and ``diagnose`` stops early on them.
    """

    name = "cli_diagnose_16cube"
    dims = (16, 16, 16)
    n = 500
    n_test = 125
    probes = 50
    setup_repeats = 30

    def setup(self, seed):
        ref = REFERENCE[self.name]
        truth = _cube_truth(self.dims, 4, 8)
        return _simulate(self.dims, self.n, self.n_test, "gaussian", truth, ref["data_seed"], seed)

    @staticmethod
    def write(d, workdir):
        """Write the inputs as DKT1 files and a CSV.  This is not part of
        ``setup_s``: on a 2-core VM with an ext4 disk, creating these 625 small
        files took from 0.03 to 0.3 s, changing from minute to minute, which
        would swamp the set-up time."""
        root = os.path.join(workdir, "data")
        shutil.rmtree(root, ignore_errors=True)
        p = {k: os.path.join(root, v) for k, v in [
            ("train", "train"), ("test", "test"), ("y", "y.csv"), ("truth", "truth.dkt"),
            ("model", "model"), ("pred", "pred.csv"), ("diag", "diagnosis.json")]}
        for key, images in (("train", d.images), ("test", d.test)):
            os.makedirs(p[key])
            for i, img in enumerate(images):
                tensor_core.write_dkt(os.path.join(p[key], f"img_{i:05d}.dkt"), img)
        _write_csv(p["y"], ["id", "y"], d.y)
        tensor_core.write_dkt(p["truth"], d.truth)
        d.paths = p

    def _command(self, ops, label, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            op = ops.run(label, cli.main, argv)
        if op.ok:
            ops.check(op, "exit code 0", op.result == 0, f"(got {op.result}): {out.getvalue().strip()}")
        return op

    def _fit(self, d, ops):
        ref = REFERENCE[self.name]
        p = d.paths
        op = self._command(ops, "dkn fit", [
            "fit", "--images", p["train"], "--y", p["y"], "--out", p["model"], "--seed", "0"])
        if op.ok:
            with open(os.path.join(p["model"], "fit_report.json")) as fh:
                _check_fit_report(ops, op, json.load(fh), ref, ref["objective_rtol"])
        return op

    def run_pass(self, d, ops):
        """One ``dkn fit``, one ``dkn predict`` and one ``dkn diagnose``."""
        ref = REFERENCE[self.name]
        p = d.paths
        s = Sample()
        op = self._fit(d, ops)
        s.peak_rss_mb = peak_rss_mb()
        s.total_s += op.seconds
        if not op.ok:
            return s
        s.fit_s.append(op.seconds)
        model = dkn_fit.load_model(p["model"])
        s.model = model
        s.coef_rmse = harness.rmse_coeff(model, d.truth)
        _check_rmse(ops, op, s.coef_rmse, ref)

        op = self.timed_calls(d, model, ops)["predict"]()
        s.total_s += op.seconds
        if not op.ok:
            return s

        op = self._command(ops, "dkn diagnose", [
            "diagnose", "--model", p["model"], "--images", p["train"], "--y", p["y"],
            "--truth", p["truth"], "--probes", str(self.probes), "--out", p["diag"]])
        s.total_s += op.seconds
        if op.ok:
            with open(p["diag"]) as fh:
                diag = json.load(fh)
            ops.check(op, "constants written", diag.get("constants") is not None, str(diag.get("notes")))
            ops.check(op, "decay_verdict written", diag.get("decay_verdict") is not None)
            delta = diag.get("delta_hat")
            ops.check(op, "delta_hat", delta is not None and _rel_close(delta, ref["delta_hat"], 1e-9),
                      f"({delta!r} vs {ref['delta_hat']!r})")
        if op.ok:
            s.diagnose_s.append(op.seconds)
        return s

    def timed_calls(self, d, model, ops):
        """``dkn fit`` (which rewrites the same model) and ``dkn predict``;
        ``dkn diagnose`` takes seconds, so the passes time it."""
        p = d.paths
        in_memory = dkn_fit.predict(model, d.test)
        expected = linear_predictor(model, d.test)
        argv = ["predict", "--model", p["model"], "--images", p["test"], "--out", p["pred"]]

        def predict():
            op = self._command(ops, "dkn predict", argv)
            if op.ok:
                pred = _read_pred_csv(p["pred"])
                err = float(np.max(np.abs(pred - in_memory)))
                ops.check(op, "pred.csv agrees with in-memory predict",
                          err <= 1e-12 * (1.0 + float(np.max(np.abs(in_memory)))),
                          f"(max abs error {err:.3g})")
                _check_predictions(ops, op, pred, expected)
            return op

        return {"fit": lambda: self._fit(d, ops), "predict": predict}


WORKLOADS = {w.name: w for w in (FitGauss128, ScanBern32, CliDiagnose16Cube)}
