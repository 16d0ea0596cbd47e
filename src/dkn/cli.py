"""The ``dkn`` command line: simulate, fit, predict, scan-rank, diagnose.

All outputs are deterministic functions of the inputs and the seed: JSON
reports carry no timing fields, JSON and DKT1 files are read and written
by ``tensor_core``, and CSV floats use shortest round-trip formatting.
Repeating a command with identical inputs reproduces every output byte
for byte.

Exit codes: 0 on success, 2 on validation errors (bad arguments, malformed
files, mismatched extents), 3 on solver failures (singular systems, a layer
solve that does not converge, degenerate data).  A fit that stops at
``--max-sweeps`` before reaching ``--tol`` is not a failure: ``fit`` and
``scan-rank`` still exit 0, write its report (``converged`` false), and
print one line on standard error per such rank.
"""

import argparse
import csv
import glob as globmod
import os
import re
import sys
from dataclasses import asdict

import numpy as np

from . import rng
from .diagnostics import (
    identifiability_check,
    measure_mu,
    probe_rip,
    probe_tau0,
    theory_constants,
    verify_decay,
)
from .dkn_fit import (
    FitOptions,
    _inner_products,
    _parse_structure,
    fit,
    load_model,
    pad_images,
    predict,
    save_model,
    scan_rank,
)
from .errors import (
    ConvergenceError,
    DataFormatError,
    DegenerateDataError,
    DimensionError,
    RankDeficiencyError,
)
from .glm import get_family
from .harness import ExperimentConfig, _draw, _metadata, _structure_for
from .kron_ops import compose_coeff, conv_chain_eval, kron_chain, reshape_T, reshape_R, tkp
from .tensor_core import _dkt_extents, _read_json, _write_json, fro_norm, inner, read_dkt
from .tensor_core import read_dkt_stack, vec, write_dkt

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3

_VALIDATION_ERRORS = (DimensionError, DataFormatError, ValueError, OSError)
_SOLVER_ERRORS = (RankDeficiencyError, ConvergenceError, DegenerateDataError)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row)


def _fmt(v):
    return repr(float(v))


def _id_range(path, ids):
    """``range(n)`` for the n distinct ``ids``, which must be 0..n-1."""
    n = len(ids)
    if sorted(ids) != list(range(n)):
        missing = min(set(range(n)) - set(ids))
        raise DataFormatError(f"{path}: ids must cover 0..{n - 1} exactly, {missing} is missing")
    return range(n)


_IMAGE_NAME = re.compile(r"img_([0-9]+)\.dkt")


def _image_paths(path):
    """The paths of the images ``img_<id>.dkt`` under ``path``, image i's
    at index i.  Ids are decimal, with any zero-padding, and must cover
    0..n-1 exactly, as ``y.csv``'s do, so image i pairs with response row i."""
    files = globmod.glob(os.path.join(path, "img_*.dkt"))
    if not files:
        raise DataFormatError(f"no img_*.dkt files under {path}")
    by_id = {}
    for f in sorted(files):
        match = _IMAGE_NAME.fullmatch(os.path.basename(f))
        if match is None:
            raise DataFormatError(f"{f}: image file names must be img_<decimal id>.dkt")
        i = int(match.group(1))
        if i in by_id:
            raise DataFormatError(f"{f}: id {i} is taken by {by_id[i]} as well")
        by_id[i] = f
    return [by_id[i] for i in _id_range(path, by_id)]


def _load_images_dir(path):
    """The images under ``path`` (:func:`_image_paths`) as one stack, image
    i at row i."""
    return read_dkt_stack(_image_paths(path))


def _load_response_csv(path, column="y"):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        if header != ["id", column]:
            raise DataFormatError(f"{path}: expected header 'id,{column}', got {header}")
        values = {}
        for row in reader:
            if len(row) != 2:
                raise DataFormatError(f"{path}: malformed row {row}")
            try:
                i, v = int(row[0]), float(row[1])
            except ValueError:
                raise DataFormatError(f"{path}: malformed row {row}") from None
            if i in values:
                raise DataFormatError(f"{path}: duplicate id {i}")
            values[i] = v
    return np.array([values[i] for i in _id_range(path, values)])


def _write_images_dir(path, images):
    os.makedirs(path, exist_ok=True)
    for i, img in enumerate(images):
        write_dkt(os.path.join(path, f"img_{i:05d}.dkt"), img)


def cmd_simulate(args):
    try:
        cfg = ExperimentConfig.from_dict(_read_json(args.config))
    except (TypeError, AttributeError) as exc:
        raise DataFormatError(f"{args.config}: {exc}") from None
    os.makedirs(args.out, exist_ok=True)

    coeff, (x, y), test = _draw(cfg, cfg.seed, cfg.n_test)
    write_dkt(os.path.join(args.out, "truth.dkt"), coeff)
    _write_images_dir(os.path.join(args.out, "images"), x)
    _write_csv(os.path.join(args.out, "y.csv"), ["id", "y"],
               [(i, _fmt(v)) for i, v in enumerate(y)])
    if test is not None:
        _write_images_dir(os.path.join(args.out, "test_images"), test[0])
        _write_csv(os.path.join(args.out, "y_test.csv"), ["id", "y"],
                   [(i, _fmt(v)) for i, v in enumerate(test[1])])
    echo, metadata = cfg.to_dict(), _metadata(cfg)
    if metadata:
        echo["metadata"] = metadata
    _write_json(os.path.join(args.out, "config.json"), echo)
    print(f"simulate: wrote {cfg.n_train} train + {cfg.n_test} test images to {args.out}")
    return EXIT_OK


def _resolve_structure(image_dims, args, rank):
    if args.structure == "auto":
        return _structure_for(image_dims, rank if rank else 1, args.depth)
    if args.depth is not None:
        raise DimensionError("--depth applies only to --structure auto, not to a structure file")
    structure = _parse_structure(_read_json(args.structure), args.structure, rank)
    if structure.image_dims != tuple(image_dims):
        raise DimensionError(
            f"structure file extents {structure.image_dims} do not match "
            f"the images' {tuple(image_dims)}"
        )
    return structure, None


def _fit_options(args, center):
    return FitOptions(
        max_sweeps=args.max_sweeps,
        tol=args.tol,
        ridge=args.ridge,
        center_response=center,
        seed=args.seed,
    )


def _parse_ranks(text):
    try:
        ranks = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise DimensionError(f"--ranks expects comma-separated integers, got {text!r}") from None
    if not ranks:
        raise DimensionError("--ranks is empty")
    return ranks


def cmd_fit(args):
    """Fit on the image directory read block by block into the solver stack
    (``dkn_fit`` reads the files' paths), never as one image array; the
    model directory is made only once the fit has returned."""
    paths = _image_paths(args.images)
    y = _load_response_csv(args.y)
    if y.shape[0] != len(paths):
        raise DimensionError(
            f"{args.y} has {y.shape[0]} rows but {args.images} has {len(paths)} images"
        )
    center = args.family == "gaussian" and not args.no_center
    scanning = args.rank == "scan"
    if scanning:
        ranks = _parse_ranks(args.ranks)
        base_rank = min(ranks)
    elif args.rank is None:
        base_rank = None  # defer to the structure file, default 1
    else:
        try:
            base_rank = int(args.rank)
        except ValueError:
            raise DimensionError(f"--rank expects an integer or 'scan', got {args.rank!r}") from None
    structure, padded_from = _resolve_structure(_dkt_extents(paths), args, base_rank)
    if not scanning:
        ranks = [structure.rank]
    options = _fit_options(args, center)

    scan = scan_rank(paths, y, structure, ranks, family=args.family,
                     options=options, padded_from=padded_from)
    save_model(scan.best_model, args.out)  # makes the directory
    report = scan.reports[scan.best_rank]
    _write_json(os.path.join(args.out, "fit_report.json"), report.to_dict(include_timing=False))
    if scanning:
        _write_json(os.path.join(args.out, "scan_report.json"),
                    scan.to_dict(include_timing=False))
        print(f"fit: scanned ranks {ranks}, selected rank {scan.best_rank} "
              f"(bic {scan.bic_table[scan.best_rank]:.6g}), model in {args.out}")
    else:
        print(f"fit: rank {structure.rank}, {report.sweeps} sweeps, "
              f"converged={report.converged}, model in {args.out}")
    for rank, rep in sorted(scan.reports.items()):
        if not rep.converged:
            print(f"dkn {args.command}: rank {rank} did not converge: {rep.sweeps} sweeps, "
                  f"final_rel_change {rep.final_rel_change:.6g} (tol {args.tol:g})",
                  file=sys.stderr)
    return EXIT_OK


def cmd_predict(args):
    model = load_model(args.model)
    images = _load_images_dir(args.images)
    pred = predict(model, images)
    _write_csv(args.out, ["id", "pred"], [(i, _fmt(v)) for i, v in enumerate(pred)])
    print(f"predict: wrote {pred.shape[0]} predictions to {args.out}")
    return EXIT_OK


def cmd_scan_rank(args):
    args.rank = "scan"
    return cmd_fit(args)


def _identity_suites(instances, seed):
    """Random-instance checks of the package's composition identities."""
    g = rng.stream(seed, rng.PURPOSE_PROBE, 0)
    worst_r = 0.0
    for _ in range(instances):
        sa = tuple(int(e) for e in g.integers(1, 4, size=3))
        sb = tuple(int(e) for e in g.integers(1, 4, size=3))
        a, b = g.standard_normal(sa), g.standard_normal(sb)
        lhs = reshape_R(tkp(a, b), sa)
        rhs = np.outer(vec(a), vec(b))
        worst_r = max(worst_r, float(np.max(np.abs(lhs - rhs))))

    g = rng.stream(seed, rng.PURPOSE_PROBE, 1)
    worst_conv = 0.0
    for _ in range(instances):
        depth = int(g.integers(2, 5))
        hi = 3 if depth <= 3 else 2
        chain = [g.standard_normal(tuple(int(e) for e in g.integers(1, hi + 1, size=3)))
                 for _ in range(depth)]
        c = kron_chain(chain)
        x = g.standard_normal(c.shape)
        via_conv = conv_chain_eval(x, chain)
        via_inner = inner(x, c)
        worst_conv = max(
            worst_conv, abs(via_conv - via_inner) / max(1.0, abs(via_inner))
        )

    worst_cp = 0.0
    cp_count = 0
    for case, (rank, depth) in enumerate([(r, L) for r in (1, 2, 3) for L in (2, 3)]):
        g = rng.stream(seed, rng.PURPOSE_PROBE, 2, case)
        fd = [tuple(int(e) for e in g.integers(1, 4, size=3)) for _ in range(depth)]
        terms = [[g.standard_normal(f) for f in fd] for _ in range(rank)]
        t = reshape_T(compose_coeff(terms), fd)
        cp = np.zeros(t.shape)
        for chain in terms:
            acc = vec(chain[0])
            for f in chain[1:]:
                acc = np.multiply.outer(acc, vec(f))
            cp = cp + acc
        worst_cp = max(worst_cp, float(np.max(np.abs(t - cp))))
        cp_count += 1

    suites = {
        "kron_rank1_reshape": {
            "instances": instances, "max_abs_error": worst_r,
            "tolerance": 1e-12, "passed": bool(worst_r <= 1e-12),
        },
        "conv_chain_inner_product": {
            "instances": instances, "max_rel_error": worst_conv,
            "tolerance": 1e-10, "passed": bool(worst_conv <= 1e-10),
        },
        "cp_regrouping": {
            "instances": cp_count, "max_abs_error": worst_cp,
            "tolerance": 1e-12, "passed": bool(worst_cp <= 1e-12),
        },
    }
    return {"suites": suites, "passed": bool(all(s["passed"] for s in suites.values()))}


def cmd_check_equivalence(args):
    if args.instances < 1:
        raise DimensionError(f"--instances must be >= 1, got {args.instances}")
    report = _identity_suites(args.instances, args.seed)
    _write_json(args.out, report)
    if not report["passed"]:
        print("check-equivalence: FAILED", file=sys.stderr)
        return EXIT_SOLVER
    if args.out:
        print(f"check-equivalence: all suites passed, report in {args.out}")
    return EXIT_OK


def cmd_diagnose(args):
    model = load_model(args.model)
    structure = model.structure
    images = _load_images_dir(args.images)
    y = _load_response_csv(args.y)
    if y.shape[0] != images.shape[0]:
        raise DimensionError(
            f"{args.y} has {y.shape[0]} rows but {args.images} has {images.shape[0]} images"
        )

    probe = probe_rip(images, structure, n_probes=args.probes, seed=args.seed,
                      padded_from=model.padded_from)
    result = {
        "delta_hat": probe.delta_hat,
        "constants": None,
        "condition_met": None,
        "decay_verdict": None,
        "identifiability": identifiability_check(model).to_dict(),
        "notes": [],
    }
    note = _diagnose_theory(args, model, images, y, probe.delta_hat, result)
    if note is not None:
        result["notes"].append(note)
    _write_json(args.out, result)
    if args.out:
        print(f"diagnose: report in {args.out}")
    return EXIT_OK


def _diagnose_theory(args, model, images, y, delta_hat, result):
    """Fill ``result`` with the contraction constants and the traced refit's
    decay verdict; return the note that says why not, where a step is out
    of reach, else None."""
    structure = model.structure
    if args.truth is None:
        return "no --truth given: contraction constants not evaluated"
    truth = read_dkt(args.truth)
    if model.padded_from is not None and truth.shape == tuple(model.padded_from):
        truth = pad_images(truth[None], model.padded_from, structure.image_dims)[0]
    if truth.size != structure.n_voxels:
        raise DimensionError(
            f"truth has {truth.size} entries, images have {structure.n_voxels}"
        )
    if delta_hat >= 1.0 / 3.0:
        return f"probed delta {delta_hat:.3f} >= 1/3: theory out of range"
    if structure.rank != 1:
        return "initialization distance is measured for rank-1 structures only"

    try:
        mu = measure_mu(images, y, truth, structure, model.padded_from)
    except DegenerateDataError as exc:
        return f"initialization distance unavailable: {exc}"
    t3 = np.asarray(truth, dtype=np.float64).reshape(structure.dims3, order="F")
    eta = _inner_products(images, t3, structure, model.padded_from)
    noise = y - get_family(model.family).mean(eta)
    tau0 = probe_tau0(images, noise, structure, n_probes=args.probes, seed=args.seed,
                      padded_from=model.padded_from)
    constants = theory_constants(delta_hat, mu, tau0, fro_norm(truth), structure.depth)
    result["constants"] = asdict(constants)
    result["condition_met"] = constants.condition_met

    refit_options = FitOptions(seed=args.seed, trace_truth=t3, center_response=False)
    _, report = fit(images, y, structure, family=model.family, options=refit_options,
                    padded_from=model.padded_from)
    verdict = verify_decay(report.dist_trace, constants, t_start=1)
    result["decay_verdict"] = verdict.to_dict()
    return None


def _add_fit_arguments(p):
    p.add_argument("--images", required=True, help="directory of img_*.dkt files")
    p.add_argument("--y", required=True, help="CSV of responses with header id,y")
    p.add_argument("--structure", default="auto",
                   help="'auto' or a JSON file with image_dims/factor_dims/rank")
    p.add_argument("--family", choices=["gaussian", "bernoulli"], default="gaussian")
    p.add_argument("--out", required=True, help="output model directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-sweeps", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--ridge", type=float, default=None,
                   help="fixed ridge penalty; default scales with the design")
    p.add_argument("--depth", type=int, default=None,
                   help="with --structure auto, merge top layers down to this depth")
    p.add_argument("--no-center", action="store_true",
                   help="do not center a gaussian response before fitting")
    p.add_argument("--ranks", default="1,2,3",
                   help="comma-separated candidate ranks for scanning")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dkn",
        description="Kronecker-factored scalar-on-image GLM regression",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset from a config")
    p.add_argument("--config", required=True, help="JSON experiment configuration")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit a factorized coefficient model")
    _add_fit_arguments(p)
    p.add_argument("--rank", default=None,
                   help="term count (default: the structure file's rank, else 1), "
                        "or 'scan' to select by BIC")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("scan-rank", help="fit candidate ranks and keep the BIC best")
    _add_fit_arguments(p)
    p.set_defaults(func=cmd_scan_rank)

    p = sub.add_parser("predict", help="predict responses for new images")
    p.add_argument("--model", required=True, help="model directory from fit")
    p.add_argument("--images", required=True, help="directory of img_*.dkt files")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("check-equivalence",
                       help="verify the composition identities on random instances")
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_check_equivalence)

    p = sub.add_parser("diagnose", help="probe design constants and check the theory")
    p.add_argument("--model", required=True, help="model directory from fit")
    p.add_argument("--images", required=True, help="directory of img_*.dkt files")
    p.add_argument("--y", required=True, help="CSV of responses with header id,y")
    p.add_argument("--truth", default=None, help="DKT1 file with the true coefficient")
    p.add_argument("--probes", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_diagnose)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _SOLVER_ERRORS as exc:
        print(f"dkn {args.command}: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except _VALIDATION_ERRORS as exc:
        print(f"dkn {args.command}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
