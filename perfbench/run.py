#!/usr/bin/env python3
"""Benchmark of the dkn library and CLI.

    python3 perfbench/run.py --workload fit_gauss_128 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from anywhere; the benchmark imports ``dkn`` from the ``src/`` directory
next to ``perfbench/`` and never from an installed copy, and exits with
code 2 when that source tree is missing.  Each workload runs in its own
fresh process.  ``--trace 0`` measures the end-to-end metrics with tracing
off; ``--trace 1`` makes the separate traced run that gives the per-layer
metrics and the tracing overhead.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for what each workload and metric is for.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

# Pin BLAS to one thread before numpy loads: the machine may have as few as
# two cores, and a single thread keeps run-to-run spread low.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
DESIGN_REPEATS = 3
COPY_REPEATS = 5
# How long one kind of timed call repeats before the next kind takes its turn.
SLICE_SECONDS = 0.5

WORKLOAD_NAMES = ("fit_gauss_128", "scan_bern_32", "cli_diagnose_16cube")
END_TO_END = {
    "setup_s": "s", "total_s": "s", "fit_s": "s", "predict_img_per_s": "1/s",
    "diagnose_s": "s", "peak_rss_mb": "MB", "coef_rmse": "rmse",
}


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _git_sha():
    """Commit of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _l3_bytes():
    """Largest level-3 cache size the kernel reports for cpu0, or None."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = os.listdir(base)
    except OSError:
        return None
    for entry in sorted(entries):
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                if fh.read().strip() != "3":
                    continue
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
        return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
    return None


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    l3 = _l3_bytes()
    return {
        "git_sha": _git_sha(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "l3_mb": round(l3 / (1 << 20), 1) if l3 else None,
    }


def call_round(calls, times):
    """One round of the workload's timed calls: each kind in turn calls for
    SLICE_SECONDS (at least once).  The first call of each kind in the run is
    a warm-up and is not timed.  Returns False at the first failed call."""
    for kind, call in calls.items():
        end = time.perf_counter() + SLICE_SECONDS
        while True:
            op = call()
            if not op.ok:
                return False
            if kind in times:
                times[kind].append(op.seconds)
            else:
                times[kind] = []
            if time.perf_counter() >= end:
                break
    return True


def timed_run(wl, seed, seconds, workdir):
    """End-to-end metrics with tracing off: the median of the workload's
    set-ups; then passes over its operations, each followed by one round of
    the timed calls, until one more pass and round would overrun ``seconds``
    (always at least one); then more rounds until ``seconds`` are up, and at
    least two in all.  Spreading the timed calls over the whole run makes
    their medians sample the same stretch of the machine's drifting speed as
    the passes do."""
    from workloads import Ops

    setups = []
    inputs = None
    for _ in range(wl.setup_repeats):
        inputs = None
        t0 = time.perf_counter()
        inputs = wl.setup(seed)
        setups.append(time.perf_counter() - t0)
    wl.write(inputs, workdir)
    ops = Ops()
    samples, times = [], {}
    rounds = 0
    start = time.perf_counter()
    while True:
        samples.append(wl.run_pass(inputs, ops))
        if ops.failed:
            break
        calls = wl.timed_calls(inputs, samples[-1].model, ops)
        samples[-1].model = None
        if not call_round(calls, times):
            break
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 1 / len(samples)) > seconds:
            break
    while not ops.failed and (rounds < 2 or time.perf_counter() - start < seconds):
        if not call_round(calls, times):
            break
        rounds += 1
    predict_s = _median(times.get("predict", []))
    values = {
        "setup_s": _median(setups),
        "total_s": _median([s.total_s for s in samples]),
        "fit_s": _median([t for s in samples for t in s.fit_s] + times.get("fit", [])),
        "predict_img_per_s": wl.n_test / predict_s if predict_s else None,
        "diagnose_s": _median([t for s in samples for t in s.diagnose_s]
                              + times.get("diagnose", [])),
        "peak_rss_mb": samples[0].peak_rss_mb,
        "coef_rmse": _median([s.coef_rmse for s in samples]),
    }
    info = {"passes": len(samples), "setups": len(setups), "rounds": rounds,
            "timed_calls": {kind: len(t) for kind, t in times.items()},
            "fail_rate": ops.failed / ops.attempted}
    return ops, {k: (values[k], u) for k, u in END_TO_END.items()}, info


def canonical_rows(images):
    """Images as rows of canonical (column-major) vecs, the layout that
    ``build_design`` accepts without copying."""
    import numpy as np

    axes = (0,) + tuple(range(images.ndim - 1, 0, -1))
    return np.ascontiguousarray(images.transpose(axes)).reshape(images.shape[0], -1)


def design_probe(model, images):
    """Direct calls to ``build_design``, one per layer, at the fitted model's
    partial products; the median over repeats of their summed time."""
    from dkn import dkn_fit, tensor_core

    import numpy as np

    rows = canonical_rows(images)
    if not np.array_equal(rows[0], tensor_core.vec(images[0])):
        raise RuntimeError("canonical_rows disagrees with tensor_core.vec")
    structure = model.structure
    args = [(l, dkn_fit.partial_products(model, l + 1, "left"),
             dkn_fit.partial_products(model, l - 1, "right"))
            for l in range(1, structure.depth + 1)]
    totals = []
    for _ in range(DESIGN_REPEATS):
        total = 0.0
        for l, left, right in args:
            t0 = time.perf_counter()
            dkn_fit.build_design(rows, structure, l, left, right)
            total += time.perf_counter() - t0
        totals.append(total)
    return statistics.median(totals), rows.nbytes


def copy_probe(l3_mb):
    """Sustained copy rate on arrays at least four times the L3 cache."""
    import numpy as np

    size_mb = max(4 * (l3_mb or 64), 256)
    src = np.ones(int(size_mb * (1 << 20)) // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(COPY_REPEATS):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return src.nbytes / 1e9 / statistics.median(times), src.nbytes / (1 << 20)


def traced_run(wl, seed, workdir, env, trace_path):
    """Per-layer metrics: one untraced pass as the overhead base; then,
    traced, one set-up, file write and pass followed by one call of each of
    the workload's timed calls; then the build_design and copy probes."""
    from spans import LAYERS, Tracer, summarize
    from workloads import Ops

    ops = Ops()
    inputs = wl.setup(seed)
    wl.write(inputs, workdir)
    base_total = wl.run_pass(inputs, ops).total_s
    inputs = None
    tracer = Tracer()
    with tracer:
        inputs = wl.setup(seed)
        wl.write(inputs, workdir)
        sample = wl.run_pass(inputs, ops)
        if sample.model is not None and not ops.failed:
            for call in wl.timed_calls(inputs, sample.model, ops).values():
                call()
    if sample.model is None or ops.failed:
        return ops, {}, {}
    build_design_s, stack_bytes = design_probe(sample.model, inputs.images)
    traced_total = sample.total_s
    inputs = sample = None
    copy_gb_s, copy_mb = copy_probe(env["l3_mb"])

    per_fn, per_layer, fit_self, fit_wall = summarize(tracer.spans)
    counts = tracer.counts
    sweeps = counts["dkn_fit.sweeps"]

    def calls(name):
        return per_fn.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return per_fn.get(name, (0, 0.0, 0.0))[2]

    m = {
        "dkn_fit.self_s": (fit_self, "s"),
        "dkn_fit.self_share": (fit_self / fit_wall if fit_wall else 0.0, "ratio"),
        "dkn_fit.build_design_s": (build_design_s, "s"),
        "dkn_fit.sweeps": (sweeps, "count"),
        "dkn_fit.sweep_ms": (1000 * per_fn["dkn_fit.fit"][1] / sweeps if sweeps else 0.0, "ms"),
        "dkn_fit.predict.self_s": (self_s("dkn_fit.predict"), "s"),
        "dkn_fit.design_x_passes": (build_design_s * copy_gb_s / (stack_bytes / 1e9), "passes"),
        "glm.fit_glm.calls": (calls("glm.fit_glm"), "count"),
        "glm.fit_glm.self_s": (self_s("glm.fit_glm"), "s"),
        "glm.irls_iters": (counts["glm.irls_iters"], "count"),
        "glm.nll_eta.self_s": (self_s("glm.nll_eta"), "s"),
    }
    for name in ("kron_ops.tkp", "kron_ops.reshape_R_indices", "kron_ops.compose_coeff",
                 "tensor_core.read_dkt", "tensor_core.write_dkt"):
        m[name + ".calls"] = (calls(name), "count")
        m[name + ".self_s"] = (self_s(name), "s")
    for name in ("tensor_core.read_dkt", "tensor_core.write_dkt"):
        m[name + ".mb"] = (counts[name + ".mb"], "MB")
    for name in ("diagnostics.probe_tau0", "diagnostics.probe_rip", "diagnostics.measure_mu",
                 "harness.gen_images"):
        m[name + ".self_s"] = (self_s(name), "s")
    for command in ("fit", "predict", "diagnose"):
        m[f"cli.{command}.self_s"] = (self_s(f"cli.cmd_{command}"), "s")
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (per_layer[layer], "s")
    m["trace.total_s"] = (traced_total, "s")
    m["trace.untraced_total_s"] = (base_total, "s")
    # Environment and diagnostic figures: printed and kept in the span file,
    # but not metrics with a better direction.
    info = {
        "machine": {"copy_gb_s": copy_gb_s, "copy_array_mb": copy_mb, "l3_mb": env["l3_mb"],
                    "stack_mb": stack_bytes / 1e6},
        "trace_overhead_pct": 100.0 * (traced_total / base_total - 1.0),
        "spans": len(tracer.spans),
    }
    tracer.write(trace_path, {"workload": wl.name, "seed": seed, "env": env, "run": info})
    return ops, m, info


def run_one(args):
    if not os.path.isfile(os.path.join(SRC, "dkn", "__init__.py")):
        print(f"perfbench: no dkn sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import dkn

    if os.path.dirname(os.path.abspath(dkn.__file__)) != os.path.join(SRC, "dkn"):
        print(f"perfbench: imported dkn from {dkn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    assert tuple(WORKLOADS) == WORKLOAD_NAMES
    wl = WORKLOADS[args.workload]()
    # Turn SIGTERM into SystemExit so that the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = environment()
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
            ops, metrics, info = traced_run(wl, args.seed, workdir, env, trace_path)
            if info:
                info["span_file"] = os.path.relpath(trace_path, ROOT)
        else:
            ops, metrics, info = timed_run(wl, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in ops.messages:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"run {json.dumps(dict(info, workload=wl.name, seed=args.seed, trace=args.trace))}")
    for name, (value, unit) in metrics.items():
        print(f"  {wl.name:<20} {name:<36} {value!s:>24} {unit}")
    print(f"  {wl.name:<20} {'fail_rate':<36} {ops.failed:>12} / {ops.attempted:<9} ops")
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"workload": wl.name, "seed": args.seed, "trace": args.trace,
                                 "seconds": args.seconds, "env": env, "run": info,
                                 "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if ops.failed == 0 else 1


def run_all(args):
    """Every workload, each in a fresh process, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--out", args.out] if args.out else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(proc.stdout, end="")
            print(f"perfbench: {name} exited {proc.returncode} without a result", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1,
                        help="non-negative; orders the samples the program receives")
    parser.add_argument("--seconds", type=int, default=40,
                        help="measuring time per run with --trace 0")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="append a JSON record of the run to this file (see compare.py)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
