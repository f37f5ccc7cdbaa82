"""minksum benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the program is imported from src/.
Workloads (see README.md for why each exists):

  cli-cold      fresh `python -m minksum.cli` processes, one per op
  bounds-batch  bounds.volume_bounds as `minksum bounds` computes it
  volume-hires  the `minksum volume` computation, N = 2, 3, 4
  oracle-mc     oracle.monte_carlo_volume with 400,000 samples

Every workload is a closed loop with one client: one op at a time, the
next op starts when the previous one ends.  The ops of a run form a pass
sized to about 0.85 * S at the seed commit's speed; the pass repeats while
another one fits in S seconds, so every commit is measured on the same ops
and repeats must give identical bytes.  --trace 0 reports the end-to-end
metrics; --trace 1 runs every op untraced and traced back to back and
reports the per-layer metrics, the tracing overhead, and whether the
traced outputs match the untraced ones bit for bit.

The last stdout line is the result; the line before it holds the run's
metadata, the failures by reason, the condition-number shares and the
tail percentile.  Scratch files go to .perfbench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BLAS_THREADS = 1  # pinned for every process; recorded with the result
os.environ.update(
    OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
    OMP_NUM_THREADS=str(BLAS_THREADS),
    MKL_NUM_THREADS=str(BLAS_THREADS),
)

import clock  # noqa: E402  (numpy must see the pin above)
import scenes  # noqa: E402
from ops import check, cli_argv as op_cli_argv  # noqa: E402
from worker import digest, repeat_passes  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5  # set-up probes per run, the worker's own set-up included
IMPORTTIME_PROBES = 3
MIN_OPS = 21  # op_tail_ms takes ten samples beyond it; keep it above the median
OP_TIMEOUT_S = 60.0
WORKER_TIMEOUT_S = 150.0
# Ops per second of each pass at the seed commit, on a 2-CPU x86-64 box
# with one BLAS thread; a pass holds about 0.85 * --seconds of work there.
NOMINAL_OPS_PER_S = {
    "cli-cold": 0.95,
    "bounds-batch": 7.5,
    "volume-hires": 5.0,
    "oracle-mc": 1.1,
}

# Metrics a workload does not exercise are reported as 1.0 and listed
# under "not_measured" in the detail line.
ACCURACY_METRICS = {"max_rel_err": "ratio", "gauss_bonnet_err": "rad", "bound_log_gap": "log"}
PLACEHOLDER = 1.0
# K dA reduces to the quadrature weight at every node, so the Gauss-Bonnet
# residual is a sum of rounding errors (up to ~1e-11 rad on 4096 nodes at
# condition 3e3).  Residuals below this floor report as the floor, so a
# change in summation order does not read as an accuracy regression.
GAUSS_BONNET_FLOOR = 1e-10

LAYER_METRICS = (
    "spd.sym_eigen.calls", "spd.sym_eigen.self_s", "spd.SpdMatrix.calls",
    "spd.SpdMatrix.self_s", "spd.geometric_mean.self_s",
    "bounds.volume_bounds.self_s", "bounds.minvol_outer.calls",
    "bounds.minvol_outer.self_s", "bounds.best_inner_john.self_s",
    "bounds.john_inner_pair.calls", "bounds.containment_check.calls",
    "bounds.containment_check.self_s",
    "geometry.support_values.rows", "geometry.support_values.self_s",
    "geometry.boundary_points.rows", "geometry.boundary_points.self_s",
    "geometry.sum_boundary_point.calls", "geometry.scene_from_json.self_s",
    "curvature.curvature_stack.self_s", "curvature.reduced_stack.rows",
    "curvature.reduced_stack.self_s",
    "quadrature.build_quadrature.nodes", "quadrature.build_quadrature.self_s",
    "quadrature.volume_divergence.self_s", "quadrature.surface_area.self_s",
    "quadrature.gaussian_curvature_integral.self_s",
    "oracle.monte_carlo_volume.self_s",
    "steiner.area_sum_2d_recursive.self_s", "steiner.volume_sum_3d_bounds.self_s",
    "svgfig.render_scene_svg.self_s",
    "cli.boundary.self_s", "cli.volume.self_s", "cli.bounds.self_s",
    "cli.plot.self_s", "cli.oracle.self_s",
)
IMPORT_METRICS = {  # metric: module whose cumulative import time it reports
    "cli.import_s": "minksum.cli",  # includes the minksum package
    "cli.import.scipy_optimize_s": "scipy.optimize",
    "cli.import.scipy_special_s": "scipy.special",
    "cli.import.numpy_s": "numpy",
}
END_TO_END = (
    "setup_s", "op_p50_ms", "op_tail_ms", "ops_per_s", "failed_frac", "peak_rss_mb",
    *ACCURACY_METRICS,
)
PER_LAYER = (
    *LAYER_METRICS, "oracle.samples_per_s", "oracle.ambiguous_frac",
    *IMPORT_METRICS, "trace.overhead_frac", "trace.spans",
)
UNITS = {"calls": "count", "rows": "count", "nodes": "count", "self_s": "s"}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _metric(value, unit):
    return {"value": value, "unit": unit}


# --- processes --------------------------------------------------------------


def child_env(root):
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def _spawn_worker(mode, corpus_path, result_path, seconds, env):
    """Start a worker; return (process, seconds from spawn to "ready")."""
    argv = [sys.executable, str(HERE / "worker.py"), mode, str(corpus_path), str(result_path)]
    start = perf_counter()
    proc = subprocess.Popen(
        [*argv, repr(seconds)], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    ready, _, _ = select.select([proc.stdout], [], [], WORKER_TIMEOUT_S)
    line = proc.stdout.readline() if ready else b""
    elapsed = perf_counter() - start
    if line.strip() != b"ready":
        _reap(proc)
        raise BenchError(f"worker {mode} did not get ready: {proc.stderr.read().decode()[-2000:]}")
    return proc, elapsed


def _reap(proc, timeout=None):
    """Wait for a child (killing it after `timeout`) and return its stderr."""
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
    return (err or b"").decode(errors="replace")


def setup_probe(corpus_path, work, env):
    proc, elapsed = _spawn_worker("setup", corpus_path, work / "probe.json", 0.0, env)
    _reap(proc, WORKER_TIMEOUT_S)
    return elapsed


def run_worker(mode, corpus_path, work, seconds, env):
    result_path = work / f"{mode}.json"
    proc, ready_s = _spawn_worker(mode, corpus_path, result_path, seconds, env)
    err = _reap(proc, WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited {proc.returncode}: {err[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh), ready_s


def cli_op(argv, root, env, out_path):
    """One fresh CLI process: (status, stdout text, ms, peak RSS in MiB)."""
    with open(out_path, "wb") as out:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "minksum.cli", *argv],
            stdout=out, stderr=subprocess.DEVNULL, env=env, cwd=root,
        )
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        _, wait_status, usage = os.wait4(proc.pid, 0)
        ms = (perf_counter() - start) * 1e3
        killer.cancel()
    proc.returncode = code = os.waitstatus_to_exitcode(wait_status)
    status = "timeout" if code == -9 and ms >= OP_TIMEOUT_S * 1e3 else f"exit:{code}"
    return status, out_path.read_text(encoding="utf-8"), ms, usage.ru_maxrss / 1024.0


def cli_pass(corpus, root, env, work):
    """Every op once as a fresh process; the parent times the kernel before each."""
    records, start = [], perf_counter()
    for op in corpus["ops"]:
        argv = op_cli_argv(op, corpus["cases"][op["case"]]["path"])
        kernel_s = clock.calibrate()
        status, out, ms, rss = cli_op(argv, root, env, work / "stdout.txt")
        records.append({"ms": ms, "kernel_s": kernel_s, "status": status, "out": out, "rss_mb": rss})
    return records, perf_counter() - start


def cli_run(corpus, root, env, work, seconds):
    """Untraced cli-cold: passes of fresh CLI processes, like worker `run`."""
    result = repeat_passes(lambda: cli_pass(corpus, root, env, work), seconds)
    result["peak_rss_mb"] = max(r["rss_mb"] for r in result["records"] + result["repeats"])
    return result


def import_times(env):
    """Cumulative import seconds from `python -X importtime`, median of probes."""
    samples: dict = {k: [] for k in IMPORT_METRICS}
    for _ in range(IMPORTTIME_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import minksum.cli"],
            capture_output=True, env=env, timeout=WORKER_TIMEOUT_S, check=True,
        )
        cumulative = {}
        for line in proc.stderr.decode().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
        for key, module in IMPORT_METRICS.items():
            samples[key].append(cumulative.get(module, 0.0))
    return {k: statistics.median(v) for k, v in samples.items()}


# --- corpus -----------------------------------------------------------------


def pass_size(workload, seconds):
    return max(MIN_OPS, round(0.85 * seconds * NOMINAL_OPS_PER_S[workload]))


def build_corpus(workload, seed, n_ops, work):
    """Seeded cases and ops, closed-form references, cli-cold scene files."""
    from minksum import geometry, quadrature, steiner

    cases, ops = scenes.WORKLOADS[workload](seed, n_ops)
    for i, case in enumerate(cases):
        if case["dim"] == 2 and case["kind"] == "general":
            scene = geometry.scene_from_json(case["scene"])
            case["reference"] = steiner.area_sum_2d_recursive(scene)
        elif workload == "oracle-mc" and case["reference"] is None:
            # no closed form: a finer divergence quadrature, its refinement
            # delta counted as the reference's own uncertainty
            scene = geometry.scene_from_json(case["scene"])
            fine = quadrature.volume_divergence(scene, quadrature.build_quadrature(3, 128))
            coarse = quadrature.volume_divergence(scene, quadrature.build_quadrature(3, 64))
            case["reference"], case["reference_err"] = fine, abs(fine - coarse)
        if workload == "cli-cold":
            case["path"] = str(work / f"scene{i:03d}.json")
            with open(case["path"], "w", encoding="utf-8") as fh:
                json.dump(case["scene"], fh)
    corpus = {"workload": workload, "seed": seed, "cases": cases, "ops": ops}
    path = work / "corpus.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(corpus, fh)
    return corpus, path


# --- metrics ----------------------------------------------------------------


def tail(latencies):
    """Latency at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    k = len(ordered) - 10
    return ordered[k - 1], 100.0 * k / len(ordered)


def evaluate(corpus, records):
    """Check one pass of op outputs: failures by reason and metric facts."""
    failed: dict = {}
    facts = []
    for op, rec in zip(corpus["ops"], records):
        reason, fact = check(op, corpus["cases"][op["case"]], rec["status"], rec["out"])
        if reason is not None:
            failed[reason] = failed.get(reason, 0) + 1
        facts.append(fact)
    return failed, facts


def accuracy(workload, facts):
    values = {}
    if workload == "volume-hires":
        values["max_rel_err"] = max(f["rel_err"] for f in facts if "rel_err" in f)
        gb = max(f["gb_err"] for f in facts if "gb_err" in f)
        values["gauss_bonnet_err"] = max(gb, GAUSS_BONNET_FLOOR)
    elif workload == "bounds-batch":
        values["bound_log_gap"] = statistics.fmean(f["log_gap"] for f in facts if "log_gap" in f)
    return values


def scaled_ms(records):
    return [r["ms"] * k for r, k in zip(records, clock.scales([r["kernel_s"] for r in records]))]


def end_to_end(run, setup, failed):
    """Timings at reference speed (see clock.py), failures, memory."""
    timed = run["records"] + run["repeats"]
    raw = [r["ms"] for r in timed]
    scale = clock.scales([r["kernel_s"] for r in timed])
    latencies = [ms * k for ms, k in zip(raw, scale)]
    attempted = len(latencies)
    n_failed = sum(failed.values()) * run["passes"]
    tail_ms, tail_pct = tail(latencies)
    setup_raw = [r["s"] for r in setup]
    setup_s = [t * k for t, k in zip(setup_raw, clock.scales([r["kernel_s"] for r in setup]))]
    metrics = {
        "setup_s": _metric(statistics.median(setup_s), "s"),
        "op_p50_ms": _metric(statistics.median(latencies), "ms"),
        "op_tail_ms": _metric(tail_ms, "ms"),
        "ops_per_s": _metric(attempted / (sum(latencies) / 1e3), "1/s"),
        "failed_frac": _metric(n_failed / attempted, "fraction"),
        "peak_rss_mb": _metric(run["peak_rss_mb"], "MiB"),
    }
    detail = {
        "samples": attempted,
        "op_tail_percentile": tail_pct,
        "raw": {
            "setup_s": statistics.median(setup_raw),
            "op_p50_ms": statistics.median(raw),
            "op_tail_ms": tail(raw)[0],
            "ops_per_s": attempted / (sum(raw) / 1e3),
        },
        "speed_scale_median": statistics.median(scale),
        "setup_samples_s": setup_raw,
    }
    return metrics, attempted, n_failed, detail


def per_layer(workload, run, records, env):
    layers = run["layers"]
    metrics = {}
    for name in LAYER_METRICS:
        span, field = name.rsplit(".", 1)
        value = layers.get(span, {}).get("count" if field in ("rows", "nodes") else field, 0)
        metrics[name] = _metric(value, UNITS[field])
    samples = ambiguous = 0.0
    for rec in records:
        if rec["status"] == "ok" and workload == "oracle-mc":
            payload = json.loads(rec["out"])
            samples += payload["samples"]
            ambiguous += payload["ambiguous"]
    mc_s = layers.get("oracle.monte_carlo_volume", {}).get("total_s", 0.0)
    metrics["oracle.samples_per_s"] = _metric(samples / mc_s if mc_s else 0.0, "1/s")
    metrics["oracle.ambiguous_frac"] = _metric(ambiguous / samples if samples else 0.0, "fraction")
    imports = import_times(env) if workload == "cli-cold" else dict.fromkeys(IMPORT_METRICS, 0.0)
    for key, value in imports.items():
        metrics[key] = _metric(value, "s")
    untraced_ms, traced_ms = (sum(scaled_ms(run[k])) for k in ("records", "traced_records"))
    metrics["trace.overhead_frac"] = _metric(traced_ms / untraced_ms - 1.0, "fraction")
    metrics["trace.spans"] = _metric(run["spans"], "count")
    return metrics


# --- metadata ---------------------------------------------------------------


def metadata(root, nproc, cpu):
    import numpy
    import scipy

    src_files = sorted((root / "src").rglob("*.py"))
    sha = hashlib.sha256()
    lines = 0
    for path in src_files:
        data = path.read_bytes()
        sha.update(path.relative_to(root).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "src_sha256": sha.hexdigest(),
        "src_lines": lines,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": nproc,
        "pinned_cpu": cpu,
    }


# --- main -------------------------------------------------------------------


def traced_run(workload, corpus, corpus_path, root, work, env, detail):
    run, _ = run_worker("trace", corpus_path, work, 0.0, env)
    records = run["records"]
    untraced = [digest(r["status"], r["out"]) for r in records]
    identical = run["traced_digests"] == untraced
    if workload == "cli-cold":  # the bytes to match come from fresh CLI processes
        records, _ = cli_pass(corpus, root, env, work)
        identical = identical and [digest(r["status"], r["out"]) for r in records] == untraced
    failed, _ = evaluate(corpus, records)
    detail["traced_outputs_identical"] = identical
    detail["failed_by_reason"] = failed
    shutil.copyfile(work / "trace.json.spans.csv", root / ".perfbench_work" / f"spans-{workload}.csv")
    metrics = per_layer(workload, run, records, env)
    return identical, len(records), sum(failed.values()), metrics


def untraced_run(workload, corpus, corpus_path, root, work, env, seconds, detail):
    in_process = workload != "cli-cold"
    setup = []  # like the CLI ops, each set-up is timed after the kernel
    for _ in range(SETUP_SAMPLES - in_process):
        kernel_s = clock.calibrate()
        setup.append({"s": setup_probe(corpus_path, work, env), "kernel_s": kernel_s})
    if in_process:
        kernel_s = clock.calibrate()
        run, ready_s = run_worker("run", corpus_path, work, seconds, env)
        setup.append({"s": ready_s, "kernel_s": kernel_s})
    else:
        run = cli_run(corpus, root, env, work, seconds)
    failed, facts = evaluate(corpus, run["records"])
    metrics, attempted, n_failed, extra = end_to_end(run, setup, failed)
    own = accuracy(workload, facts)
    for name, unit in ACCURACY_METRICS.items():
        metrics[name] = _metric(own.get(name, PLACEHOLDER), unit)
    detail.update(extra)
    detail["passes"] = run["passes"]
    detail["repeat_mismatches"] = run["mismatch"]
    detail["failed_by_reason"] = {k: v * run["passes"] for k, v in failed.items()}
    detail["not_measured"] = [m for m in ACCURACY_METRICS if m not in own]
    return run["mismatch"] == 0, attempted, n_failed, metrics


def run_benchmark(args, root, work):
    # One client needs one CPU.  Pinning the run and every child to it means
    # the calibration kernel times the CPU the ops run on.
    nproc = len(os.sched_getaffinity(0))
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env = child_env(root)
    n_ops = pass_size(args.workload, args.seconds)
    corpus, corpus_path = build_corpus(args.workload, args.seed, n_ops, work)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "meta": metadata(root, nproc, cpu),
        "ops_per_pass": len(corpus["ops"]),
        "cond_share": scenes.cond_shares(corpus["cases"]),
    }
    if args.trace:
        outcome = traced_run(args.workload, corpus, corpus_path, root, work, env, detail)
    else:
        outcome = untraced_run(
            args.workload, corpus, corpus_path, root, work, env, args.seconds, detail
        )
    correct, attempted, n_failed, metrics = outcome
    if tuple(metrics) != (PER_LAYER if args.trace else END_TO_END):
        raise BenchError(f"metric set mismatch: {sorted(metrics)}")
    return detail, {"correct": correct, "attempted": attempted, "failed": n_failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_OPS_PER_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "minksum" / "__init__.py").is_file():
        print("perfbench: src/minksum not found; run from a minksum checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    base = root / ".perfbench_work"
    work = base / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        detail, result = run_benchmark(args, root, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
