"""The process that does a workload's work, in a fresh interpreter.

    python3 perfbench/worker.py MODE CORPUS.json RESULT.json SECONDS

MODE is one of
  setup  import minksum (and minksum.cli for cli-cold), build every scene
         object, print "ready" and exit: the set-up probe;
  run    set up, then repeat the op pass untraced while time allows;
  trace  set up, then run every op untraced and traced back to back,
         alternating which goes first; cli-cold runs its commands
         in-process through click here.
The parent reads "ready" on stdout to time set-up, and RESULT.json after
exit.  PYTHONPATH must point at the checkout's src/.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import ops as op_defs
from clock import calibrate


def _load_scenes(corpus, geometry):
    if corpus["workload"] == "cli-cold":
        scenes = []
        for case in corpus["cases"]:
            with open(case["path"], encoding="utf-8") as fh:
                scenes.append(geometry.scene_from_json(json.load(fh)))
        return scenes
    return [geometry.scene_from_json(case["scene"]) for case in corpus["cases"]]


def _run_cli(cli, argv):
    """A CLI command in-process; status mirrors the exit code of a fresh process."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            cli.main.main(args=argv, prog_name="minksum", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught exception ends a CLI process with status 1
            code = 1
    return f"exit:{code}", out.getvalue()


def _op_runner(corpus, scenes):
    cases = corpus["cases"]
    if corpus["workload"] == "cli-cold":
        from minksum import cli

        return lambda op: _run_cli(cli, op_defs.cli_argv(op, cases[op["case"]]["path"]))

    def run(op):
        try:
            return "ok", op_defs.run_inprocess(op, scenes[op["case"]])
        except Exception as exc:  # recorded as a failed op, the pass goes on
            return f"raised:{type(exc).__name__}", ""

    return run


def digest(status, out) -> str:
    return hashlib.sha256(f"{status}\n{out}".encode()).hexdigest()


def timed_pass(ops, run):
    """Run every op once; each record holds its latency and the kernel time before it."""
    records = []
    start = perf_counter()
    for op in ops:
        kernel_s = calibrate()
        t = perf_counter()
        status, out = run(op)
        ms = (perf_counter() - t) * 1e3
        records.append({"ms": ms, "kernel_s": kernel_s, "status": status, "out": out})
    return records, perf_counter() - start


def repeat_passes(do_pass, seconds):
    """One pass, then repeats while another fits in `seconds`.

    Repeats must give the first pass's bytes; their records keep timings only.
    """
    first, wall = do_pass()
    digests = [digest(r["status"], r["out"]) for r in first]
    result = {"records": first, "passes": 1, "repeats": [], "mismatch": 0}
    elapsed = wall
    while elapsed + wall <= seconds:
        again, wall = do_pass()
        elapsed += wall
        result["passes"] += 1
        result["mismatch"] += sum(digest(r["status"], r["out"]) != d for r, d in zip(again, digests))
        result["repeats"] += [{k: v for k, v in r.items() if k != "out"} for r in again]
    return result


def traced_pairs(corpus, geometry, scenes, ops, run, spans_path):
    """Each op untraced and traced back to back, alternating which goes first."""
    from spans import Tracer

    tracer = Tracer()
    if corpus["workload"] != "cli-cold":  # cli-cold parses inside each command
        tracer.install()
        try:
            scenes[:] = _load_scenes(corpus, geometry)
        finally:
            tracer.remove()
    untraced, traced = [], []
    for i, op in enumerate(ops):
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            if with_trace:
                tracer.op = i
                tracer.install()
            try:
                (rec,), _ = timed_pass([op], run)
            finally:
                tracer.remove()
            (traced if with_trace else untraced).append(rec)
    tracer.write_csv(spans_path)
    return {
        "records": untraced,
        "traced_digests": [digest(r["status"], r["out"]) for r in traced],
        "traced_records": [{"ms": r["ms"], "kernel_s": r["kernel_s"]} for r in traced],
        "layers": tracer.layers(),
        "spans": len(tracer.spans),
    }


def main(argv):
    mode, corpus_path, result_path, seconds = argv[0], argv[1], argv[2], float(argv[3])
    with open(corpus_path, encoding="utf-8") as fh:
        corpus = json.load(fh)
    if corpus["workload"] == "cli-cold":
        import minksum.cli  # noqa: F401  (part of what a CLI user waits for)
    from minksum import geometry

    scenes = _load_scenes(corpus, geometry)
    print("ready", flush=True)
    if mode == "setup":
        return 0

    run = _op_runner(corpus, scenes)
    ops = corpus["ops"]
    if mode == "run":
        result = repeat_passes(lambda: timed_pass(ops, run), seconds)
    else:
        result = traced_pairs(corpus, geometry, scenes, ops, run, result_path + ".spans.csv")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
