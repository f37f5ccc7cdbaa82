"""Self-checks of the benchmark: determinism, tracing neutrality, checks, contract.

    python3 -m pytest -q perfbench/selftest.py

Run from the root of a minksum checkout; takes about two minutes.  The
file name keeps it out of the package's own test run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as bench  # noqa: E402  (pins BLAS threads before numpy loads)
import ops  # noqa: E402
import scenes  # noqa: E402
from worker import digest  # noqa: E402

ENV = bench.child_env(ROOT)


@pytest.fixture
def work(request):
    path = ROOT / ".perfbench_work" / f"selftest-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _digests(records):
    return [digest(r["status"], r["out"]) for r in records]


def test_corpus_is_a_function_of_the_seed():
    for name, build in scenes.WORKLOADS.items():
        assert build(7, 30) == build(7, 30), name
    a, b = scenes.volume_hires(7, 15), scenes.volume_hires(8, 15)
    same = [x["scene"] == y["scene"] for x, y in zip(a[0], b[0])]
    # 2D Steiner references, 3D ellipsoid, ball sums and the 4D ellipsoid
    # are panel scenes; the 3D general scenes come from the seed
    assert same == [True] * 9 + [False] * 5 + [True]
    assert scenes.cond_shares(scenes.bounds_batch(7, 96)[0])[">1000"] > 0


@pytest.mark.parametrize("workload, n_ops", [("bounds-batch", 6), ("volume-hires", 5), ("oracle-mc", 2)])
def test_untraced_runs_repeat_and_tracing_is_neutral(workload, n_ops, work):
    corpus, path = bench.build_corpus(workload, 3, n_ops, work)
    first, _ = bench.run_worker("run", path, work, 3.0, ENV)  # room for repeat passes
    second, _ = bench.run_worker("run", path, work, 0.0, ENV)
    assert first["passes"] >= 2 and first["mismatch"] == 0
    traced, _ = bench.run_worker("trace", path, work, 0.0, ENV)
    assert _digests(first["records"]) == _digests(second["records"])
    assert _digests(traced["records"]) == _digests(first["records"])
    assert traced["traced_digests"] == _digests(first["records"])
    assert traced["spans"] > 0 and traced["layers"]["geometry.scene_from_json"]["calls"] == len(corpus["cases"])


def test_cli_in_process_matches_fresh_processes(work):
    corpus, path = bench.build_corpus("cli-cold", 3, 11, work)  # every command once
    fresh, _ = bench.cli_pass(corpus, ROOT, ENV, work)
    traced, _ = bench.run_worker("trace", path, work, 0.0, ENV)
    assert _digests(traced["records"]) == _digests(fresh)
    assert traced["traced_digests"] == _digests(fresh)
    assert {f"cli.{c}" for c in ("volume", "bounds", "boundary", "plot", "oracle")} <= set(traced["layers"])


CASE = {"dim": 2, "reference": 10.0, "reference_err": 0.0}


@pytest.mark.parametrize(
    "kind, status, out, reason",
    [
        ("volume", "exit:1", "", "exit_code"),
        ("bounds", "raised:BoundsError", "", "raised"),
        ("volume", "ok", '{"value": NaN}', "json"),
        ("volume", "ok", '{"value": 10.5}', "reference"),
        ("volume", "ok", '{"value": 10.0}', None),
        ("bounds", "ok", '{"lower_volume": 2.0, "upper_volume": 1.0}', "order"),
        ("bounds", "ok", '{"lower_volume": 1.0, "upper_volume": 2.0}', None),
        ("steiner", "ok", '{"value": 10.0, "lower": 3.0, "upper": 2.0}', "order"),
        ("oracle", "ok", '{"value": 11.0, "std_error": 0.1, "samples": 1000, "ambiguous": 0}', "mc_se"),
        ("oracle", "ok", '{"value": 10.2, "std_error": 0.1, "samples": 1000, "ambiguous": 0}', None),
        ("boundary", "exit:0", "n_1,n_2,x_1,x_2,kappa_1\n1,0,1,0,1\n", "csv"),
        ("plot", "exit:0", "<svg><polyline/>", "svg"),
        ("plot", "exit:0", '<svg xmlns="http://www.w3.org/2000/svg"><polyline/></svg>', None),
    ],
)
def test_checks(kind, status, out, reason):
    assert ops.check({"kind": kind}, CASE, status, out)[0] == reason


def test_boundary_check_accepts_the_expected_rows():
    rows = ["n_1,n_2,x_1,x_2,kappa_1"] + ["1.0,0.0,2.0,0.0,0.5"] * scenes.CLI_BOUNDARY_SAMPLES
    assert ops.check({"kind": "boundary"}, CASE, "exit:0", "\n".join(rows) + "\n")[0] is None
    rows[5] = "1.0,0.0,nan,0.0,0.5"
    assert ops.check({"kind": "boundary"}, CASE, "exit:0", "\n".join(rows) + "\n")[0] == "csv"


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(m["name"] for m in spec["end_to_end"]) == bench.END_TO_END
    assert tuple(m["name"] for m in spec["per_layer"]) == bench.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(scenes.WORKLOADS)


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_result_line_contract():
    proc = _bench(ROOT, "--workload", "bounds-batch", "--seed", "2", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert tuple(result["metrics"]) == bench.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(work):
    shutil.copytree(HERE, work / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", work)
    proc = _bench(work, "--workload", "bounds-batch", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0 and proc.stdout == ""
