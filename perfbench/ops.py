"""What each op runs, and how its output is checked.

In-process ops return the JSON text of their result, so one set of
checks serves both CLI stdout and in-process results.  An op's status is
"ok" or "raised:<Exception>" in-process, and "exit:<code>" for the CLI.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET

from scenes import CLI_BOUNDARY_SAMPLES, CLI_MC_SAMPLES, MC_SAMPLES

REL_TOL = 1e-6  # closed-form volume check, the acceptance tests' tolerance
MC_SIGMAS = 3.0  # as acceptance test 05: MC within 3 standard errors


def cli_argv(op, scene_path) -> list[str]:
    kind = op["kind"]
    if kind == "steiner":
        return ["volume", scene_path, "--method", "steiner"]
    if kind == "boundary":
        return ["boundary", scene_path, "--samples", str(CLI_BOUNDARY_SAMPLES)]
    if kind == "oracle":
        return ["oracle", scene_path, "--samples", str(CLI_MC_SAMPLES), "--seed", str(op["seed"])]
    return [kind, scene_path]


def run_inprocess(op, scene) -> str:
    """One in-process op; returns its result as JSON text."""
    from minksum import bounds, oracle, quadrature

    kind, dim = op["kind"], scene.dim
    if kind == "bounds":
        quad = quadrature.build_quadrature(dim, quadrature.default_resolution(dim))
        payload = bounds.volume_bounds(scene, quad).to_json()
    elif kind == "volume":
        res = quadrature.default_resolution(dim)
        quad = quadrature.build_quadrature(dim, res)
        coarse = quadrature.build_quadrature(dim, max(res // 2, 4))
        value = quadrature.volume_divergence(scene, quad)
        payload = {
            "value": value,
            "refinement_delta": value - quadrature.volume_divergence(scene, coarse),
            "surface_area": quadrature.surface_area(scene, quad),
        }
        if dim <= 3:
            payload["total_curvature"] = quadrature.gaussian_curvature_integral(scene, quad)
    elif kind == "oracle":
        payload = oracle.monte_carlo_volume(scene, MC_SAMPLES, op["seed"]).to_json()
    else:
        raise ValueError(f"no in-process op {kind!r}")
    return json.dumps(payload, sort_keys=True)


class CheckFailed(Exception):
    """An op's output missed a check; args[0] is the failure reason."""


def _reject_constant(name):
    raise CheckFailed("json")


def _strict_json(text):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        raise CheckFailed("json") from exc


def _finite(payload, *keys):
    for key in keys:
        value = payload.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise CheckFailed("json")
    return [float(payload[k]) for k in keys]


def _csv(text, dim):
    lines = text.splitlines()
    width = 3 * dim - 1
    if len(lines) != CLI_BOUNDARY_SAMPLES + 1 or len(lines[0].split(",")) != width:
        raise CheckFailed("csv")
    for line in lines[1:]:
        cells = line.split(",")
        try:
            ok = len(cells) == width and all(math.isfinite(float(c)) for c in cells)
        except ValueError:
            ok = False
        if not ok:
            raise CheckFailed("csv")


def _svg(text):
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise CheckFailed("svg") from exc
    if not root.tag.endswith("svg") or not list(root):
        raise CheckFailed("svg")


def _reference(value, case, facts):
    ref = case["reference"]
    if ref is None:
        return
    facts["rel_err"] = abs(value - ref) / ref
    if facts["rel_err"] > REL_TOL:
        raise CheckFailed("reference")


def _check_output(op, case, out, facts):
    kind, dim = op["kind"], case["dim"]
    if kind == "boundary":
        return _csv(out, dim)
    if kind == "plot":
        return _svg(out)
    payload = _strict_json(out)
    if kind == "bounds":
        lower, upper = _finite(payload, "lower_volume", "upper_volume")
        if not 0.0 < lower <= upper:
            raise CheckFailed("order")
        facts["log_gap"] = math.log(upper / lower)
    elif kind == "volume":
        (value,) = _finite(payload, "value")
        if "total_curvature" in payload:
            (total,) = _finite(payload, "total_curvature")
            facts["gb_err"] = abs(total - (2.0 if dim == 2 else 4.0) * math.pi)
        _reference(value, case, facts)
    elif kind == "steiner":
        (value,) = _finite(payload, "value")
        if "lower" in payload:
            lower, upper = _finite(payload, "lower", "upper")
            if lower > upper:
                raise CheckFailed("order")
        _reference(value, case, facts)
    elif kind == "oracle":
        value, se, samples, ambiguous = _finite(payload, "value", "std_error", "samples", "ambiguous")
        facts["ambiguous"], facts["samples"] = ambiguous, samples
        ref = case["reference"]
        if ref is not None and abs(value - ref) > MC_SIGMAS * se + case["reference_err"]:
            raise CheckFailed("mc_se")


def check(op, case, status, out) -> tuple[str | None, dict]:
    """Failure reason (None if the op passed) and facts for the metrics."""
    facts: dict = {}
    if status.startswith("raised:"):
        return "raised", facts
    if status.startswith("exit:") and status != "exit:0":
        return "exit_code", facts
    if status == "timeout":
        return "timeout", facts
    try:
        _check_output(op, case, out, facts)
    except CheckFailed as exc:
        return exc.args[0], facts
    return None, facts
