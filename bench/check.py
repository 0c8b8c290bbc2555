"""Output checker: compare one request's exit code and report with its
expected verdict.

``check`` returns ``(status, reason)`` where status is

  "ok"     the request met its expected verdict and its report shows the
           checks it ran;
  "failed" the program did not deliver the expected verified answer: a hard
           error, a refusal where a ladder exists, a malformed or missing
           report, or a report that exits 0 but checked nothing;
  "wrong"  the program gave a confident answer that contradicts the closed
           form: exit 0 where no ladder exists, or reported values that
           disagree with the expected ones.

Every status other than "ok" counts as a failed request; "wrong" also makes
the run incorrect.
"""

from __future__ import annotations

import json
import math
import os

VALUE_TOL = 1e-8


def _z(v) -> complex:
    return complex(v[0], v[1]) if isinstance(v, (list, tuple)) else complex(v)


def _param_mismatch(got: dict, want: dict) -> str | None:
    for key, value in want.items():
        if key not in got:
            return f"reduced params lack {key}"
        if abs(_z(got[key]) - _z(value)) > VALUE_TOL:
            return f"reduced {key} = {got[key]} but closed form gives {value}"
    return None


def _under(values, tol) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) and v < tol for v in values)


def _check_report(scenario: str, rep: dict, exp: dict) -> tuple[str, str]:
    """Status of a report from an exit-0 request that was expected to pass."""
    if rep.get("passed") is not True and scenario != "solve-ladder":
        return "failed", "exit 0 without passed: true"
    if scenario == "solve-ladder":
        res = rep.get("residuals") or []
        if not res or not rep.get("coeffs"):
            return "failed", "vacuous: no ladder coefficients checked"
        if not _under(res, rep["tolerance"]):
            return "wrong", "exit 0 with a residual over tolerance"
        if abs(rep["b_squared"] - exp["b_squared"]) > 1e-12 * max(1.0, exp["b_squared"]):
            return "wrong", f"b_squared {rep['b_squared']} != {exp['b_squared']}"
    elif scenario == "verify-algebra":
        checks = rep.get("checks") or {}
        if len(checks) != 22 or not _under(checks.values(), rep["tolerance"]):
            return "wrong", "algebra checks missing or over tolerance"
    elif scenario == "catalogue-sweep":
        rows = rep.get("rows") or []
        if len(rows) != 46 or rep.get("count") != 46:
            return "failed", f"catalogue has {len(rows)} rows, expected 46"
        if not all(r.get("passed") is True for r in rows):
            return "wrong", "passed: true with a failing catalogue row"
    elif scenario == "reduce":
        if not _under((rep.get("h_residual"), rep.get("a_residual")), rep["tolerance"]):
            return "wrong", "passed: true with residuals over tolerance"
        why = _param_mismatch(rep.get("reduced_params") or {}, exp["reduced_params"])
        if why:
            return "wrong", why
    elif scenario == "spectrum":
        certified = [e for e in rep.get("entries") or [] if e.get("certified")]
        if not certified:
            return "failed", "vacuous: no certified chain entries"
        tol = rep["tolerance"]
        for e in certified:
            if not _under((e["residual"], abs(e["energy_chain"] - e["energy_oracle"])), tol):
                return "wrong", f"certified entry n={e['n']} misses the oracle"
    elif scenario == "eigenstate":
        if "residual" not in rep:
            return "failed", "vacuous: no eigenstate residual"
        if not _under((rep["residual"],), rep["tolerance"]):
            return "wrong", "passed: true with residual over tolerance"
        amps = (rep.get("state") or {}).get("amplitudes") or []
        norm2 = sum(re * re + im * im for re, im in amps)
        if abs(norm2 - 1.0) > 1e-10:
            return "wrong", f"state norm^2 = {norm2}"
    elif scenario == "chen":
        p, q = rep["p"], rep["q"]
        want = [k2 / p + k1 / q for k1 in range(q) for k2 in range(p)]
        got = rep.get("zero_subspace_energies") or []
        if len(got) != len(want) or any(abs(a - b) > 1e-12 for a, b in zip(got, want)):
            return "wrong", "zero-subspace energies disagree with n + k1/q + k2/p"
        if not _under((rep.get("worst"),), rep["tolerance"]):
            return "wrong", "passed: true with worst residual over tolerance"
    return "ok", ""


def check(request: dict, code, out_dir: str) -> tuple[str, str]:
    """Status of one finished request; ``code`` is its exit code, or the
    name of the exception that escaped ``cli.run``."""
    scenario = request["scenario"]
    exp = request["expect"]
    if not isinstance(code, int):
        return "failed", f"exception {code}"
    if code != exp["exit"]:
        if exp["exit"] == 2 and code == 0:
            return "wrong", "exit 0 where no ladder or no normalizable state exists"
        return "failed", f"exit {code}, expected {exp['exit']}"
    if code != 0:
        return "ok", ""
    path = os.path.join(out_dir, f"{scenario}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        rep = payload["report"]
    except (OSError, ValueError, KeyError) as exc:
        return "failed", f"no readable report: {exc}"
    try:
        return _check_report(scenario, rep, exp)
    except (KeyError, TypeError, ValueError) as exc:
        return "failed", f"malformed report: {exc!r}"
