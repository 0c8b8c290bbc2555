import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderforge.cli import run

BASE = [sys.executable, "-m", "ladderforge.cli"]


def test_verify_algebra_ok(tmp_path):
    code = run(["verify-algebra", "--cutoff", "8,8", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "verify-algebra.json").read_text())
    assert payload["version"].startswith("ladderforge ")
    assert payload["report"]["passed"] is True
    assert payload["report"]["worst"] < 1e-12


def test_solve_ladder_refusal(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"beta0": 7.0, "beta_plus": [0.25, 0.0],
                                          "beta3": 0.5}}))
    code = run(["solve-ladder", "--config", str(cfg), "--cutoff", "8,8",
                "--out", str(tmp_path)])
    assert code == 2
    payload = json.loads((tmp_path / "solve-ladder.json").read_text())
    assert payload["report"]["tag"] == "NoLadderExists"


def test_solve_ladder_ok(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"beta0": 3.0, "beta3": 1.0,
                                          "gamma1": [0.4, 0.3],
                                          "gamma2": "0.25-0.15j"}}))
    code = run(["solve-ladder", "--config", str(cfg), "--cutoff", "10,10",
                "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "solve-ladder.json").read_text())
    assert payload["report"]["tag"] == "AppendixA(A1.4-b0=3)"
    assert all(r < 1e-10 for r in payload["report"]["residuals"])


def test_chen_scenario(tmp_path):
    code = run(["chen", "--p", "3", "--q", "2", "--kappa", "2",
                "--cutoff", "12,12", "--out", str(tmp_path), "--format", "csv"])
    assert code == 0
    payload = json.loads((tmp_path / "chen.json").read_text())
    assert payload["report"]["passed"] is True
    assert (tmp_path / "chen_state.csv").exists()


def test_chen_cutoff_too_small():
    assert run(["chen", "--p", "5", "--q", "4", "--kappa", "4",
                "--cutoff", "10,10"]) == 65


def test_malformed_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["solve-ladder", "--config", str(bad)]) == 64
    assert run(["verify-algebra", "--cutoff", "oops"]) == 64


def test_catalogue_sweep_deterministic(tmp_path):
    out = tmp_path / "sweep"
    env = dict(os.environ, LADDERFORGE_THREADS="4")
    subprocess.run(BASE + ["catalogue-sweep", "--cutoff", "8,8",
                           "--out", str(out), "--format", "csv"],
                   check=True, env=env)
    first = (out / "catalogue-sweep.json").read_bytes()
    first_csv = (out / "catalogue.csv").read_bytes()
    subprocess.run(BASE + ["catalogue-sweep", "--cutoff", "8,8",
                           "--out", str(out), "--format", "csv"],
                   check=True, env=env)
    assert (out / "catalogue-sweep.json").read_bytes() == first
    assert (out / "catalogue.csv").read_bytes() == first_csv
    payload = json.loads(first)
    assert payload["report"]["count"] == 46
    assert payload["report"]["passed"] is True


def test_spectrum_scenario(tmp_path):
    r = np.sqrt(((2 - 2.5) ** 2 - 0.0) / 4)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "params": {"beta0": 2.5, "beta_plus": [r, 0.0], "beta3": 0.0},
        "kappas": [0, 1, 2], "n_max": 4}))
    code = run(["spectrum", "--config", str(cfg), "--cutoff", "14,14",
                "--out", str(tmp_path), "--format", "csv"])
    assert code == 0
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert payload["report"]["passed"] is True
    assert (tmp_path / "spectrum.csv").exists()
    # fractional ladder: energies kappa*(beta0-1) + n
    for entry in payload["report"]["entries"]:
        expected = entry["kappa"] * 1.5 + entry["n"]
        assert abs(entry["energy_chain"] - expected) < 1e-8


def test_eigenstate_scenario(tmp_path):
    r = np.sqrt(((2 - 0.5) ** 2 - 0.4 ** 2) / 4)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "params": {"beta0": 0.5, "beta_plus": [r * np.cos(0.3), r * np.sin(0.3)],
                   "beta3": 0.4},
        "request": {"lambda": [0.7, 0.2], "kappa": 2}}))
    code = run(["eigenstate", "--config", str(cfg), "--cutoff", "16,16",
                "--out", str(tmp_path), "--format", "csv"])
    assert code == 0
    payload = json.loads((tmp_path / "eigenstate.json").read_text())
    assert payload["report"]["residual"] < 1e-8
    assert (tmp_path / "state.csv").exists()


def test_eigenstate_refuses_non_normalizable(tmp_path):
    # creation-dominated family: solver exists, constructor must refuse
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"beta0": -2.0}}))
    code = run(["eigenstate", "--config", str(cfg), "--cutoff", "10,10",
                "--out", str(tmp_path)])
    assert code == 2


def test_reduce_scenario(tmp_path):
    r = np.sqrt((1 - 0.6 ** 2)) / 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "params": {"beta0": 2.5, "beta_plus": [r * np.cos(0.7), r * np.sin(0.7)],
                   "beta3": 0.6, "gamma1": [0.12, 0.09], "gamma2": [0.1, -0.06],
                   "h0": 0.3}}))
    code = run(["reduce", "--config", str(cfg), "--cutoff", "14,14",
                "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "reduce.json").read_text())
    kinds = [s["kind"] for s in payload["report"]["chain"]]
    assert kinds == ["mix_t", "displace1", "displace2"]
    assert payload["report"]["h_residual"] < 1e-8
    assert abs(payload["report"]["reduced_params"]["beta3"] - 1.0) < 1e-9


# the catalogue's Appendix B (B6) default bindings: b^2 = 1, no chain ground
B6_PARAMS = {"beta0": 2.5, "beta_plus": [0.4 * np.cos(0.7), 0.4 * np.sin(0.7)],
             "beta3": 0.6, "gamma1": [0.4, 0.3], "gamma2": "0.25 - 0.15j"}


def test_spectrum_without_chain_entries_is_refused(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": B6_PARAMS}))
    code = run(["spectrum", "--config", str(cfg), "--cutoff", "10,10",
                "--out", str(tmp_path)])
    assert code == 2
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert payload["report"]["tag"].startswith("AppendixB")
    assert payload["report"]["reason"] == "no chain entries"


def test_eigenstate_b2_without_residual_is_refused(tmp_path):
    # beta0 = 0, b = 2: both the annihilation and the creation gate hold
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"beta0": 0.0, "beta3": 2.0},
                               "request": {"lambda": [0.3, 0.1]}}))
    code = run(["eigenstate", "--config", str(cfg), "--cutoff", "10,10",
                "--out", str(tmp_path)])
    assert code == 2
    payload = json.loads((tmp_path / "eigenstate.json").read_text())
    assert payload["report"]["tag"].startswith("LinearCoupledB2")
    assert "residual" not in payload["report"]
    assert payload["report"]["reason"]


@pytest.mark.parametrize("scenario", ["reduce", "spectrum", "solve-ladder"])
def test_bad_params_value_is_config_error(tmp_path, scenario):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"gamma1": "abc"}}))
    code = run([scenario, "--config", str(cfg), "--cutoff", "10,10",
                "--out", str(tmp_path)])
    assert code == 64
    assert not (tmp_path / f"{scenario}.json").exists()


def test_cli_import_leaves_dense_linalg_unloaded():
    # transforms.expm imports these lazily; at module level they would add
    # to the start-up time of every scenario
    probe = ("import sys, ladderforge.cli; "
             "print(sorted(m for m in ('scipy.linalg', 'scipy.sparse.csgraph') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


# every scenario starts from a config it would accept; each case adds one bad
# value (or flag) that the runner must refuse as malformed, before computing
_GOOD = {
    "spectrum": {"params": {"beta0": 2.5, "beta_plus": [0.25, 0.0]}},
    "eigenstate": {"params": {"beta0": 2.0}, "request": {"lambda": [0.3, 0.1]}},
    "reduce": {"params": {"beta0": 3.0, "beta3": 1.0, "gamma1": [0.1, 0.05]}},
}
_MALFORMED = [
    ("spectrum", {"n_max": "x"}, []),
    ("spectrum", {"kappas": [0, "a"]}, []),
    ("spectrum", {"kappas": 3}, []),
    ("spectrum", {"tol_eigen": "abc"}, []),
    ("eigenstate", {"tol_eigen": "abc"}, []),
    ("eigenstate", {"request": {"branch": 5}}, []),
    ("eigenstate", {"request": {"lambda": "zz"}}, []),
    ("eigenstate", {"request": [1]}, []),
    ("eigenstate", {"request": {"kappa": -1, "branch": 2}}, []),
    ("reduce", {"eps": "q"}, []),
    ("spectrum", {"params": [1, 2]}, []),
    ("eigenstate", {"params": [1, 2]}, []),
    ("reduce", {"params": [1, 2]}, []),
    *[(s, {"cutoff": [10.5, 10]}, []) for s in ("verify-algebra", "solve-ladder", "spectrum",
                                                "eigenstate", "chen", "catalogue-sweep",
                                                "reduce")],
    ("chen", {}, ["--p", "2", "--q", "2"]),
    ("chen", {}, ["--p", "0"]),
    ("chen", {}, ["--kappa", "-1"]),
    ("chen", {"kappa": 2.7}, []),
    ("chen", {"alpha_minus": 0}, []),
]


@pytest.mark.parametrize("scenario, bad, flags", _MALFORMED,
                         ids=[f"{s}-{json.dumps(b) if b else ' '.join(f)}"
                              for s, b, f in _MALFORMED])
def test_malformed_value_exits_64_without_report(tmp_path, scenario, bad, flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cutoff": [10, 10], **_GOOD.get(scenario, {}), **bad}))
    out = tmp_path / "out"
    assert run([scenario, "--config", str(cfg), "--out", str(out), *flags]) == 64
    assert not out.exists()


def test_eigenstate_branch_the_family_lacks_is_refused(tmp_path):
    # the isotropic family has branches 1 and 2 only
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"beta0": 2.0}, "request": {"branch": 3}}))
    assert run(["eigenstate", "--config", str(cfg), "--cutoff", "10,10"]) == 2


# well-formed values are small and often sit on a gate surface (b^2 = 1,
# (2 -/+ beta0)^2 = b^2), so most requests compute something cheap; in about a
# quarter of the requests one value, top-level or inside params/request, is
# replaced by arbitrary JSON
_NUMBER = st.sampled_from([-3, -2, -1, 0, 0.5, 1, 2, 2.5, 3]) | st.floats(-4.0, 4.0)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.floats(-4.0, 4.0) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6)
_COMPLEX = _NUMBER | st.lists(_NUMBER, min_size=2, max_size=2)
_TOL = st.floats(1e-14, 1.0)
_NESTED = {
    "params": {"beta0": _NUMBER, "beta_plus": _COMPLEX, "beta3": _NUMBER,
               "gamma1": _COMPLEX, "gamma2": _COMPLEX, "h0": _NUMBER},
    "request": {"lambda": _COMPLEX, "kappa": st.integers(0, 3), "branch": st.integers(1, 3),
                "c1": _COMPLEX, "c2": _COMPLEX, "lambda2": _COMPLEX, "nu1": _COMPLEX},
}
# one point of each family: isotropic, 2:1, 1:2, fractional, su(2), b = 2,
# Appendix A, linearly coupled isotropic
_ON_GATE = [{"beta0": 2}, {"beta0": 3, "beta3": 1}, {"beta0": 3, "beta3": -1},
            {"beta0": 2.5, "beta_plus": [0.25, 0]}, {"beta0": 2.5, "beta_plus": 0.4, "beta3": 0.6},
            {"beta0": 0, "beta3": 2}, {"beta0": 3, "beta3": 1, "gamma1": [0.2, 0.1], "gamma2": 0.1},
            {"beta0": 2, "gamma1": 0.2}]
_PARAMS = (st.sampled_from(_ON_GATE).map(dict)
           | st.fixed_dictionaries({}, optional=_NESTED["params"]))
_SCENARIO_KEYS = {
    "verify-algebra": {"tol_algebra": _TOL},
    "solve-ladder": {"params": _PARAMS, "tol_ladder": _TOL},
    "spectrum": {"params": _PARAMS, "tol_eigen": _TOL, "n_max": st.integers(0, 6),
                 "kappas": st.lists(st.integers(0, 3), max_size=3)},
    "eigenstate": {"params": _PARAMS, "tol_eigen": _TOL,
                   "request": st.fixed_dictionaries({}, optional=_NESTED["request"])},
    "chen": {"p": st.integers(1, 4), "q": st.integers(1, 4), "kappa": st.integers(0, 3),
             "alpha_plus": _COMPLEX, "alpha_minus": _COMPLEX, "tol_chen": _TOL},
    "catalogue-sweep": {"tol_ladder": _TOL},
    "reduce": {"params": _PARAMS, "eps": st.sampled_from([1, -1]), "tol_reduce": _TOL},
}


@st.composite
def _requests(draw):
    scenario = draw(st.sampled_from(sorted(_SCENARIO_KEYS)))
    fields = {"format": st.sampled_from(["json", "csv"]), **_SCENARIO_KEYS[scenario]}
    cfg = draw(st.fixed_dictionaries(
        {"cutoff": st.lists(st.sampled_from([10, 9, 8, 6, 2]), min_size=2, max_size=2)},
        optional=fields))
    if draw(st.integers(0, 3)) == 2:
        slots = [(cfg, key) for key in ("cutoff", *fields)]
        slots += [(cfg[key], f) for key in _NESTED if key in cfg for f in _NESTED[key]]
        obj, key = draw(st.sampled_from(slots))
        obj[key] = draw(_JSON)
    return scenario, cfg


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_requests())
def test_any_config_value_gives_an_exit_code(request):
    scenario, cfg = request
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        assert run([scenario, "--config", path, "--out", os.path.join(tmp, "out")]) in {
            0, 1, 2, 64, 65}
