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


@pytest.mark.parametrize("amplitude,kappa", [(5e-324, 1), (1e-200, 3)])
def test_chen_with_tiny_amplitudes(tmp_path, amplitude, kappa):
    # the states depend only on alpha_plus / alpha_minus: both amplitudes that
    # small must give the same checked states as a unit pair
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha_plus": amplitude, "alpha_minus": [0, amplitude]}))
    assert run(["chen", "--config", str(cfg), "--p", "3", "--q", "2", "--kappa", str(kappa),
                "--cutoff", "12,12", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "chen.json").read_text())["report"]
    assert report["passed"] is True
    amps = np.array(report["ground_state"]["amplitudes"])
    assert abs(np.sum(amps ** 2) - 1.0) < 1e-12


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
    subprocess.run(BASE + ["catalogue-sweep", "--cutoff", "8,8",
                           "--out", str(out), "--format", "csv"],
                   check=True)
    first = (out / "catalogue-sweep.json").read_bytes()
    first_csv = (out / "catalogue.csv").read_bytes()
    subprocess.run(BASE + ["catalogue-sweep", "--cutoff", "8,8",
                           "--out", str(out), "--format", "csv"],
                   check=True)
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


# the catalogue's Appendix B (B6) default bindings: b^2 = 1, a rotation and two
# displacements reduce them to the su(2) ladder J-
B6_PARAMS = {"beta0": 2.5, "beta_plus": [0.4 * np.cos(0.7), 0.4 * np.sin(0.7)],
             "beta3": 0.6, "gamma1": [0.4, 0.3], "gamma2": "0.25 - 0.15j"}


def test_spectrum_without_chain_entries_is_refused(tmp_path):
    # at cutoff 8 every chain state of the displaced seeds leaks past the
    # certified interior, so nothing would be checked
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": B6_PARAMS}))
    code = run(["spectrum", "--config", str(cfg), "--cutoff", "8,8",
                "--out", str(tmp_path)])
    assert code == 2
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert payload["report"]["tag"].startswith("AppendixB")
    assert payload["report"]["reason"] == "no certified chain entries"
    cfg.write_text(json.dumps({"params": {"beta0": 2.0}, "kappas": []}))
    assert run(["spectrum", "--config", str(cfg), "--cutoff", "10,10"]) == 2


def test_spectrum_appendix_b_seeds_from_its_reduction(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": B6_PARAMS, "n_max": 3}))
    assert run(["spectrum", "--config", str(cfg), "--cutoff", "16,16",
                "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "spectrum.json").read_text())["report"]
    certified = [e for e in report["entries"] if e["certified"]]
    assert len(certified) >= 4
    for e in certified:
        assert e["residual"] < 1e-10
        assert abs(e["energy_chain"] - e["energy_oracle"]) < 1e-10


def test_fractional_family_without_mode1_part(tmp_path):
    # beta_plus = 0, beta0 = 4, beta3 = 2: H = 3 n1 + n2, whose only ladder is a2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"beta0": 4.0, "beta3": 2.0},
                               "request": {"lambda": [0.3, 0.1], "kappa": 1}}))
    for scenario in ("spectrum", "eigenstate"):
        assert run([scenario, "--config", str(cfg), "--cutoff", "10,10",
                    "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "eigenstate.json").read_text())["report"]
    assert report["residual"] < 1e-12
    # exp(lambda a2') a1' |0>: the stepped mode is 2, kappa powers mode 1
    amps = np.array([complex(*z) for z in report["state"]["amplitudes"]]).reshape(11, 11)
    lam = 0.3 + 0.1j
    want = np.zeros((11, 11), dtype=complex)
    want[1] = [lam ** n / np.sqrt(float(np.prod(np.arange(1, n + 1)))) for n in range(11)]
    want /= np.linalg.norm(want)
    assert abs(abs(np.vdot(want.ravel(), amps.ravel())) - 1.0) < 1e-12
    spectrum = json.loads((tmp_path / "spectrum.json").read_text())["report"]
    for e in spectrum["entries"]:
        assert abs(e["energy_chain"] - (3.0 * e["kappa"] + e["n"])) < 1e-12


def test_kappa_past_the_cutoff_is_refused(tmp_path):
    # 2:1: (d2^2/2 - d1)^16 |0> leaves the 10 x 10 space and vanishes
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"beta0": 3, "beta3": 1}, "kappas": [16],
                               "request": {"branch": 3, "kappa": 16}}))
    for scenario in ("eigenstate", "spectrum"):
        assert run([scenario, "--config", str(cfg), "--cutoff", "10,10"]) == 2


@pytest.mark.parametrize("gamma", [1e-13, 1e-12, 1.2e-12])
def test_spectrum_with_a_coupling_at_the_zero_threshold(tmp_path, gamma):
    # Appendix B3: the solver, the classifier and the reduction frame must
    # agree on whether a coupling this small is zero (1.2e-12 shrinks below
    # 1e-12 in the mixing rotation)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"beta0": -3, "beta_plus": [0.5, 0], "beta3": 0,
                                          "gamma2": [0, gamma]}}))
    assert run(["spectrum", "--config", str(cfg), "--cutoff", "20,20",
                "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "spectrum.json").read_text())["report"]
    assert report["worst_residual"] < 1e-10


@pytest.mark.parametrize("params", [
    {"beta0": 2.5, "beta_plus": [-2.4e-9, -2.8e-9], "beta3": -0.49999999999999994},
    {"beta0": 0.0, "beta_plus": [7.45e-9, 0], "beta3": 0.9999999999999999}])
def test_spectrum_with_a_mixing_rotation_near_its_endpoint(tmp_path, params):
    # b - |beta3| is at the rounding floor here: the rotation angle must come
    # from |beta_plus| (fractional near the mode swap, su(2) near the identity)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": params, "n_max": 4}))
    assert run(["spectrum", "--config", str(cfg), "--cutoff", "20,20",
                "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "spectrum.json").read_text())["report"]
    assert report["worst_residual"] < 1e-12


def test_linear_iso_eigenstate_takes_c1(tmp_path):
    from ladderforge.eigenstates import EigenstateRequest, linear_coupled_states
    from ladderforge.fock import FockCutoff, build_generators
    from ladderforge.params import classify, params_from_json

    params = {"beta0": 2, "gamma1": [0.2, 0.1], "gamma2": [0, -0.15]}
    p, g = params_from_json(params), build_generators(FockCutoff(12, 12))
    cfg = tmp_path / "cfg.json"
    states = []
    for c1 in (None, 0.5):
        request = {"lambda": [0.3, 0.1], "c1": c1}
        cfg.write_text(json.dumps({"params": params, "request": request}))
        assert run(["eigenstate", "--config", str(cfg), "--cutoff", "12,12",
                    "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "eigenstate.json").read_text())["report"]
        assert report["tag"].startswith("LinearCoupledIso")
        got = np.array([complex(*z) for z in report["state"]["amplitudes"]])
        want = linear_coupled_states(p, EigenstateRequest(classify(p), lam=0.3 + 0.1j, c1=c1),
                                     g).amplitudes
        assert abs(abs(np.vdot(want, got)) - 1.0) < 1e-12
        states.append(got)
    assert abs(np.vdot(*states)) < 0.999


def test_eigenstate_appendix_b_rows(tmp_path):
    # a row with beta0 = 3 reduces to 2:1 and is checked through its frame;
    # the solver flags every ladder of the other rows (B6 at beta0 = 2.5, B3
    # at beta0 = -3) non-normalizable, and the scenario refuses them
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": dict(B6_PARAMS, beta0=3.0),
                               "request": {"lambda": [0.2, 0.1], "branch": 3, "kappa": 2}}))
    assert run(["eigenstate", "--config", str(cfg), "--cutoff", "16,16",
                "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "eigenstate.json").read_text())["report"]
    assert report["tag"].startswith("AppendixB")
    assert report["residual"] < 1e-10
    for params in (B6_PARAMS, {"beta0": -3, "beta_plus": [0.5, 0]}):
        cfg.write_text(json.dumps({"params": params}))
        assert run(["eigenstate", "--config", str(cfg), "--cutoff", "16,16",
                    "--out", str(tmp_path)]) == 2
        report = json.loads((tmp_path / "eigenstate.json").read_text())["report"]
        assert report["reason"].endswith("[non-normalizable]")


def test_eigenstate_b2_checks_a_residual(tmp_path):
    # beta0 = 0, b = 2: both the annihilation and the creation gate hold; the
    # state is the coherent eigenstate of the lowered mode of the basic frame
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"beta0": 0.0, "beta3": 2.0},
                               "request": {"lambda": [0.3, 0.1]}}))
    code = run(["eigenstate", "--config", str(cfg), "--cutoff", "10,10",
                "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "eigenstate.json").read_text())["report"]
    assert report["tag"].startswith("LinearCoupledB2")
    assert report["passed"] is True
    assert report["residual"] < report["tolerance"]


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


# points on the gate surfaces b^2 = 1 and (2 -/+ beta0)^2 = b^2 (b = 0 and the
# b = 2 crossing of the two mode gates included), with or without small linear
# couplings, some of them at the 1e-12 threshold below which a coupling is zero
_SMALL = st.floats(-0.2, 0.2) | st.sampled_from([1e-13, 1e-12, -1.2e-12])


@st.composite
def _gate_params(draw):
    surface = draw(st.sampled_from(["unit", "mu", "nu"]))
    if surface == "unit":
        b = 1.0
        beta0 = draw(st.sampled_from([-3.0, -1.0, 1.0, 3.0]) | st.floats(-3.5, 3.5))
    else:
        b = draw(st.sampled_from([0.0, 0.5, 2.0]) | st.floats(0.0, 2.5))
        beta0 = (2.0 if surface == "mu" else -2.0) + draw(st.sampled_from([1.0, -1.0])) * b
    beta3 = b * draw(st.sampled_from([1.0, -1.0, 0.0]) | st.floats(-1.0, 1.0))
    r = np.sqrt(max(b * b - beta3 * beta3, 0.0)) / 2.0
    theta = draw(st.floats(0.0, 6.3))
    gammas = draw(st.none() | st.tuples(_SMALL, _SMALL, _SMALL, _SMALL))
    p = {"beta0": beta0, "beta_plus": [r * np.cos(theta), r * np.sin(theta)], "beta3": beta3}
    if gammas is not None:
        p.update(gamma1=list(gammas[:2]), gamma2=list(gammas[2:]))
    return p


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_gate_params(), st.sampled_from([14, 16, 20]))
def test_spectrum_on_gate_surfaces_certifies_every_entry(params, cutoff):
    from ladderforge.errors import DomainError
    from ladderforge.params import params_from_json
    from ladderforge.reductions import reduction_chain

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"params": params, "n_max": 4}, fh)
        code = run(["spectrum", "--config", path, "--cutoff", f"{cutoff},{cutoff}",
                    "--out", tmp])
        if code == 0:
            return      # exit 0: some entries certified and every one passed
        assert code == 2, (params, cutoff, code)
        try:
            reduction_chain(params_from_json(params))
        except DomainError as exc:   # a coupling on a vanishing mode frequency
            assert exc.code == "resonant"
            return
        with open(os.path.join(tmp, "spectrum.json"), encoding="utf-8") as fh:
            reason = json.load(fh)["report"]["reason"]
        assert reason in ("no ladder", "no certified chain entries"), (params, reason)
