import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import combine, commutator, csr_generators, csr_verify_ladder, interior_residual

from ladderforge import cli, fock, reductions
from ladderforge.cli import _ALGEBRA_IDENTITIES, _json_text, build_parser, run
from ladderforge.fock import FockCutoff, build_generators, commutator_residual, interior_indices
from ladderforge.params import params_from_json, solve_ladder, verify_ladder

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


def test_runs_share_one_parser_and_no_flags(tmp_path):
    assert build_parser() is build_parser()
    first, second = tmp_path / "first", tmp_path / "second"
    assert run(["chen", "--p", "3", "--q", "2", "--cutoff", "12,12", "--out", str(first)]) == 0
    assert run(["chen", "--cutoff", "12,12", "--out", str(second)]) == 0
    payload = json.loads((second / "chen.json").read_text())
    assert "p" not in payload["config"] and "q" not in payload["config"]
    assert (payload["report"]["p"], payload["report"]["q"]) == (2, 1)


@pytest.mark.parametrize("argv,code", [(["--version"], 0), (["--help"], 0),
                                       (["chen", "--p", "x"], 2), (["no-such-scenario"], 2)])
def test_parser_exits_as_argparse_does(argv, code, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == code


@pytest.mark.parametrize("amplitude,kappa", [(5e-324, 1), (1e-200, 3), (5e-324, 3),
                                             (1e200, 3)])
def test_chen_with_tiny_amplitudes(tmp_path, amplitude, kappa):
    # the states depend only on alpha_plus / alpha_minus, and the operators are
    # built from the unit-modulus ray: both amplitudes that small (or that
    # large) must give the same report as a unit pair, with residuals that
    # neither overflow nor read 0
    cfg = tmp_path / "cfg.json"
    reports = []
    for scale in (amplitude, 1.0):
        cfg.write_text(json.dumps({"alpha_plus": scale, "alpha_minus": [0, scale]}))
        assert run(["chen", "--config", str(cfg), "--p", "3", "--q", "2", "--kappa",
                    str(kappa), "--cutoff", "12,12", "--out", str(tmp_path)]) == 0
        reports.append(json.loads((tmp_path / "chen.json").read_text())["report"])
    assert reports[0] == reports[1]
    assert reports[0]["passed"] is True and reports[0]["ladder_residual"] > 0.0
    amps = np.array(reports[0]["ground_state"]["amplitudes"])
    assert abs(np.sum(amps ** 2) - 1.0) < 1e-12


def test_chen_refuses_an_amplitude_ratio_beyond_double_range(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha_plus": 4.0, "alpha_minus": 5e-324}))
    assert run(["chen", "--config", str(cfg), "--p", "3", "--q", "2",
                "--cutoff", "12,12", "--out", str(tmp_path)]) == 2


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
    entries = payload["report"]["entries"]
    header, *rows = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert header == "family,kappa,n,energy_formula,energy_chain,energy_oracle,residual"
    assert len(rows) == len(entries) == 3 * 5
    # fractional ladder: energies kappa*(beta0-1) + n, the closed form reported
    for entry, row in zip(entries, rows):
        expected = entry["kappa"] * 1.5 + entry["n"]
        assert abs(entry["energy_formula"] - expected) < 1e-14
        assert abs(entry["energy_chain"] - expected) < 1e-8
        assert row.split(",")[1:4] == [str(entry["kappa"]), str(entry["n"]),
                                       repr(entry["energy_formula"])]


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


@pytest.mark.parametrize("gamma1,cutoff", [(30.0, 14), (3.0, 10)])
def test_spectrum_names_the_cutoff_that_keeps_the_vacuum(tmp_path, capsys, gamma1, cutoff):
    # the frame displaces the vacuum to |x|^2 = gamma1^2: past the degree-3
    # interior every chain entry is uncertified, a truncation limit (exit 65,
    # as reduce gives), and the message names the least cutoff N,N that keeps
    # the vacuum, where spectrum certifies and exits 0, or says none up to 256
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"beta0": 2, "gamma1": [gamma1, 0]}}))

    def spectrum_at(n):
        return run(["spectrum", "--config", str(cfg), "--cutoff", f"{n},{n}",
                    "--out", str(tmp_path / str(n))])

    assert spectrum_at(cutoff) == 65
    message = capsys.readouterr().err
    assert not (tmp_path / str(cutoff) / "spectrum.json").exists()
    if gamma1 == 30.0:
        assert message.endswith("no cutoff up to 256,256 keeps it\n")
        return
    n, n2 = map(int, message.split("; ")[-1].split()[0].split(","))
    assert n == n2 > cutoff and message.endswith("is the least cutoff that keeps it\n")
    assert spectrum_at(n) == 0
    assert spectrum_at(n - 1) == 65


def test_spectrum_without_chain_entries_is_refused(tmp_path, capsys):
    # at cutoff 8 the frame's displaced vacuum already leaks past the degree-3
    # interior, so no chain state is certified: a truncation limit, exit 65
    # naming the least cutoff that keeps the vacuum; seeds kappa = 6 past an
    # intact vacuum leave nothing to check either, which is refused
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": B6_PARAMS}))
    assert run(["spectrum", "--config", str(cfg), "--cutoff", "8,8",
                "--out", str(tmp_path)]) == 65
    assert capsys.readouterr().err.endswith("is the least cutoff that keeps it\n")
    assert not (tmp_path / "spectrum.json").exists()
    cfg.write_text(json.dumps({"params": B6_PARAMS, "kappas": [6]}))
    code = run(["spectrum", "--config", str(cfg), "--cutoff", "12,12",
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


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("b", [1e-6, 2e-9, 5e-10, 1e-11])
def test_spectrum_near_the_isotropic_point(tmp_path, b, sign):
    # b counts as zero only up to the gate tolerance 1e-10; a larger b is a
    # fractional family, whose isotropic seeds would be off by about b
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"beta0": 2.0 + sign * b, "beta3": b}}))
    assert run(["spectrum", "--config", str(cfg), "--cutoff", "20,20",
                "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "spectrum.json").read_text())["report"]
    assert report["tag"].startswith("Isotropic" if b <= 1e-10 else "Fractional")
    assert report["worst_residual"] < 1e-10


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


GENERALIZED_21 = {"beta0": 3.0, "beta_plus": [0.75 ** 0.5 / 2, 0.0], "beta3": 0.5}


# prints the scipy modules loaded so far in a fresh process
_SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_cli_import_leaves_dense_linalg_unloaded():
    # scipy is imported where a CSR matrix is built, and spectra's
    # shift-invert only on its own path; at module level scipy.sparse alone
    # would add about 0.2 s to every scenario's start
    probe = (f"import sys, ladderforge; print({_SCIPY_LOADED}); "
             f"import ladderforge.cli; print({_SCIPY_LOADED})")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True)
    assert out.stdout.split("\n")[:2] == ["[]", "[]"]


def test_gate_scenarios_load_no_scipy(tmp_path):
    # solve-ladder, catalogue-sweep and verify-algebra check identities on
    # the generators' grid weights and build no CSR matrix; eigenstate
    # builds its states from creation polynomials and checks them with the
    # ladder's shift mat-vec, here on an isotropic state and a displaced one
    configs = {"ladder": {"params": GENERALIZED_21},
               "isotropic": {"params": {"beta0": 2.0}, "request": {"kappa": 1}},
               "displaced": {"params": {"beta0": 3.0, "beta3": 1.0, "gamma1": [0.3, 0.1],
                                        "gamma2": [0.0, -0.2]},
                             "request": {"lambda": [0.4, -0.2], "kappa": 1}}}
    for name, config in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
    calls = [["solve-ladder", "--config", str(tmp_path / "ladder.json"), "--cutoff", "12,12"],
             ["catalogue-sweep", "--cutoff", "12,16"], ["verify-algebra", "--cutoff", "12,12"],
             ["eigenstate", "--config", str(tmp_path / "isotropic.json"), "--cutoff", "20,20"],
             ["eigenstate", "--config", str(tmp_path / "displaced.json"), "--cutoff", "24,24"]]
    probe = ("import sys; from ladderforge.cli import run; "
             f"print([run(argv + ['--out', {str(tmp_path)!r}]) for argv in {calls!r}]); "
             f"print({_SCIPY_LOADED})")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True)
    assert out.stdout.split("\n")[:2] == ["[0, 0, 0, 0, 0]", "[]"]


def test_chen_loads_no_scipy(tmp_path):
    # chen checks its identities on the weighted shifts of its operators and
    # applies them to states as shift mat-vecs: no CSR matrix is built
    calls = [["chen", "--p", "3", "--q", "2", "--cutoff", "12,12"],
             ["chen", "--p", "2", "--q", "1", "--cutoff", "40,40"]]
    probe = ("import sys; from ladderforge.cli import run; "
             f"print([run(argv + ['--out', {str(tmp_path)!r}]) for argv in {calls!r}]); "
             f"print({_SCIPY_LOADED})")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True)
    assert out.stdout.split("\n")[:2] == ["[0, 0]", "[]"]


def test_chen_assembles_no_csr_matrix(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("chen assembled a CSR matrix")

    monkeypatch.setattr(fock.Operator, "csr", refuse)
    for argv in (["--p", "3", "--q", "2", "--kappa", "2", "--cutoff", "12,12"],
                 ["--p", "2", "--q", "1", "--cutoff", "40,40"]):
        assert run(["chen", *argv, "--out", str(tmp_path)]) == 0, argv


@pytest.mark.parametrize("scenario, params, built", [
    ("verify-algebra", None, [(14, 14)]),
    ("solve-ladder", GENERALIZED_21, [(14, 14)]),
    ("spectrum", GENERALIZED_21, [(14, 14)]),
    ("eigenstate", GENERALIZED_21, [(14, 14)]),
    ("chen", None, [(14, 14)]),
    ("catalogue-sweep", None, [(14, 14)]),
    # a rotation is certified on the box n1, n2 <= 7 that holds its
    # columns; a displacement alone on one-mode factors, with no set
    ("reduce", GENERALIZED_21, [(7, 7)]),
    ("reduce", {"beta0": 3.0, "beta3": 1.0, "gamma1": [0.15, 0.0]}, []),
])
def test_each_scenario_builds_one_generator_set(tmp_path, monkeypatch, scenario, params,
                                                built):
    cutoffs = []

    def counted(cutoff):
        cutoffs.append((cutoff.n1_max, cutoff.n2_max))
        return build_generators(cutoff)

    monkeypatch.setattr(cli, "build_generators", counted)
    monkeypatch.setattr(reductions, "build_generators", counted)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": params} if params else {}))
    assert run([scenario, "--config", str(cfg), "--cutoff", "14,14",
                "--out", str(tmp_path)]) == 0
    assert cutoffs == built


LINEAR_ISO = {"beta0": 2.0, "gamma1": [0.2, 0.1], "gamma2": [0.0, -0.15]}


def test_witnessed_spectrum_loads_no_shift_invert(tmp_path):
    # the couplings join shells, but every chain state pins its eigenvalue,
    # so no shift-invert solve runs
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": LINEAR_ISO, "n_max": 6}))
    probe = ("import sys; from ladderforge.cli import run; "
             f"code = run(['spectrum', '--config', {str(cfg)!r}, '--cutoff', '40,40', "
             f"'--out', {str(tmp_path)!r}]); "
             "print(code, 'scipy.sparse.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["0", "False"]
    assert json.loads((tmp_path / "spectrum.json").read_text())["report"]["oracle_fallbacks"] == 0


def test_spectrum_verdict_matches_the_dense_oracle_where_witnesses_fall_back(tmp_path):
    # a chain of 40 steps at cutoff 20 runs past the certified interior; the
    # certified states near its edge pin nothing and take shift-invert, and
    # the uncertified ones past it are not looked up
    from ladderforge.fock import FockCutoff, build_generators
    from ladderforge.params import build_hamiltonian, params_from_json
    from oracles import csr, diagonalize_oracle

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": LINEAR_ISO, "n_max": 40}))
    code = run(["spectrum", "--config", str(cfg), "--cutoff", "20,20", "--out", str(tmp_path)])
    report = json.loads((tmp_path / "spectrum.json").read_text())["report"]
    assert report["oracle_fallbacks"] > 0
    h = build_hamiltonian(params_from_json(LINEAR_ISO), build_generators(FockCutoff(20, 20)))
    dense = diagonalize_oracle(csr(h), 3)
    worst = 0.0
    assert not all(e["certified"] for e in report["entries"])
    for e in report["entries"]:
        if not e["certified"]:
            assert e["energy_oracle"] is None
            continue
        nearest = dense[np.argmin(np.abs(dense - e["energy_chain"]))]
        assert abs(e["energy_oracle"] - nearest) <= 1e-11
        worst = max(worst, e["residual"], abs(e["energy_chain"] - nearest))
    assert abs(report["worst_residual"] - worst) <= 1e-13
    assert code == (0 if worst <= report["tolerance"] else 1)


@pytest.mark.parametrize("params,n_max,per_shell", [
    # generalized 2:1: the chain states pin every eigenvalue, so neither the
    # per-shell nor the shift-invert path runs
    (GENERALIZED_21, 3, False),
    # Appendix B6: the couplings join shells, and the states pin every eigenvalue
    (B6_PARAMS, 3, False),
    # a chain as long as the cutoff ends in states that pin nothing; without
    # linear coupling those take the per-shell path
    (GENERALIZED_21, 52, True),
])
def test_spectrum_forms_no_dense_matrix_beyond_a_shell(tmp_path, monkeypatch, params,
                                                       n_max, per_shell):
    cutoff = 52
    shell = cutoff - 3 + 1   # the most states of one shell of the degree-3 interior
    shapes = {"eigvalsh": [], "toarray": []}

    def recorded(name, method):
        def wrapper(m, *args, **kwargs):
            shapes[name].append(m.shape)
            return method(m, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(sp.csr_matrix, "toarray", recorded("toarray", sp.csr_matrix.toarray))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": params, "n_max": n_max}))
    assert run(["spectrum", "--config", str(cfg), "--cutoff", f"{cutoff},{cutoff}",
                "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "spectrum.json").read_text())["report"]
    assert (report["oracle_fallbacks"] > 0) == per_shell
    assert bool(shapes["eigvalsh"]) == per_shell
    assert all(rows <= shell and cols <= shell
               for rows, cols in shapes["eigvalsh"] + shapes["toarray"])


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
    # finite parameters whose squares overflow: the gates square beta3
    # (su2_invariant) and the reduction the rotated couplings
    ("solve-ladder", {"params": {"beta0": 1e300, "beta3": 1e300}}, []),
    *[(s, {"params": {"beta0": 2, "gamma1": [1e300, 0]}}, [])
      for s in ("spectrum", "eigenstate", "reduce")],
    # finite squares whose sums overflow: b^2 = 4|beta_plus|^2 + beta3^2
    # and |gamma1|^2 + |gamma2|^2
    ("solve-ladder", {"params": {"beta0": 2.5, "beta_plus": [1e154, 0], "beta3": 1e154}}, []),
    ("reduce", {"params": {"beta0": 2, "gamma1": [1e154, 0], "gamma2": [1e154, 0]}}, []),
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
    from ladderforge.reductions import reduction_chain, reduction_frame

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"params": params, "n_max": 4}, fh)
        code = run(["spectrum", "--config", path, "--cutoff", f"{cutoff},{cutoff}",
                    "--out", tmp])
        if code == 0:
            return      # exit 0: some entries certified and every one passed
        if code == 65:  # the frame's vacuum lies past the degree-3 interior
            frame = reduction_frame(params_from_json(params))
            assert frame.vacuum_lost(cutoff - 3, cutoff - 3) > 1e-10, (params, cutoff)
            return
        assert code == 2, (params, cutoff, code)
        try:
            reduction_chain(params_from_json(params))
        except DomainError as exc:   # a coupling on a vanishing mode frequency
            assert exc.code == "resonant"
            return
        with open(os.path.join(tmp, "spectrum.json"), encoding="utf-8") as fh:
            reason = json.load(fh)["report"]["reason"]
        assert reason in ("no ladder", "no certified chain entries"), (params, reason)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_gate_params(), st.sampled_from([(12, 16), (20, 20)]))
def test_verify_ladder_matches_the_csr_oracle_on_gate_surfaces(params, cutoff):
    p = params_from_json(params)
    g = build_generators(FockCutoff(*cutoff))
    for c in solve_ladder(p).coeffs:
        assert abs(verify_ladder(p, c, g) - csr_verify_ladder(p, c, g)) <= 2e-12, params


@pytest.mark.parametrize("cut", [(8, 8), (12, 16), (24, 24)])
def test_algebra_identities_match_their_csr_form(cut):
    # single generators with coefficients +/-1, +/-0.5 and -2: the entries are
    # products and sums of real numbers, rounded alike on both paths
    g = build_generators(FockCutoff(*cut))
    c = csr_generators(g)
    for name, x, y, degree, z in _ALGEBRA_IDENTITIES:
        op = commutator(getattr(c, x), getattr(c, y)) + combine(g, z)
        want = interior_residual(op, interior_indices(g.cutoff, degree))
        got = commutator_residual(g, g.shifts([(x, 1)]), g.shifts([(y, 1)]), g.shifts(z), degree)
        assert got == want, name


@pytest.mark.parametrize("cut", [(5, 1), (12, 16), (24, 24)])
def test_commutator_residual_reuses_its_work_arrays_exactly(cut, rng):
    # one generator set's work arrays serve every call: interleaved operands
    # of one to nine terms (and none), at every degree, the largest box after
    # smaller ones, give the residual of a fresh set bit for bit
    g = build_generators(FockCutoff(*cut))
    names = list(fock._GENERATORS)

    def terms():
        picked = rng.choice(names, size=rng.integers(0, 10), replace=False)
        return [(str(n), complex(*rng.normal(size=2))) for n in picked]

    calls = [(terms(), terms(), terms(), int(degree))
             for degree in [*rng.permutation(min(cut) + 1), 0, min(cut)] * 3]
    calls += [(calls[0][0], calls[0][1], [], calls[0][3]), ([], calls[1][1], [], 0)]
    for x, y, z, degree in calls:
        got = commutator_residual(g, g.shifts(x), g.shifts(y), g.shifts(z), degree)
        fresh = build_generators(FockCutoff(*cut))
        want = commutator_residual(fresh, fresh.shifts(x), fresh.shifts(y), fresh.shifts(z),
                                   degree)
        assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64), degree


def test_ladder_and_algebra_checks_build_no_csr_matrix(tmp_path, monkeypatch):
    built = []
    assemble = fock.Operator.csr

    def counting(self):
        built.append(1)
        return assemble(self)

    monkeypatch.setattr(fock.Operator, "csr", counting)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"beta0": 2.5, "beta_plus": 0.4, "beta3": 0.6,
                                          "gamma1": [0.2, 0.1], "gamma2": 0.1}}))
    for argv in (["solve-ladder", "--config", str(cfg)], ["catalogue-sweep"],
                 ["verify-algebra"]):
        assert run([*argv, "--cutoff", "12,12", "--out", str(tmp_path)]) == 0, argv
    assert built == []


# ---------------------------------------------------------------------------
# the report writer gives json.dumps(o, sort_keys=True, indent=2, default=float)
# ---------------------------------------------------------------------------

def _json_dumps(o) -> str:
    return json.dumps(o, sort_keys=True, indent=2,
                      default=lambda x: x.tolist() if isinstance(x, np.ndarray) else float(x))


@pytest.mark.parametrize("o", [
    {}, [], {"a": []}, {"a": {}}, [[]], [[1.0], []], [[1.0, 2.0], [3.0]], [(1.0, 2.0)],
    (1.0, 2.0), [1.0, float("nan")], [float("inf"), -float("inf")], [[1.0, float("nan")]],
    [[1.0, float("inf")], [2.0, 3.0]], [1e308, 1e308], [True, False, None], [1, 2.0],
    [[1, 2.0]], [[True, 1.0]], [np.float64(1.5), 2.0], [[np.float64(1.0), 2.0]],
    [np.int64(3), np.bool_(True), np.float32(0.1)], {"x": np.float64(-0.0)},
    {"b": [1.0, -0.0, 5e-324, 1.0 / 3], "a": [[0.5, -2.5e-17], [1e16, -3.0]]},
    {"\u00e9 \"q\" \\": "\x00\u2603"}, {1: 2, 3: 4}, {1.5: 0, 2.5: 1}, {None: 1}, {True: 1},
    {"deep": [[[1.0]], {"k": [[2.0, 3.0, 4.0]]}]}, 3, "s", None, True, 2.5, float("nan"),
    np.array([1.0, -0.0, 5e-324, 1e-300]), np.array([[0.5, float("nan")], [float("inf"), 2.0]]),
    {"s": np.arange(24.0).reshape(2, 3, 4) / 7}, [np.array([[1e16]])], np.zeros((0, 2)),
    np.zeros((2, 0)), np.array(2.5), np.array([3, 4]), np.float32([0.1, 2.0]),
])
def test_report_writer_is_json_dumps(o):
    assert _json_text(o) == _json_dumps(o)


def test_report_writer_refuses_what_json_refuses():
    for o in ({(1, 2): 0.5}, {"a": 1j}, [[1.0, 2.0], ["x", 3j]]):
        with pytest.raises(TypeError):
            _json_dumps(o)
        with pytest.raises(TypeError):
            _json_text(o)


_JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
                | st.lists(st.floats(), max_size=4)
                | st.integers(1, 3).flatmap(lambda k: st.lists(
                    st.lists(st.floats(allow_nan=False, allow_infinity=False),
                             min_size=k, max_size=k), max_size=4))
                | st.integers(1, 3).flatmap(lambda k: st.lists(
                    st.lists(st.floats(), min_size=k, max_size=k), max_size=4).map(
                        lambda rows: np.array(rows, dtype=float).reshape(len(rows), k))))


@settings(max_examples=150, deadline=None)
@given(st.recursive(_JSON_LEAVES, lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(st.text(max_size=4), inner, max_size=4), max_leaves=12))
def test_drawn_reports_are_written_as_json_dumps(o):
    assert _json_text(o) == _json_dumps(o)


def test_every_scenario_report_is_written_as_json_dumps(tmp_path, monkeypatch):
    # the reports as the runners return them (numpy scalars included)
    written = []

    def writer(o, *args):
        text = cli_writer(o, *args)
        if not args:
            written.append(text == _json_dumps(o))
        return text

    cli_writer = cli._json_text
    monkeypatch.setattr(cli, "_json_text", writer)
    cfg = tmp_path / "cfg.json"
    # the eigenstate's amplitudes fall below 1e-100, where float.__repr__ is slowest
    cfg.write_text(json.dumps({"params": GENERALIZED_21, "n_max": 3,
                               "request": {"kappa": 1, "lambda": 1e-10}}))
    calls = [["verify-algebra", "--cutoff", "8,8"], ["catalogue-sweep", "--cutoff", "8,8"],
             ["solve-ladder", "--cutoff", "8,8"], ["spectrum", "--cutoff", "12,12"],
             ["eigenstate", "--cutoff", "12,12"], ["reduce", "--cutoff", "12,12"],
             ["chen", "--p", "2", "--q", "1", "--cutoff", "12,12"]]
    codes = [run(argv + ["--config", str(cfg), "--out", str(tmp_path)]) for argv in calls]
    assert codes == [0] * len(calls)
    assert written == [True] * len(calls)
    amps = json.loads((tmp_path / "eigenstate.json").read_text())["report"]["state"]["amplitudes"]
    assert 0 < min(abs(x) for pair in amps for x in pair if x) < 1e-100
