import json
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderforge.cli import run
from ladderforge.errors import DomainError, LadderForgeError
from ladderforge.fock import FockCutoff, Operator, build_generators
from ladderforge.params import (HamiltonianParams, LadderCoeffs,
                                build_hamiltonian, build_ladder, params_from_json,
                                params_to_json, solve_ladder, verify_ladder)
from ladderforge.eigenstates import (EigenstateRequest, chain_seed,
                                     reduced_eigenstate, verify_eigenstate)
from ladderforge.params import classify
from ladderforge import fock, reductions
from ladderforge.reductions import (_compose, reduce_by_similarity, reduction_chain,
                                    reduction_frame)
from oracles import (build_chain, build_unitary, coeffs_from_json, diagonalize_oracle,
                     frame_columns, full_grid_reduce_residuals, full_grid_shell_max,
                     hamiltonian_params_from_matrix,
                     interior_residual, ladder_coeffs_from_matrix, reduced_params,
                     rotated_couplings, rotation_safe_degree, shell_indices, similarity,
                     unitary_spec_from_json)


def gate_params(beta0, beta3, b, theta=0.7, **kw):
    r = np.sqrt((b ** 2 - beta3 ** 2) / 4.0)
    return HamiltonianParams(beta0=beta0, beta_plus=r * np.exp(1j * theta),
                             beta3=beta3, **kw)


def combined_coeffs(report):
    out = LadderCoeffs()
    for c in report.coeffs:
        out = out.plus(c)
    return out


@pytest.mark.parametrize("beta0,eps,target_beta3", [
    (0.5, 1, 1.5),    # below 2: T(+1) lands on +b
    (3.5, 1, 1.5),
    (0.5, -1, -1.5),
    (3.5, -1, -1.5),
])
def test_fractional_reduction_signs(gen14, beta0, eps, target_beta3):
    b = abs(2.0 - beta0)
    p = gate_params(beta0, 0.5, b)
    rep = solve_ladder(p)
    red = reduce_by_similarity(p, rep.coeffs[0], gen14.cutoff, eps=eps)
    assert red.h_residual < 1e-8
    assert red.a_residual < 1e-8
    assert abs(red.params.beta_plus) < 1e-10
    assert abs(red.params.beta3 - target_beta3) < 1e-9
    # reduced ladder is a single annihilation direction
    arr = np.abs(red.coeffs.as_array())
    assert max(arr[2:7]) < 1e-9
    assert max(arr[0], arr[1]) > 0.1


def test_extended_21_reduction(gen14):
    p = gate_params(3.0, 0.0, 1.0, theta=0.4)
    rep = solve_ladder(p)
    red = reduce_by_similarity(p, combined_coeffs(rep), gen14.cutoff)
    assert abs(red.params.beta0 - 3.0) < 1e-9
    assert abs(red.params.beta3 - 1.0) < 1e-9
    assert red.h_residual < 1e-8
    # reduced operator has the 2:1 shape mu2 a2 + alpha+ J-
    assert abs(red.coeffs.mu1) < 1e-9
    assert abs(red.coeffs.alpha3) < 1e-9
    assert abs(red.coeffs.mu2) > 0.1 and abs(red.coeffs.alpha_plus) > 0.1


def test_generalized_21_reduction(gen14):
    p = gate_params(3.0, 0.6, 1.0)
    rep = solve_ladder(p)
    red = reduce_by_similarity(p, combined_coeffs(rep), gen14.cutoff)
    assert abs(red.params.beta3 - 1.0) < 1e-9
    # printed su(2) amplitude of the reduced ladder: -alpha3 e^{i theta}/(2R)
    expected_ap = -1.0 * np.exp(1j * p.theta) / (2 * abs(p.beta_plus))
    assert abs(red.coeffs.alpha_plus - expected_ap) < 1e-8


def test_b2_reduction_to_j3(gen14):
    p = gate_params(0.0, 0.8, 2.0, theta=1.1)
    red = reduce_by_similarity(p, LadderCoeffs(mu1=1.0), gen14.cutoff)
    assert abs(red.params.beta0) < 1e-9
    assert abs(red.params.beta3 - 2.0) < 1e-9
    assert red.h_residual < 1e-8


def test_composite_reduction_with_couplings(gen14):
    p = gate_params(2.5, 0.6, 1.0, gamma1=0.12 + 0.09j, gamma2=0.10 - 0.06j, h0=0.3)
    rep = solve_ladder(p)
    red = reduce_by_similarity(p, rep.coeffs[0], gen14.cutoff)
    assert [s.kind for s in red.chain] == ["mix_t", "displace1", "displace2"]
    assert red.h_residual < 1e-8
    assert abs(red.params.gamma1) < 1e-9 and abs(red.params.gamma2) < 1e-9
    g1, g2 = rotated_couplings(p)
    expected_h0 = p.h0 - 2 * abs(g1) ** 2 / (p.beta0 + 1) - 2 * abs(g2) ** 2 / (p.beta0 - 1)
    assert abs(red.params.h0 - expected_h0) < 1e-9


def test_displaced_iso_reduction(gen14):
    p = HamiltonianParams(beta0=2.0, gamma1=0.2 + 0.1j, gamma2=0.15 - 0.05j)
    rep = solve_ladder(p)
    red = reduce_by_similarity(p, rep.coeffs[0], gen14.cutoff)
    assert [s.kind for s in red.chain] == ["displace1", "displace2"]
    assert abs(red.params.h0 - (-(abs(p.gamma1) ** 2 + abs(p.gamma2) ** 2))) < 1e-9
    # displacement amplitudes are -gamma_i for unit frequencies
    assert abs(complex(red.chain[0].params["alpha"]) + p.gamma1) < 1e-12
    assert abs(complex(red.chain[1].params["alpha"]) + p.gamma2) < 1e-12


def test_displaced_21_reduction(gen14):
    p = HamiltonianParams(beta0=3.0, beta3=1.0, gamma1=0.12 + 0.09j,
                          gamma2=0.10 - 0.06j)
    rep = solve_ladder(p)
    red = reduce_by_similarity(p, combined_coeffs(rep), gen14.cutoff)
    assert [s.kind for s in red.chain] == ["displace1", "displace2"]
    assert abs(complex(red.chain[0].params["alpha"]) + p.gamma1 / 2.0) < 1e-12
    assert abs(complex(red.chain[1].params["alpha"]) + p.gamma2) < 1e-12
    assert abs(red.coeffs.mu2 - 1.0) < 1e-9
    assert abs(red.coeffs.alpha_plus - 1.0) < 1e-9
    assert abs(red.coeffs.nu2) < 1e-9 and abs(red.coeffs.mu1) < 1e-9


def test_resonant_refusal(gen14):
    # mode-2 frequency (beta0 - beta3)/2 vanishes with a surviving coupling
    p = HamiltonianParams(beta0=2.0, beta3=2.0, gamma2=0.3)
    with pytest.raises(DomainError) as err:
        reduce_by_similarity(p, LadderCoeffs(mu1=1.0), gen14.cutoff)
    assert err.value.code == "resonant"


def test_interior_spectra_invariant(gen14):
    # number-conserving H: the reduced and original interior spectra agree
    # below the truncation frontier
    p = gate_params(3.0, 0.6, 1.0)
    rep = solve_ladder(p)
    red = reduce_by_similarity(p, combined_coeffs(rep), gen14.cutoff)
    h = build_hamiltonian(p, gen14)
    u = build_chain(red.chain, gen14)
    h_rot = similarity(u, h)
    deg = rotation_safe_degree(gen14.cutoff)
    e1 = diagonalize_oracle(h, deg)
    e2 = diagonalize_oracle(h_rot, deg)
    # complete shells end at s = n_max - deg; above it per-mode boxes clip
    # shells and eigenvalues are truncation artifacts on both sides
    w_min = (p.beta0 - 1.0) / 2.0
    e_cut = (gen14.cutoff.n1_max - deg + 1) * w_min
    f1 = e1[e1 < e_cut - 1e-9]
    f2 = e2[e2 < e_cut - 1e-9]
    assert len(f1) == len(f2) > 10
    assert np.max(np.abs(f1 - f2)) < 1e-7


def test_reduction_chain_maps_states(gen14):
    # U|reduced ground> is the ground state of the original family
    p = gate_params(2.5, 0.6, 1.0)
    rep = solve_ladder(p)
    red = reduce_by_similarity(p, rep.coeffs[0], gen14.cutoff)
    u = build_chain(red.chain, gen14)
    from ladderforge.fock import apply, basis_state
    kappa = 2
    reduced_ground = basis_state(gen14.cutoff, 0, kappa)
    v = apply(u, reduced_ground)
    a = build_ladder(rep.coeffs[0], gen14)
    from ladderforge.eigenstates import verify_eigenstate
    assert verify_eigenstate(a, v, 0.0, rotation_safe_degree(gen14.cutoff)) < 1e-9


@pytest.mark.parametrize("kinds,cutoff,p", [
    (["mix_t"], 24, gate_params(3.0, 0.6, 1.0)),
    (["displace1", "displace2"], 18,
     HamiltonianParams(beta0=3.0, beta3=1.0, gamma1=0.3 + 0.2j, gamma2=0.15 - 0.1j)),
    (["mix_t", "displace1", "displace2"], 14,
     gate_params(2.8, -0.4, 1.0, gamma1=0.1 - 0.05j, gamma2=0.08j)),
], ids=["rotation", "displacements", "rotation+displacements"])
def test_stepwise_conjugation_matches_composed_chain(kinds, cutoff, p):
    # the closed form and the residuals of reduce against the conjugation
    # by the composed U of build_chain
    g = build_generators(FockCutoff(cutoff, cutoff))
    c = combined_coeffs(solve_ladder(p))
    red = reduce_by_similarity(p, c, g.cutoff)
    assert [s.kind for s in red.chain] == kinds
    u = build_chain(red.chain, g)
    h_ref = similarity(u, build_hamiltonian(p, g))
    a_ref = similarity(u, build_ladder(c, g))
    p_ref = hamiltonian_params_from_matrix(h_ref, g, shell_max=red.shell_max)
    c_ref = ladder_coeffs_from_matrix(a_ref, g, shell_max=red.shell_max)
    for name in ("beta0", "beta_plus", "beta3", "gamma1", "gamma2", "h0"):
        assert abs(getattr(red.params, name) - getattr(p_ref, name)) <= 1e-12
    assert np.max(np.abs(red.coeffs.as_array() - c_ref.as_array())) <= 1e-12
    keep = shell_indices(g.cutoff, red.shell_max)
    assert interior_residual(h_ref - build_hamiltonian(p_ref, g), keep) < 1e-8
    assert interior_residual(a_ref - build_ladder(c_ref, g), keep) < 1e-8
    assert red.h_residual < 1e-8 and red.a_residual < 1e-8


# ---------------------------------------------------------------------------
# the reduction frame against the dense chain U = build_chain(chain)
# ---------------------------------------------------------------------------

FRAME_FAMILIES = {
    "generalized 2:1": gate_params(3.0, 0.5, 1.0),
    "generalized 2:1, beta3 < 0": gate_params(3.0, -0.5, 1.0, theta=2.1),
    "1:2": HamiltonianParams(beta0=3.0, beta3=-1.0),
    "Appendix A 1:2": HamiltonianParams(beta0=3.0, beta3=-1.0, gamma1=0.2 + 0.1j,
                                        gamma2=-0.15j),
    "Appendix B6": gate_params(2.5, 0.6, 1.0, gamma1=0.12 + 0.09j, gamma2=0.1 - 0.06j),
    "su(2)": gate_params(2.2, 0.3, 1.0, theta=1.1),
    "fractional": gate_params(2.5, 0.3, 0.5),
    "fractional nu": gate_params(-2.5, -0.3, 0.5),
    "linear fractional": gate_params(1.5, 0.3, 0.5, gamma1=0.1 + 0.05j, gamma2=-0.08j),
    "b = 2": gate_params(0.0, 0.3, 2.0),
    "linear iso": HamiltonianParams(beta0=2.0, gamma1=0.2 + 0.1j, gamma2=-0.15j),
}
EIGEN_FAMILIES = ("generalized 2:1", "generalized 2:1, beta3 < 0", "1:2", "Appendix A 1:2",
                  "su(2)", "fractional", "linear fractional", "b = 2", "linear iso")


def _dense_image(p, basic_state, g):
    """U P |basic>: the dense chain applied to a basic-frame state, P the mode
    swap when the chain lands on beta3 < 0."""
    _, landed = reduction_chain(p)
    amps = basic_state.amplitudes
    if landed.beta3 < 0:
        amps = amps.reshape(g.cutoff.n1_max + 1, -1).T.ravel()
    return build_chain(reduction_chain(p)[0], g).mat @ amps


def _low_shell_distance(got, want, g):
    """Distance between the two rays restricted to the shells n1 + n2 <= N/2
    (the global normalization also counts the incomplete outer shells)."""
    keep = shell_indices(g.cutoff, g.cutoff.n1_max // 2)
    got, want = got[keep] / np.linalg.norm(got[keep]), want[keep] / np.linalg.norm(want[keep])
    overlap = np.vdot(got, want)
    return float(np.linalg.norm(want - overlap / abs(overlap) * got))


@pytest.mark.parametrize("n", [14, 20])
@pytest.mark.parametrize("name", sorted(FRAME_FAMILIES))
def test_frame_carries_chain_seeds_like_the_dense_chain(name, n):
    p = FRAME_FAMILIES[name]
    g = build_generators(FockCutoff(n, n))
    frame = reduction_frame(p)
    for kappa in (0, 1, 2):
        want = _dense_image(p, chain_seed(reduction_frame(frame.basic), kappa, g), g)
        got = chain_seed(frame, kappa, g).amplitudes
        assert _low_shell_distance(got, want, g) < 1e-10, kappa


@pytest.mark.parametrize("n", [14, 20])
@pytest.mark.parametrize("name", EIGEN_FAMILIES)
def test_frame_carries_eigenstates_like_the_dense_chain(name, n):
    p = FRAME_FAMILIES[name]
    g = build_generators(FockCutoff(n, n))
    basic = reduction_frame(p).basic
    branches = 3 if classify(basic).kind.value == "Basic21" else 2
    # the dense oracle's truncated displacement is exact on low shells only
    # while the state's tail at the cutoff is small; the squeezed 2:1 branch
    # at |lambda| = 0.36 keeps amplitudes near 1e-4 at n = 14
    for lam, branch, kappa in [(0.15 + 0.1j, 1, 0), (0.25 - 0.1j, 2, 1), (0.2j, 3, 2)]:
        def state(q):
            # c2 = 0 is what the linear-coupled isotropic family's default c1 = 1 gives
            req = EigenstateRequest(tag=classify(q), lam=lam, branch=min(branch, branches),
                                    kappa=kappa, c2=0j)
            return reduced_eigenstate(q, solve_ladder(q), req, g)
        got, ladder, lam_used = state(p)
        want = _dense_image(p, state(basic)[0], g)
        assert _low_shell_distance(got.amplitudes, want, g) < 1e-10, (lam, branch)
        # and it is an eigenstate of a ladder of H from the solver's span
        h = build_hamiltonian(p, g)
        a = build_ladder(ladder, g)
        assert interior_residual(h @ a - a @ h + a, shell_indices(g.cutoff, n // 2)) < 1e-10
        assert verify_eigenstate(a, got, lam_used, 4) < 1e-10


@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("name", sorted(FRAME_FAMILIES))
def test_frame_columns_match_the_dense_chain(name, eps):
    # on the shells n1 + n2 <= N/2 the truncated expm of every factor is
    # exact, and the frame's columns are exact everywhere
    p = FRAME_FAMILIES[name]
    g = build_generators(FockCutoff(20, 20))
    chain, basic = reduction_chain(p, eps)
    keep = shell_indices(g.cutoff, 10)
    got = frame_columns(_compose(chain, basic), g.cutoff, keep)
    want = build_chain(chain, g).to_dense()[:, keep]
    assert np.max(np.abs(got[keep] - want[keep])) < 1e-10


def _shift_h0(chain, params):
    return chain, replace(params, h0=params.h0 + 1e-6)


def _turn_rotation(chain, params):
    spec = chain[0]
    angle = spec.params["angle"] + 1e-6
    return [replace(spec, params={**spec.params, "angle": angle}), *chain[1:]], params


# an Appendix B6 point whose displacements reach |alpha| = 0.5
B6_WIDE = {"beta0": 2.5, "beta_plus": [0.4, 0.0], "beta3": 0.6,
           "gamma1": [0.81, 0.18], "gamma2": [0.36, -0.27]}


@pytest.mark.parametrize("perturb", [None, _shift_h0, _turn_rotation])
def test_reduce_residuals_see_a_wrong_chain(tmp_path, monkeypatch, perturb):
    # the residuals certify the true chain and refuse one that is off by 1e-6
    params = B6_WIDE
    chain = reduction_chain(params_from_json(params))[0]
    assert [s.kind for s in chain] == ["mix_t", "displace1", "displace2"]
    assert max(abs(s.params.get("alpha", 0)) for s in chain) > 0.45
    if perturb is not None:
        true_chain = reduction_chain
        monkeypatch.setattr(reductions, "reduction_chain",
                            lambda p, eps=1: perturb(*true_chain(p, eps)))
    code, report = _reduce(tmp_path, params, 1, 24)
    assert code == (0 if perturb is None else 1), report
    assert (max(report["h_residual"], report["a_residual"]) > 1e-7) == (perturb is not None)


@pytest.mark.parametrize("params,cutoff", [(B6_WIDE, 12), (B6_WIDE, 16), (B6_WIDE, 20),
                                           ({"beta0": 2.5, "beta_plus": [0.4, 0], "beta3": 0.6,
                                             "gamma1": [0.1, 0.05]}, 16)])
def test_reduce_certifies_on_the_intact_shells(tmp_path, params, cutoff):
    # S stops below the first shell whose columns lose more than 1e-13 of
    # their norm past the cutoff (|alpha| = 0.5 leaks from the top shells of
    # N//2, |alpha| = 0.1 does not), and the residuals on it carry no truncation
    code, report = _reduce(tmp_path, params, 1, cutoff)
    assert code == 0, report
    assert max(report["h_residual"], report["a_residual"]) < 1e-11
    shell_max = report["shell_max"]
    stops = params is B6_WIDE
    assert 1 <= shell_max and (shell_max < cutoff // 2) == stops
    cut = FockCutoff(cutoff, cutoff)
    keep = shell_indices(cut, shell_max + 1)
    lost = 1 - np.linalg.norm(frame_columns(reduction_frame(params_from_json(params)), cut, keep),
                              axis=0) ** 2
    inside = np.isin(keep, shell_indices(cut, shell_max))
    assert lost[inside].max() <= reductions._INTACT
    assert (lost[~inside].max() > reductions._INTACT) == stops


def test_reduce_refuses_a_cutoff_without_an_intact_shell(tmp_path):
    # at cutoff 8 the displaced shell-1 columns already lose 4e-9
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": B6_WIDE}))
    assert run(["reduce", "--config", str(cfg), "--cutoff", "8,8",
                "--out", str(tmp_path)]) == 65
    assert not (tmp_path / "reduce.json").exists()


@pytest.mark.parametrize("params,cutoff", [(B6_WIDE, 8), (B6_WIDE, 11),
                                           (dict(B6_WIDE, gamma1=[3.0, 0.2]), 10)])
def test_reduce_names_the_least_cutoff_that_certifies(tmp_path, capsys, params, cutoff):
    # exit 65 names N: reduce at N,N certifies shell 1 and at N-1,N-1 exits 65 again
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": params}))

    def reduce_at(n):
        return run(["reduce", "--config", str(cfg), "--cutoff", f"{n},{n}",
                    "--out", str(tmp_path / str(n))])

    assert reduce_at(cutoff) == 65
    message = capsys.readouterr().err
    n, n2 = map(int, message.split("; ")[-1].split()[0].split(","))
    assert n == n2 > cutoff and message.endswith("is the least cutoff that keeps them\n")
    assert reduce_at(n) == 0
    assert json.loads((tmp_path / str(n) / "reduce.json").read_text())["report"]["shell_max"] >= 1
    assert reduce_at(n - 1) == 65


def test_reduce_says_when_no_searched_cutoff_certifies(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": dict(B6_WIDE, gamma1=[30.0, 0.2])}))
    assert run(["reduce", "--config", str(cfg), "--cutoff", "8,8"]) == 65
    assert capsys.readouterr().err.endswith("no cutoff up to 256,256 keeps them\n")


@pytest.mark.parametrize("gamma1", [1e20, 1e100])
def test_reduce_counts_a_column_that_is_not_finite_as_lost(tmp_path, capsys, gamma1):
    # a displacement this large overflows the vacuum column's coherent
    # amplitudes, at 14,14 or at a searched cutoff: that column is lost,
    # no shell is intact, and no RuntimeWarning is raised on the way
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"beta0": 2, "gamma1": [gamma1, 0]}}))
    assert run(["reduce", "--config", str(cfg), "--cutoff", "14,14",
                "--out", str(tmp_path)]) == 65
    assert capsys.readouterr().err.endswith("no cutoff up to 256,256 keeps them\n")
    assert not (tmp_path / "reduce.json").exists()


@pytest.mark.parametrize("scenario", ["eigenstate", "spectrum"])
def test_states_whose_coherent_amplitudes_overflow_exit_65(tmp_path, capsys, scenario):
    # the frame displaces the vacuum by about 1e20: x^n / sqrt(n!) overflows
    # on the grid, and the state's weight lies near n = 1e40
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"beta0": 2, "gamma1": [1e20, 0]},
                               "request": {"lambda": 0.5}}))
    assert run([scenario, "--config", str(cfg), "--cutoff", "14,14",
                "--out", str(tmp_path)]) == 65
    assert "overflows on cutoff 14,14" in capsys.readouterr().err
    assert not (tmp_path / f"{scenario}.json").exists()


@pytest.mark.parametrize("scenario, params", [
    ("solve-ladder", {"beta0": 2.5, "beta_plus": [1e154, 0], "beta3": 1e154}),
    ("reduce", {"beta0": 2, "gamma1": [1e154, 0], "gamma2": [1e154, 0]}),
])
def test_parameters_whose_sums_of_squares_overflow_exit_64(tmp_path, scenario, params):
    # each square is finite; b^2 or |gamma1|^2 + |gamma2|^2 is not
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": params}))
    assert run([scenario, "--config", str(cfg), "--cutoff", "14,14",
                "--out", str(tmp_path)]) == 64
    assert not (tmp_path / f"{scenario}.json").exists()


# a frame of each kind: a rotation alone, displacements alone, and both
SUPPORT_FRAMES = {
    "rotation": (gate_params(3.0, 0.5, 1.0), ["mix_t"]),
    "displacement": (HamiltonianParams(beta0=2.0, gamma1=0.2 + 0.1j, gamma2=-0.15j),
                     ["displace1", "displace2"]),
    "rotation and displacement": (gate_params(2.5, 0.6, 1.0, gamma1=0.12 + 0.09j,
                                              gamma2=0.1 - 0.06j),
                                  ["mix_t", "displace1", "displace2"]),
}


@pytest.mark.parametrize("cutoff", [16, 28])
@pytest.mark.parametrize("kind", sorted(SUPPORT_FRAMES))
def test_reduce_residuals_match_the_full_grid_sandwich(kind, cutoff):
    # a rotation alone is certified on its shell blocks, within rounding of
    # the whole-grid sandwich; a displaced frame through its one-mode
    # factors, whose residuals bound the sandwich's, on the same shells S
    p, kinds = SUPPORT_FRAMES[kind]
    c = combined_coeffs(solve_ladder(p))
    g = build_generators(FockCutoff(cutoff, cutoff))
    red = reduce_by_similarity(p, c, g.cutoff)
    assert [s.kind for s in red.chain] == kinds
    assert red.shell_max == full_grid_shell_max(_compose(red.chain, red.params), g.cutoff)
    want = full_grid_reduce_residuals(p, c, red, g)
    assert max(want) < 1e-11 and max(red.h_residual, red.a_residual) < 1e-11
    if kind == "rotation":
        assert abs(red.h_residual - want[0]) <= 1e-14 and abs(red.a_residual - want[1]) <= 1e-14
    else:
        assert red.h_residual >= want[0] - 1e-14 and red.a_residual >= want[1] - 1e-14


@pytest.mark.parametrize("perturb", ["h0", "ladder", "rotation"])
def test_reduce_on_the_shells_refuses_a_false_closed_form(tmp_path, monkeypatch, perturb):
    # a rotation-only frame forms its residuals on the shell blocks of S
    # alone; a reduced h0 or ladder coefficient off by 1e-6, or a rotation
    # turned by 1e-6, still fails there, at cutoff 28 and at 160
    p, _ = SUPPORT_FRAMES["rotation"]
    if perturb == "ladder":
        true_ladder = reductions.Frame.reduced_ladder

        def off(frame, c):
            coeffs = true_ladder(frame, c)
            return replace(coeffs, alpha_minus=coeffs.alpha_minus + 1e-6)
        monkeypatch.setattr(reductions.Frame, "reduced_ladder", off)
    else:
        true_chain = reduction_chain
        wrong = _shift_h0 if perturb == "h0" else _turn_rotation
        monkeypatch.setattr(reductions, "reduction_chain",
                            lambda p, eps=1: wrong(*true_chain(p, eps)))
    for cutoff in (28, 160):
        code, report = _reduce(tmp_path, params_to_json(p), 1, cutoff)
        assert code == 1, report
        assert report["shell_max"] == cutoff // 2
        residual = report["a_residual" if perturb == "ladder" else "h_residual"]
        assert 1e-8 < residual, report


@pytest.mark.parametrize("kind", sorted(SUPPORT_FRAMES))
def test_reduce_forms_its_operators_on_the_frame_support(tmp_path, monkeypatch, kind):
    # at cutoff 28 a rotation is certified on its shell blocks and a
    # displacement on its one-mode factors: no frame builds a CSR matrix
    built = []
    true_csr = fock._csr

    def counted(cutoff, by_shift):
        built.append(cutoff)
        return true_csr(cutoff, by_shift)
    monkeypatch.setattr(fock, "_csr", counted)
    code, report = _reduce(tmp_path, params_to_json(SUPPORT_FRAMES[kind][0]), 1, 28)
    assert code == 0, report
    assert built == []


# a request whose frame is a rotation alone: b^2 = 1, no linear coupling
ROTATION_ONLY = {"beta0": 2.5, "beta_plus": [0.4, 0.0], "beta3": 0.6}


def test_rotation_blocks_stay_unitary_on_every_shell():
    # at cutoff 240,240 reduce certifies the shells up to 120; each block
    # comes from one eigendecomposition of its shell, so its rounding does
    # not grow with the shell as that of columns built by creation steps does
    d = reduction_frame(params_from_json(ROTATION_ONLY)).rotation_blocks(120)
    for s in range(121):
        block = d[s, :s + 1, :s + 1]
        assert np.max(np.abs(block.conj().T @ block - np.eye(s + 1))) <= 1e-14, s
        assert not d[s, s + 1:].any() and not d[s, :, s + 1:].any()


def test_rotation_blocks_follow_the_closing_mode_swap():
    # beta3 < 0 with no rotation ends the frame with the mode swap: U|k, s - k>
    # is |s - k, k>, as the stepped columns give it
    frame = reduction_frame(HamiltonianParams(beta0=2.0, beta3=-1.0))
    assert frame.rotation_only and np.linalg.det(frame.m).real < 0
    d = frame.rotation_blocks(6)
    for s in range(7):
        np.testing.assert_allclose(d[s, :s + 1, :s + 1], np.eye(s + 1)[::-1], atol=1e-15)


def test_reduce_reaches_cutoff_160_on_a_rotation_alone(tmp_path):
    # the shell blocks keep the residuals at rounding level on the shells up
    # to 80, where columns built by creation steps lose unitarity by 1e-7
    code, report = _reduce(tmp_path, ROTATION_ONLY, 1, 160)
    assert code == 0, report
    assert report["shell_max"] == 80
    assert max(report["h_residual"], report["a_residual"]) < 1e-9


# the displaced request of the reach table: beta_plus = 0, so displacements alone
REACH_DISPLACED = {"beta0": 3, "beta3": 1, "gamma1": [0.15, 0], "gamma2": [0, 0.1]}
# a rotation and two displacements of modulus about 0.1
REACH_BOTH = {"beta0": 2.5, "beta_plus": [0.4, 0.0], "beta3": 0.6,
              "gamma1": [0.1, 0.05], "gamma2": [0.02, 0.01]}


# a displacement of modulus 2, whose stepped columns lose orthonormality
REACH_FAR = {"beta0": 3, "beta3": 1, "gamma1": [4, 0]}


@pytest.mark.parametrize("params", [REACH_DISPLACED, REACH_BOTH, REACH_FAR],
                         ids=["displaced", "both", "far"])
def test_displaced_reduce_reaches_cutoff_160(tmp_path, params):
    # the displacements are formed on one mode each and the rotation taken
    # in shell blocks on S: no dim x |S| array, residuals at rounding level
    code, report = _reduce(tmp_path, params, 1, 160)
    assert code == 0, report
    assert report["shell_max"] == 80
    assert max(report["h_residual"], report["a_residual"]) < 1e-10


def test_displaced_number_states_stay_orthonormal():
    # the reach request displaces by 0.075 and 0.1i: columns stepped by
    # (a' - conj(alpha))/sqrt(k) on one mode keep unit norm and orthogonality
    # to 1e-14 up to column 120 (the levels reach far enough to hold them)
    for alpha in (-0.075, -0.1j, 0.15 * np.exp(0.4j)):
        m = reductions._displaced(alpha, 320, 120)
        assert np.max(np.abs(m.conj().T @ m - np.eye(121))) <= 1e-14, alpha
    # past |alpha| sqrt(k_max) = 4 the diagonals' Laguerre recurrence takes
    # over: 1e-13 up to column 120 at any modulus, where stepping reaches
    # 1e-9 at |alpha| = 1 and loses every digit at 2
    for alpha in (0.5, -1.0, 2.0j, 4.0 * np.exp(2.2j)):
        m = reductions._displaced(alpha, 480, 120)
        assert np.max(np.abs(m.conj().T @ m - np.eye(121))) <= 1e-13, alpha
    # where both hold, the two agree: 0.9 sqrt(12) is stepped, 0.9 sqrt(300) not
    stepped, diagonals = (reductions._displaced(0.9 * np.exp(0.3j), 30, k) for k in (12, 300))
    assert np.max(np.abs(stepped - diagonals[:, :13])) <= 1e-14


def _shift_coupling(chain, params):
    # the rotated coupling of mode 1 enters the chain as alpha = -gamma'/omega
    spec = chain[1]
    return [chain[0], replace(spec, params={"alpha": spec.params["alpha"] + 1e-6}),
            *chain[2:]], params


@pytest.mark.parametrize("kind,perturb", [
    ("displacement", "h0"), ("displacement", "ladder"), ("rotation and displacement", "h0"),
    ("rotation and displacement", "ladder"), ("rotation and displacement", "coupling")])
def test_displaced_reduce_refuses_a_false_closed_form(tmp_path, monkeypatch, kind, perturb):
    # a reduced h0, alpha_minus or rotated coupling off by 1e-6 fails the
    # one-mode and shell-block certificate, at cutoff 28 and at 160
    p, _ = SUPPORT_FRAMES[kind]
    if perturb == "ladder":
        true_ladder = reductions.Frame.reduced_ladder

        def off(frame, c):
            coeffs = true_ladder(frame, c)
            return replace(coeffs, alpha_minus=coeffs.alpha_minus + 1e-6)
        monkeypatch.setattr(reductions.Frame, "reduced_ladder", off)
    else:
        true_chain = reduction_chain
        wrong = _shift_h0 if perturb == "h0" else _shift_coupling
        monkeypatch.setattr(reductions, "reduction_chain",
                            lambda p, eps=1: wrong(*true_chain(p, eps)))
    for cutoff in (28, 160):
        code, report = _reduce(tmp_path, params_to_json(p), 1, cutoff)
        assert code == 1, report
        residual = report["a_residual" if perturb == "ladder" else "h_residual"]
        assert 1e-8 < residual, report


def test_rotation_only_reduce_loads_no_scipy(tmp_path):
    # a rotation is certified on the generators' grid weights and a
    # displacement on one-mode factors: no frame builds a CSR matrix, so a
    # rotation alone, displacements alone and both import no scipy module
    configs = []
    for i, params in enumerate((ROTATION_ONLY, REACH_DISPLACED, B6_WIDE)):
        configs.append(str(tmp_path / f"cfg{i}.json"))
        (tmp_path / f"cfg{i}.json").write_text(json.dumps({"params": params}))
    probe = ("import sys; from ladderforge.cli import run; "
             "[print(run(['reduce', '--config', cfg, '--cutoff', '28,28', "
             "'--out', sys.argv[1]]), "
             "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')) "
             "for cfg in sys.argv[2:]]")
    out = subprocess.run([sys.executable, "-c", probe, str(tmp_path), *configs],
                         capture_output=True, text=True, check=True)
    assert out.stdout.split("\n")[:3] == ["0 []"] * 3


def test_reduce_loads_no_dense_linalg(tmp_path):
    # the reduce path builds no unitary: none of scipy's expm machinery, and
    # no sparse norm, is imported by a whole reduce run
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"beta0": 2.5, "beta_plus": [0.4, 0], "beta3": 0.6,
                                          "gamma1": [0.1, 0.05]}}))
    probe = ("import sys; from ladderforge.cli import run; "
             "assert run(['reduce', '--config', sys.argv[1], '--cutoff', '12,12', "
             "'--out', sys.argv[2]]) == 0; "
             "print(sorted(m for m in ('scipy.linalg', 'scipy.sparse.linalg', "
             "'scipy.sparse.csgraph') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe, str(cfg), str(tmp_path)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _conjugated(chain, op: Operator, g) -> Operator:
    """U' O U with U the chain's built unitaries multiplied densely (U is
    dense-filled, where sparse products are slow)."""
    u = np.eye(g.cutoff.dim)
    for spec in chain:
        u = u @ build_unitary(spec, g).to_dense()
    return Operator(g.cutoff, u.conj().T @ op.to_dense() @ u)


@pytest.mark.parametrize("name", sorted(FRAME_FAMILIES))
def test_reduced_ladder_matches_the_conjugated_matrix(gen14, name):
    p = FRAME_FAMILIES[name]
    c = combined_coeffs(solve_ladder(p))
    red = reduce_by_similarity(p, c, gen14.cutoff)
    assert red.chain == reduction_chain(p)[0]
    want = ladder_coeffs_from_matrix(_conjugated(red.chain, build_ladder(c, gen14), gen14),
                                     gen14, shell_max=6)
    assert np.max(np.abs(red.coeffs.as_array() - want.as_array())) < 1e-10
    # reduction_frame ends with the mode swap when the chain lands on beta3 < 0
    if red.params.beta3 < 0:
        want = LadderCoeffs(want.mu2, want.mu1, want.nu2, want.nu1, want.alpha_minus,
                            want.alpha_plus, -want.alpha3, want.a0)
    got = reduction_frame(p).reduced_ladder(c)
    assert np.max(np.abs(got.as_array() - want.as_array())) < 1e-10


# ---------------------------------------------------------------------------
# the matrix readers: the oracle the closed form is compared against
# ---------------------------------------------------------------------------

def test_extraction_roundtrip(gen10):
    p = HamiltonianParams(beta0=1.7, beta_plus=0.3 - 0.4j, beta3=0.2,
                          gamma1=0.5j, gamma2=0.1, h0=-0.3)
    back = hamiltonian_params_from_matrix(build_hamiltonian(p, gen10), gen10)
    assert abs(back.beta0 - p.beta0) < 1e-12
    assert abs(back.beta_plus - p.beta_plus) < 1e-12
    assert abs(back.h0 - p.h0) < 1e-12
    c = LadderCoeffs(mu1=0.2, mu2=-0.4j, nu1=0.1, nu2=0.3 + 0.1j,
                     alpha_plus=0.5, alpha_minus=-0.2j, alpha3=0.7, a0=1.1 - 0.2j)
    back_c = ladder_coeffs_from_matrix(build_ladder(c, gen10), gen10)
    np.testing.assert_allclose(back_c.as_array(), c.as_array(), atol=1e-12)


def test_extraction_rejects_outside_span(gen10):
    bad = gen10.a1_dag @ gen10.a1 @ gen10.a1  # cubic, not in the algebra
    with pytest.raises(LadderForgeError):
        ladder_coeffs_from_matrix(bad, gen10)


# ---------------------------------------------------------------------------
# the reduce scenario against the independent closed form and the readers
# ---------------------------------------------------------------------------

def _reduce(tmp, params: dict, eps: int, cutoff: int):
    """(exit code, report) of the reduce scenario."""
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps({"params": params, "eps": eps}))
    code = run(["reduce", "--config", str(cfg), "--cutoff", f"{cutoff},{cutoff}",
                "--out", str(tmp)])
    return code, json.loads((tmp / "reduce.json").read_text())["report"]


def _check_against_oracles(p: HamiltonianParams, eps: int, report: dict, cutoff: int):
    got = params_from_json(report["reduced_params"])
    want = reduced_params(p, eps)
    for name in ("beta0", "beta_plus", "beta3", "gamma1", "gamma2", "h0"):
        assert abs(getattr(got, name) - getattr(want, name)) <= 1e-10, name
    g = build_generators(FockCutoff(cutoff, cutoff))
    chain = [unitary_spec_from_json(s) for s in report["chain"]]
    a_ref = _conjugated(chain, build_ladder(combined_coeffs(solve_ladder(p)), g), g)
    oracle = ladder_coeffs_from_matrix(a_ref, g, shell_max=report["shell_max"])
    got = coeffs_from_json(report["reduced_coeffs"])
    assert np.max(np.abs(got.as_array() - oracle.as_array())) <= 1e-10


@pytest.mark.parametrize("r", [1e-7, 1e-9])
@pytest.mark.parametrize("eps", [1, -1])
def test_near_endpoint_rotation_reduces_the_coupling(tmp_path, eps, r):
    # beta3 within 1e-14 of b: an angle taken from b - beta3 would cancel
    params = {"beta0": 3, "beta_plus": [r, 0], "beta3": 0.99999999999999, "gamma1": 0.2}
    code, report = _reduce(tmp_path, params, eps, 20)
    assert code == 0, report
    assert [s["kind"] for s in report["chain"]][0] == "mix_t"
    assert report["reduced_params"]["beta_plus"] == [0.0, 0.0]
    assert max(report["h_residual"], report["a_residual"]) < 1e-8
    _check_against_oracles(params_from_json(params), eps, report, 20)


@st.composite
def _coupled_gate_points(draw):
    """A point on b^2 = 1 or (2 -/+ beta0)^2 = b^2 with |beta_plus| down to
    1e-9 b and linear couplings small enough that every displacement of
    either eps has |alpha| <= 0.5, the catalogue's largest (all mode
    frequencies are >= 0.3).  At cutoff 18 such frames keep shell 1 intact:
    reduce certifies them on shells up to 6-9."""
    surface = draw(st.sampled_from(["unit", "mu", "nu"]))
    if surface == "unit":
        b = 1.0
        beta0 = draw(st.floats(1.6, 2.6) | st.floats(3.4, 4.0))
    else:
        b = draw(st.floats(0.3, 0.7) | st.floats(1.3, 1.7))
        beta0 = (2.0 if surface == "mu" else -2.0) + draw(st.sampled_from([1.0, -1.0])) * b
    r = b * 10.0 ** draw(st.sampled_from([-9.0, -7.0]) | st.floats(-9.0, -0.31))
    beta3 = draw(st.sampled_from([1.0, -1.0])) * np.sqrt(b * b - 4.0 * r * r)
    theta = draw(st.floats(0.0, 6.3))
    w_min = min(abs(beta0 + b), abs(beta0 - b)) / 2.0
    z = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 4)))
    z *= 0.5 * w_min / max(np.linalg.norm(z), 1.0)   # |gamma| <= 0.5 |omega|
    return {"beta0": beta0, "beta_plus": [r * np.cos(theta), r * np.sin(theta)],
            "beta3": beta3, "gamma1": list(z[:2]), "gamma2": list(z[2:])}


@settings(max_examples=15, derandomize=True, deadline=None)
@given(_coupled_gate_points(), st.sampled_from([1, -1]))
def test_reduce_on_gate_surfaces_matches_the_closed_form(tmp_path_factory, params, eps):
    p = params_from_json(params)
    g = build_generators(FockCutoff(18, 18))
    for c in solve_ladder(p).coeffs:
        assert verify_ladder(p, c, g) < 1e-10
    code, report = _reduce(tmp_path_factory.mktemp("reduce"), params, eps, 18)
    assert code == 0, (params, eps, report)
    _check_against_oracles(p, eps, report, 18)


@st.composite
def _asymmetric_rotation_points(draw):
    """A point on b^2 = 1 with no linear coupling, so that its frame is a
    rotation alone, and a cutoff N1 != N2 in 8-30."""
    theta = draw(st.floats(0.0, 6.3))
    params = gate_params(draw(st.floats(0.5, 4.0)), draw(st.floats(-0.99, 0.99)), 1.0, theta)
    cutoff = draw(st.lists(st.integers(8, 30), min_size=2, max_size=2, unique=True))
    return params, FockCutoff(*cutoff)


@settings(max_examples=15, derandomize=True, deadline=None)
@given(_asymmetric_rotation_points())
def test_reduce_on_asymmetric_cutoffs_matches_the_full_grid_sandwich(tmp_path_factory, point):
    # the box is min(N1, N2)//2 on both modes, whichever mode is shorter
    p, cut = point
    c = combined_coeffs(solve_ladder(p))
    g = build_generators(cut)
    red = reduce_by_similarity(p, c, g.cutoff)
    assert [s.kind for s in red.chain] == ["mix_t"]
    assert red.shell_max == min(cut.n1_max, cut.n2_max) // 2
    want = full_grid_reduce_residuals(p, c, red, g)
    assert max(want) < 1e-11
    assert abs(red.h_residual - want[0]) <= 1e-14 and abs(red.a_residual - want[1]) <= 1e-14
    out = tmp_path_factory.mktemp("reduce")
    cfg = out / "cfg.json"
    cfg.write_text(json.dumps({"params": params_to_json(p)}))
    assert run(["reduce", "--config", str(cfg), "--cutoff", f"{cut.n1_max},{cut.n2_max}",
                "--out", str(out)]) == 0
    report = json.loads((out / "reduce.json").read_text())["report"]
    assert (report["h_residual"], report["a_residual"]) == (red.h_residual, red.a_residual)


@settings(max_examples=15, derandomize=True, deadline=None)
@given(_coupled_gate_points(), st.sampled_from([1, -1]),
       st.sampled_from([(12, 12), (16, 16), (18, 18), (12, 18), (18, 12)]))
def test_displaced_reduce_matches_the_full_grid_oracle(params, eps, cutoff):
    # points on both gates: the one-mode and shell-block residuals and the
    # whole-grid sandwich both certify, the closed forms are the oracle's,
    # and S never reaches past the whole-grid shells, on a box of either shape
    p = params_from_json(params)
    c = combined_coeffs(solve_ladder(p))
    g = build_generators(FockCutoff(*cutoff))
    red = reduce_by_similarity(p, c, g.cutoff, eps)
    assert red.shell_max <= full_grid_shell_max(_compose(red.chain, red.params), g.cutoff)
    assert max(red.h_residual, red.a_residual) < 1e-8
    assert max(full_grid_reduce_residuals(p, c, red, g)) < 1e-8
    want = reduced_params(p, eps)
    for name in ("beta0", "beta_plus", "beta3", "gamma1", "gamma2", "h0"):
        assert abs(getattr(red.params, name) - getattr(want, name)) <= 1e-10, name
    a_ref = _conjugated(red.chain, build_ladder(c, g), g)
    oracle = ladder_coeffs_from_matrix(a_ref, g, shell_max=red.shell_max)
    assert np.max(np.abs(red.coeffs.as_array() - oracle.as_array())) <= 1e-10
