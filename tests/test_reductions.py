import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderforge.cli import run
from ladderforge.errors import DomainError, LadderForgeError
from ladderforge.fock import (FockCutoff, Operator, build_generators,
                             interior_residual, shell_indices)
from ladderforge.params import (HamiltonianParams, LadderCoeffs,
                                build_hamiltonian, build_ladder,
                                coeffs_from_json, params_from_json,
                                solve_ladder, verify_ladder)
from ladderforge.eigenstates import (EigenstateRequest, chain_seed,
                                     reduced_eigenstate, verify_eigenstate)
from ladderforge.params import classify
from ladderforge.reductions import (reduce_by_similarity, reduction_chain,
                                    reduction_frame)
from ladderforge.spectra import diagonalize_oracle
from ladderforge.transforms import (build_chain, build_unitary,
                                    rotation_safe_degree, similarity,
                                    unitary_spec_from_json)
from oracles import (hamiltonian_params_from_matrix, ladder_coeffs_from_matrix,
                     reduced_params, rotated_couplings)


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
    red = reduce_by_similarity(p, rep.coeffs[0], gen14, eps=eps)
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
    red = reduce_by_similarity(p, combined_coeffs(rep), gen14)
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
    red = reduce_by_similarity(p, combined_coeffs(rep), gen14)
    assert abs(red.params.beta3 - 1.0) < 1e-9
    # printed su(2) amplitude of the reduced ladder: -alpha3 e^{i theta}/(2R)
    expected_ap = -1.0 * np.exp(1j * p.theta) / (2 * abs(p.beta_plus))
    assert abs(red.coeffs.alpha_plus - expected_ap) < 1e-8


def test_b2_reduction_to_j3(gen14):
    p = gate_params(0.0, 0.8, 2.0, theta=1.1)
    red = reduce_by_similarity(p, LadderCoeffs(mu1=1.0), gen14)
    assert abs(red.params.beta0) < 1e-9
    assert abs(red.params.beta3 - 2.0) < 1e-9
    assert red.h_residual < 1e-8


def test_composite_reduction_with_couplings(gen14):
    p = gate_params(2.5, 0.6, 1.0, gamma1=0.12 + 0.09j, gamma2=0.10 - 0.06j, h0=0.3)
    rep = solve_ladder(p)
    red = reduce_by_similarity(p, rep.coeffs[0], gen14)
    assert [s.kind for s in red.chain] == ["mix_t", "displace1", "displace2"]
    assert red.h_residual < 1e-8
    assert abs(red.params.gamma1) < 1e-9 and abs(red.params.gamma2) < 1e-9
    g1, g2 = rotated_couplings(p)
    expected_h0 = p.h0 - 2 * abs(g1) ** 2 / (p.beta0 + 1) - 2 * abs(g2) ** 2 / (p.beta0 - 1)
    assert abs(red.params.h0 - expected_h0) < 1e-9


def test_displaced_iso_reduction(gen14):
    p = HamiltonianParams(beta0=2.0, gamma1=0.2 + 0.1j, gamma2=0.15 - 0.05j)
    rep = solve_ladder(p)
    red = reduce_by_similarity(p, rep.coeffs[0], gen14)
    assert [s.kind for s in red.chain] == ["displace1", "displace2"]
    assert abs(red.params.h0 - (-(abs(p.gamma1) ** 2 + abs(p.gamma2) ** 2))) < 1e-9
    # displacement amplitudes are -gamma_i for unit frequencies
    assert abs(complex(red.chain[0].params["alpha"]) + p.gamma1) < 1e-12
    assert abs(complex(red.chain[1].params["alpha"]) + p.gamma2) < 1e-12


def test_displaced_21_reduction(gen14):
    p = HamiltonianParams(beta0=3.0, beta3=1.0, gamma1=0.12 + 0.09j,
                          gamma2=0.10 - 0.06j)
    rep = solve_ladder(p)
    red = reduce_by_similarity(p, combined_coeffs(rep), gen14)
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
        reduce_by_similarity(p, LadderCoeffs(mu1=1.0), gen14)
    assert err.value.code == "resonant"


def test_interior_spectra_invariant(gen14):
    # number-conserving H: the reduced and original interior spectra agree
    # below the truncation frontier
    p = gate_params(3.0, 0.6, 1.0)
    rep = solve_ladder(p)
    red = reduce_by_similarity(p, combined_coeffs(rep), gen14)
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
    red = reduce_by_similarity(p, rep.coeffs[0], gen14)
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
    # reduce conjugates one chain factor at a time; the composed U of
    # build_chain is the reference
    g = build_generators(FockCutoff(cutoff, cutoff))
    c = combined_coeffs(solve_ladder(p))
    red = reduce_by_similarity(p, c, g)
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
    basic = reduction_frame(p).basic
    for kappa in (0, 1, 2):
        want = _dense_image(p, chain_seed(basic, kappa, g), g)
        got = chain_seed(p, kappa, g).amplitudes
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
    red = reduce_by_similarity(p, c, gen14, shell_max=6)
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
    either eps has |alpha| <= 0.15 (all mode frequencies are >= 0.3)."""
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
    z *= 0.15 * w_min / max(np.linalg.norm(z), 1.0)   # |gamma| <= 0.15 |omega|
    return {"beta0": beta0, "beta_plus": [r * np.cos(theta), r * np.sin(theta)],
            "beta3": beta3, "gamma1": list(z[:2]), "gamma2": list(z[2:])}


@settings(max_examples=15, derandomize=True, deadline=None)
@given(_coupled_gate_points(), st.sampled_from([1, -1]))
def test_reduce_on_gate_surfaces_matches_the_closed_form(tmp_path_factory, params, eps):
    p = params_from_json(params)
    g = build_generators(FockCutoff(18, 18))
    for c in solve_ladder(p).coeffs:
        assert verify_ladder(build_hamiltonian(p, g), build_ladder(c, g)) < 1e-10
    code, report = _reduce(tmp_path_factory.mktemp("reduce"), params, eps, 18)
    assert code == 0, (params, eps, report)
    _check_against_oracles(p, eps, report, 18)
