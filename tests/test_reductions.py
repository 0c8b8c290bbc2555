import numpy as np
import pytest

from ladderforge.errors import DomainError
from ladderforge.fock import (FockCutoff, build_generators, interior_residual,
                             shell_indices)
from ladderforge.params import (HamiltonianParams, LadderCoeffs,
                                build_hamiltonian, build_ladder,
                                hamiltonian_params_from_matrix,
                                ladder_coeffs_from_matrix, solve_ladder)
from ladderforge.reductions import reduce_by_similarity, rotated_gammas
from ladderforge.spectra import diagonalize_oracle
from ladderforge.transforms import (build_chain, rotation_safe_degree,
                                    similarity)


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
    g1, g2 = rotated_gammas(p, 1)
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
