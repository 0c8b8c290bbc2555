import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderforge.params import (CaseTag, FamilyKind, HamiltonianParams,
                                LadderCoeffs, build_hamiltonian, build_ladder,
                                classify, coeffs_from_json, coeffs_to_json,
                                compute_a0, params_from_json,
                                params_to_json, solve_alpha_block, solve_ladder,
                                solve_mu_nu_block, su2_invariant, verify_ladder)


def unit_gate_params(beta0, beta3, theta=0.7, **kw):
    r = np.sqrt((1.0 - beta3 ** 2)) / 2.0
    return HamiltonianParams(beta0=beta0, beta_plus=r * np.exp(1j * theta),
                             beta3=beta3, **kw)


# ---------------------------------------------------------------------------
# gates and blocks
# ---------------------------------------------------------------------------

def test_su2_invariant_values():
    assert su2_invariant(HamiltonianParams(beta3=1.0)) == 1.0
    p = HamiltonianParams(beta_plus=0.5 * np.exp(0.4j))
    assert abs(su2_invariant(p) - 1.0) < 1e-12
    p = HamiltonianParams(beta_plus=0.3, beta3=0.8)
    assert abs(su2_invariant(p) - 1.0) < 1e-12


def test_alpha_block_empty_off_gate():
    p = HamiltonianParams(beta_plus=0.35, beta3=0.0)  # b^2 = 0.49
    assert solve_alpha_block(p) == []


def test_alpha_block_decoupled():
    basis = solve_alpha_block(HamiltonianParams(beta3=1.0))
    assert len(basis) == 1
    np.testing.assert_allclose(basis[0], [1.0, 0.0, 0.0], atol=1e-12)
    basis = solve_alpha_block(HamiltonianParams(beta3=-1.0))
    np.testing.assert_allclose(basis[0], [0.0, 1.0, 0.0], atol=1e-12)


def test_alpha_block_interacting_ratios():
    p = unit_gate_params(2.5, 0.6)
    (vec,) = solve_alpha_block(p)
    alpha_plus, alpha_minus, alpha3 = vec
    assert abs(alpha3 - 1.0) < 1e-12
    assert abs(alpha_plus - (-p.beta_plus / (1 - p.beta3))) < 1e-12
    assert abs(alpha_minus - p.beta_minus / (1 + p.beta3)) < 1e-12


def test_mu_block_decoupled_anisotropic():
    beta3 = 0.7
    p = HamiltonianParams(beta0=2.0 + beta3, beta3=beta3)
    sol = solve_mu_nu_block(p)
    assert sol.consistent
    assert len(sol.basis) == 1
    direction = sol.basis[0]
    assert abs(direction[0]) < 1e-12 and abs(direction[1] - 1.0) < 1e-12


def test_mu_block_isotropic_two_free():
    sol = solve_mu_nu_block(HamiltonianParams(beta0=2.0))
    assert len(sol.basis) == 2
    assert all(np.max(np.abs(d[2:])) < 1e-12 for d in sol.basis)


def test_mu_nu_block_driven_by_alpha():
    # both couplings on, beta0 = 3, beta3 = 1: mu1 and nu2 forced, mu2 free
    g1, g2 = 0.4 + 0.3j, 0.25 - 0.15j
    p = HamiltonianParams(beta0=3.0, beta3=1.0, gamma1=g1, gamma2=g2)
    sol = solve_mu_nu_block(p, alpha=(1.0, 0.0, 0.0))
    assert sol.consistent
    mu1, mu2, nu1, nu2 = sol.particular
    assert abs(mu1 - np.conj(g2)) < 1e-12
    assert abs(nu2 - g1 / 2.0) < 1e-12
    assert abs(nu1) < 1e-12
    # homogeneous directions: exactly the free mu2
    assert len(sol.basis) == 1
    assert abs(sol.basis[0][1] - 1.0) < 1e-12


def test_mu_nu_block_inconsistent_reports_no_solution():
    # beta3 = 1 with gamma1 on has no row at beta0 = -1
    p = HamiltonianParams(beta0=-1.0, beta3=1.0, gamma1=0.5)
    sol = solve_mu_nu_block(p, alpha=(1.0, 0.0, 0.0))
    assert not sol.consistent


def test_compute_a0():
    p = HamiltonianParams(gamma1=1.0, gamma2=0.0)
    assert compute_a0(p, LadderCoeffs(mu1=0.0, nu1=2.0)) == -2.0
    p0 = HamiltonianParams()
    assert compute_a0(p0, LadderCoeffs(mu1=3.0, nu2=1.0)) == 0.0


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_examples():
    assert classify(HamiltonianParams(beta0=2.0)).kind == FamilyKind.ISOTROPIC
    tag = classify(unit_gate_params(2.5, 0.6))
    assert tag.kind == FamilyKind.SU2
    tag = classify(HamiltonianParams(beta0=3.0, beta3=1.0,
                                     gamma1=0.3, gamma2=0.2))
    assert tag.kind == FamilyKind.APPENDIX_A
    assert tag.detail == "A1.4-b0=3"
    assert classify(HamiltonianParams(beta0=7.0, beta_plus=0.25, beta3=0.5)).kind \
        == FamilyKind.NONE


def test_classify_more_families():
    assert classify(HamiltonianParams(beta0=3.0, beta3=1.0)).detail == "2:1"
    assert classify(HamiltonianParams(beta0=3.0, beta3=-1.0)).detail == "1:2"
    assert classify(unit_gate_params(3.0, 0.0, theta=0.2)).kind == FamilyKind.EXTENDED21
    assert classify(unit_gate_params(3.0, 0.6)).kind == FamilyKind.GENERALIZED21
    r = np.sqrt(((2 - 0.5) ** 2 - 0.4 ** 2) / 4)
    assert classify(HamiltonianParams(beta0=0.5, beta_plus=r, beta3=0.4)).kind \
        == FamilyKind.FRACTIONAL
    assert classify(HamiltonianParams(beta0=2.0, gamma1=0.3)).kind \
        == FamilyKind.LINEAR_ISO
    p = HamiltonianParams(beta0=0.0, beta_plus=np.sqrt(4 - 0.64) / 2, beta3=0.8)
    assert classify(p).kind == FamilyKind.LINEAR_B2


def test_classify_gamma_degeneracy_detail():
    beta3 = 0.6
    p0 = unit_gate_params(2.5, beta3)
    g2 = 0.3 - 0.2j
    g1_deg = 2.0 * g2 * p0.beta_minus / (1.0 - beta3)
    tag = classify(unit_gate_params(2.5, beta3, gamma1=g1_deg, gamma2=g2))
    assert tag.detail.startswith("B4")
    g1_deg = -2.0 * g2 * p0.beta_minus / (1.0 + beta3)
    tag = classify(unit_gate_params(2.5, beta3, gamma1=g1_deg, gamma2=g2))
    assert tag.detail.startswith("B5")
    tag = classify(unit_gate_params(2.5, beta3, gamma1=0.5, gamma2=g2))
    assert tag.detail.startswith("B6")


@settings(max_examples=150, deadline=None)
@given(beta0=st.floats(-5, 5), r=st.floats(0, 2), beta3=st.floats(-2.5, 2.5),
       theta=st.floats(0, 6.3), g1=st.floats(0, 1), g2=st.floats(0, 1))
def test_classify_total_and_deterministic(beta0, r, beta3, theta, g1, g2):
    p = HamiltonianParams(beta0=beta0, beta_plus=r * np.exp(1j * theta),
                          beta3=beta3, gamma1=g1, gamma2=g2 * 1j)
    tag1 = classify(p)
    tag2 = classify(p)
    assert isinstance(tag1, CaseTag)
    assert tag1 == tag2


# ---------------------------------------------------------------------------
# the solver against the commutator oracle
# ---------------------------------------------------------------------------

def test_gate_soundness_random(rng):
    hits = 0
    for _ in range(400):
        p = HamiltonianParams(beta0=rng.uniform(-4, 4),
                              beta_plus=rng.uniform(0, 1.5) * np.exp(1j * rng.uniform(0, 6.3)),
                              beta3=rng.uniform(-2, 2))
        b2 = su2_invariant(p)
        alphas = solve_alpha_block(p)
        assert bool(alphas) == (abs(b2 - 1.0) < 1e-10)
        sol = solve_mu_nu_block(p)
        mu_dirs = [d for d in sol.basis if np.max(np.abs(d[:2])) > 0.5]
        assert bool(mu_dirs) == (abs((2 - p.beta0) ** 2 - b2) < 1e-10)
        hits += bool(alphas)
    assert hits == 0  # random reals essentially never land on the gate


@pytest.mark.parametrize("maker", [
    lambda: HamiltonianParams(beta0=2.0),
    lambda: HamiltonianParams(beta0=0.5,
                              beta_plus=np.sqrt(((2 - 0.5) ** 2 - 0.4 ** 2) / 4),
                              beta3=0.4),
    lambda: unit_gate_params(2.5, 0.6),
    lambda: unit_gate_params(3.0, 0.6),
    lambda: unit_gate_params(1.0, 0.6),
    lambda: unit_gate_params(-3.0, 0.6),
    lambda: HamiltonianParams(beta0=3.0, beta3=1.0, gamma1=0.4 + 0.3j, gamma2=0.2),
    lambda: HamiltonianParams(beta0=2.0, gamma1=0.4 + 0.3j, gamma2=0.25 - 0.15j),
    lambda: HamiltonianParams(beta0=0.0, beta_plus=np.sqrt(4 - 0.64) / 2, beta3=0.8),
    lambda: unit_gate_params(2.5, 0.6, gamma1=0.5 + 0.2j, gamma2=0.3 - 0.4j, h0=0.2),
])
def test_solver_branches_pass_commutator(maker, gen14):
    p = maker()
    report = solve_ladder(p)
    assert report.exists
    h = build_hamiltonian(p, gen14)
    for coeff in report.coeffs:
        assert verify_ladder(h, build_ladder(coeff, gen14), 3) < 1e-10


def test_solver_a0_matches_matrix_identity_component(gen14):
    p = HamiltonianParams(beta0=3.0, beta3=1.0, gamma1=0.4 + 0.3j, gamma2=0.2 - 0.1j)
    report = solve_ladder(p)
    h = build_hamiltonian(p, gen14)
    cut = gen14.cutoff
    for coeff in report.coeffs:
        a = build_ladder(coeff, gen14)
        hm = h.mat
        am = a.mat
        comm = -(hm @ am - am @ hm)
        idx = cut.index(1, 1)
        # identity component of -[H, A] read at a J3-free diagonal entry
        assert abs(comm[idx, idx] - coeff.a0) < 1e-10


def test_no_ladder_when_gates_fail():
    report = solve_ladder(HamiltonianParams(beta0=7.0, beta_plus=0.25, beta3=0.5))
    assert not report.exists
    assert report.tag.kind == FamilyKind.NONE


def test_verify_ladder_detects_wrong_pair(gen10):
    h = gen10.n_op
    assert verify_ladder(h, gen10.a1, 2) > 0.1
    zero = 0.0 * gen10.a1
    assert verify_ladder(h, zero, 2) == 0.0


def test_hermiticity_structural(gen10):
    p = HamiltonianParams(beta0=1.3, beta_plus=0.4 + 0.2j, beta3=-0.7,
                          gamma1=0.1j, gamma2=0.3, h0=0.9)
    h = build_hamiltonian(p, gen10)
    assert (h - h.dag()).norm() < 1e-13


def test_build_hamiltonian_diagonals(gen10):
    cut = gen10.cutoff
    h = build_hamiltonian(HamiltonianParams(beta0=3.0, beta3=1.0), gen10)
    for n1, n2 in [(0, 0), (1, 0), (0, 1), (2, 3)]:
        assert abs(h.mat[cut.index(n1, n2), cut.index(n1, n2)] - (2 * n1 + n2)) < 1e-12
    h = build_hamiltonian(HamiltonianParams(beta0=2.0), gen10)
    assert abs(h.mat[cut.index(2, 3), cut.index(2, 3)] - 5) < 1e-12
    h = build_hamiltonian(HamiltonianParams(beta0=0.0, beta3=2.0), gen10)
    assert abs(h.mat[cut.index(2, 3), cut.index(2, 3)] - (2 - 3)) < 1e-12


def test_params_json_roundtrip():
    p = HamiltonianParams(beta0=1.5, beta_plus=0.3 + 0.2j, beta3=-0.4,
                          gamma1=1j, gamma2=0.25, h0=2.0)
    assert params_from_json(params_to_json(p)) == p
    c = LadderCoeffs(mu1=1, mu2=2j, nu1=0.5, alpha3=-1.5, a0=0.1 + 0.9j)
    assert coeffs_from_json(coeffs_to_json(c)) == c
