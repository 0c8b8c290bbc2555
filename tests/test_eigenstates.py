import math

import numpy as np
import pytest

from ladderforge.errors import DomainError
from ladderforge.eigenstates import (EigenstateRequest, basic21_states,
                                     chain_seed, fractional_lambda_state,
                                     fractional_separable_cs, isotropic_states,
                                     linear_coupled_states, su2_ground,
                                     verify_eigenstate)
from ladderforge.fock import (FockCutoff, apply, basis_state, build_generators,
                              interior_indices, norm, vacuum_state)
from ladderforge.params import (HamiltonianParams, LadderCoeffs,
                                build_hamiltonian, build_ladder, classify,
                                solve_ladder)
from ladderforge.transforms import UnitarySpec, build_chain, build_unitary
from oracles import mix_spec


def gate_params(beta0, beta3, b, theta=0.3, **kw):
    r = np.sqrt((b ** 2 - beta3 ** 2) / 4.0)
    return HamiltonianParams(beta0=beta0, beta_plus=r * np.exp(1j * theta),
                             beta3=beta3, **kw)


def h_residual(h, v, energy, degree=4):
    keep = interior_indices(h.cutoff, degree)
    return np.linalg.norm((h.mat @ v.amplitudes - energy * v.amplitudes)[keep])


# ---------------------------------------------------------------------------
# fractional family
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def frac():
    p = gate_params(0.5, 0.4, 1.5)
    rep = solve_ladder(p)
    coeff = rep.coeffs[0].scaled(1.0 / rep.coeffs[0].mu1)
    return p, rep.tag, coeff


def test_fractional_lambda_grid(frac, gen20):
    p, tag, coeff = frac
    a = build_ladder(coeff, gen20)
    for lam in (0.0, 0.7 + 0.2j, -1.5j, 2.0):
        for kappa in (0, 1, 2, 3):
            req = EigenstateRequest(tag=tag, lam=lam, kappa=kappa)
            v = fractional_lambda_state(p, req, gen20)
            assert abs(norm(v) - 1.0) < 1e-12
            assert verify_eigenstate(a, v, lam, 4) < 1e-8


def test_fractional_kappa0_lambda0_is_vacuum(frac, gen20):
    p, tag, _ = frac
    v = fractional_lambda_state(p, EigenstateRequest(tag=tag), gen20)
    assert abs(abs(v.amplitudes[gen20.cutoff.index(0, 0)]) - 1.0) < 1e-12


def test_fractional_ground_binomial_coefficients(gen20):
    # the kappa-fold prefactor state is the binomial superposition over
    # |k, kappa - k> with ratio -2 beta_minus / (2 - beta0 + beta3)
    beta_minus, beta0, beta3, kappa = 0.3, 0.5, 0.4, 3
    p = HamiltonianParams(beta0=beta0, beta_plus=np.conj(beta_minus), beta3=beta3)
    tag = classify(p)
    v = fractional_lambda_state(p, EigenstateRequest(tag=tag, kappa=kappa), gen20)
    ratio = 2 * beta_minus / (2 - beta0 + beta3)
    expected = np.zeros(gen20.cutoff.dim, complex)
    for k in range(kappa + 1):
        expected[gen20.cutoff.index(k, kappa - k)] = (
            (-1) ** k * math.sqrt(math.comb(kappa, k)) * ratio ** k)
    expected /= np.linalg.norm(expected)
    phase = v.amplitudes[gen20.cutoff.index(0, kappa)] / expected[gen20.cutoff.index(0, kappa)]
    assert np.linalg.norm(v.amplitudes - phase * expected) < 1e-12


def test_fractional_lambda0_is_h_eigenstate(frac, gen20):
    p, tag, _ = frac
    h = build_hamiltonian(p, gen20)
    for kappa in (1, 2):
        v = fractional_lambda_state(p, EigenstateRequest(tag=tag, kappa=kappa), gen20)
        assert h_residual(h, v, kappa * (p.beta0 - 1.0)) < 1e-8


def test_fractional_separable(frac, gen20):
    p, tag, coeff = frac
    a = build_ladder(coeff, gen20)
    for c1 in (1.0, 0.5, 0.3 - 0.6j):
        v = fractional_separable_cs(p, 0.6, c1, gen20)
        assert verify_eigenstate(a, v, 0.6, 4) < 1e-8
    v = fractional_separable_cs(p, 0.0, 0.5, gen20)
    assert abs(abs(v.amplitudes[gen20.cutoff.index(0, 0)]) - 1.0) < 1e-12


def test_fractional_separable_needs_coupling(gen20):
    p = HamiltonianParams(beta0=1.3, beta3=0.7)
    with pytest.raises(DomainError):
        fractional_separable_cs(p, 0.5, 1.0, gen20)


def test_fractional_transform_consistency(gen20):
    # the rotated-frame member T D1 |0,kappa> solves the same eigenvalue
    # problem; it coincides with the series constructor exactly at lam = 0
    # (away from zero the two printed forms pick different members of the
    # infinite-dimensional eigenspace)
    p = gate_params(0.5, 0.4, 1.5, theta=0.8)
    tag = classify(p)
    rep = solve_ladder(p)
    a = build_ladder(rep.coeffs[0].scaled(1.0 / rep.coeffs[0].mu1), gen20)
    b = 2.0 - p.beta0
    lam, kappa = 0.6 - 0.3j, 2
    chain = [
        mix_spec(1, b, p.beta3, p.theta),
        UnitarySpec("displace1", {"alpha": np.sqrt((b + p.beta3) / (2 * b)) * lam}),
    ]
    w = apply(build_chain(chain, gen20), basis_state(gen20.cutoff, 0, kappa))
    assert verify_eigenstate(a, w, lam, 6) < 1e-8
    v0 = fractional_lambda_state(p, EigenstateRequest(tag=tag, kappa=kappa), gen20)
    w0 = apply(build_chain(chain[:1], gen20), basis_state(gen20.cutoff, 0, kappa))
    assert abs(abs(v0.overlap(w0)) - 1.0) < 1e-9


def test_kappa_overflow(gen8):
    p = gate_params(0.5, 0.4, 1.5)
    with pytest.raises(DomainError) as err:
        fractional_lambda_state(p, EigenstateRequest(tag=classify(p), kappa=7), gen8)
    assert err.value.code == "kappa-overflow"


# ---------------------------------------------------------------------------
# isotropic family
# ---------------------------------------------------------------------------

def test_isotropic_branches(gen20):
    mu1, mu2 = 1 / np.sqrt(2), 1 / np.sqrt(2)
    a = build_ladder(LadderCoeffs(mu1=mu1, mu2=mu2), gen20)
    for lam in (0.0, 0.9 - 0.4j, 1.8):
        v = isotropic_states(mu1, mu2, lam, 0, 1, gen20)
        assert verify_eigenstate(a, v, lam, 4) < 1e-8
        v = isotropic_states(mu1, mu2, lam, 2, 2, gen20)
        assert verify_eigenstate(a, v, lam, 4) < 1e-8


def test_isotropic_schrodinger_choice(gen20):
    # c2 = conj(mu2) with unit total weight: a plain product coherent state
    mu1, mu2 = 0.6, 0.8
    lam = 0.7 + 0.1j
    v = isotropic_states(mu1, mu2, lam, 0, 1, gen20)
    z1, z2 = np.conj(mu1) * lam, np.conj(mu2) * lam
    expected = np.zeros(gen20.cutoff.dim, complex)
    for n1 in range(12):
        for n2 in range(12):
            expected[gen20.cutoff.index(n1, n2)] = (
                z1 ** n1 / math.sqrt(math.factorial(n1))
                * z2 ** n2 / math.sqrt(math.factorial(n2)))
    expected /= np.linalg.norm(expected)
    assert abs(abs(np.vdot(v.amplitudes, expected)) - 1.0) < 1e-8


def test_isotropic_su2_ground(gen20):
    v = isotropic_states(1 / np.sqrt(2), 1 / np.sqrt(2), 0.0, 1, 2, gen20)
    cut = gen20.cutoff
    expected = (basis_state(cut, 0, 1).amplitudes
                - basis_state(cut, 1, 0).amplitudes) / np.sqrt(2)
    assert np.linalg.norm(v.amplitudes - expected) < 1e-12
    v0 = isotropic_states(1.0, 1.0, 0.0, 0, 2, gen20)
    assert abs(abs(v0.amplitudes[cut.index(0, 0)]) - 1.0) < 1e-12


def test_isotropic_h_eigenvalue(gen20):
    h = build_hamiltonian(HamiltonianParams(beta0=2.0), gen20)
    for kappa in (1, 3):
        v = isotropic_states(0.7, 0.5 - 0.2j, 0.0, kappa, 2, gen20)
        assert h_residual(h, v, kappa) < 1e-10


# ---------------------------------------------------------------------------
# 2:1 basic family
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def basic21():
    mu2, alpha_plus = 0.8 + 0.1j, 0.5 - 0.3j
    return mu2, alpha_plus


def test_basic21_branch1(basic21, gen20):
    mu2, ap = basic21
    a = build_ladder(LadderCoeffs(mu2=mu2, alpha_plus=ap), gen20)
    for lam in (0.0, 0.9, 0.5 + 0.5j):
        v = basic21_states(mu2, ap, lam, 1, gen20, c1=0.7)
        assert verify_eigenstate(a, v, lam, 4) < 1e-8
    v0 = basic21_states(mu2, ap, 0.0, 1, gen20)
    assert abs(abs(v0.amplitudes[gen20.cutoff.index(0, 0)]) - 1.0) < 1e-12


def test_basic21_branch1_squeeze_domain(basic21, gen20):
    mu2, ap = basic21
    with pytest.raises(DomainError) as err:
        basic21_states(mu2, ap, 3.0, 1, gen20, c1=1.0)
    assert err.value.code == "squeeze-domain"


def test_basic21_branch1_product_form(gen20):
    # the same member written with displacement and squeeze unitaries
    mu2, ap = 0.9, 0.4
    lam, c1 = 0.8, 0.9
    v = basic21_states(mu2, ap, lam, 1, gen20, c1=c1)
    t = lam * c1 * ap / mu2
    chi = (t / abs(t)) * np.arctanh(abs(t))
    chain = [
        UnitarySpec("displace1", {"alpha": c1 * lam}),
        UnitarySpec("squeeze2", {"chi": chi}),
        UnitarySpec("displace2", {"alpha": (lam / mu2) * np.cosh(abs(chi))}),
    ]
    u = build_chain(chain, gen20)
    w = apply(u, vacuum_state(gen20.cutoff))
    assert abs(abs(v.overlap(w)) - 1.0) < 1e-8


def test_basic21_branch2(basic21, gen20):
    mu2, ap = basic21
    cut = gen20.cutoff
    a = build_ladder(LadderCoeffs(mu2=mu2, alpha_plus=ap), gen20)
    for lam in (0.0, 0.9, 1.4 - 0.6j):
        v = basic21_states(mu2, ap, lam, 2, gen20)
        assert verify_eigenstate(a, v, lam, 4) < 1e-8
    v0 = basic21_states(mu2, ap, 0.0, 2, gen20)
    expected = (basis_state(cut, 0, 2).amplitudes / np.sqrt(2)
                - (mu2 / ap) * basis_state(cut, 1, 0).amplitudes)
    expected /= np.linalg.norm(expected)
    phase = v0.amplitudes[cut.index(0, 2)] / expected[cut.index(0, 2)]
    assert np.linalg.norm(v0.amplitudes - phase * expected) < 1e-12


def test_basic21_branch2_closed_norm(basic21, gen20):
    # the printed normalization constant of the displaced member
    mu2, ap = basic21
    lam = 0.8 - 0.2j
    raw = vacuum_state(gen20.cutoff)
    d2 = build_unitary(UnitarySpec("displace2", {"alpha": lam / mu2}), gen20)
    shifted = gen20.a2_dag + (np.conj(lam) / np.conj(mu2)) * gen20.identity
    w = apply(shifted @ shifted, raw).amplitudes / 2.0 \
        - (mu2 / ap) * basis_state(gen20.cutoff, 1, 0).amplitudes
    normalization = np.linalg.norm(w)
    closed = math.sqrt(0.5 + abs(mu2) ** 2 / abs(ap) ** 2
                       + abs(lam) ** 2 / abs(mu2) ** 2
                       + abs(lam) ** 4 / (4 * abs(mu2) ** 4))
    assert abs(normalization - closed) < 1e-10
    del d2


def test_basic21_branch3_energies(basic21, gen20):
    mu2, ap = basic21
    h = build_hamiltonian(HamiltonianParams(beta0=3.0, beta3=1.0), gen20)
    for kappa in (1, 2, 3):
        v = basic21_states(mu2, ap, 0.0, 3, gen20, kappa=kappa)
        assert h_residual(h, v, 2.0 * kappa) < 1e-10


def test_basic21_branch2_equals_branch3_kappa1(basic21, gen20):
    mu2, ap = basic21
    v2 = basic21_states(mu2, ap, 0.4, 2, gen20)
    v3 = basic21_states(mu2, ap, 0.4, 3, gen20, kappa=1)
    assert np.linalg.norm(v2.amplitudes - v3.amplitudes) < 1e-12


def test_basic21_alpha_zero_rejected(gen20):
    with pytest.raises(DomainError):
        basic21_states(1.0, 0.0, 0.5, 2, gen20)


# ---------------------------------------------------------------------------
# su(2) grounds
# ---------------------------------------------------------------------------

def test_su2_ground_closed_form(gen14):
    cut = gen14.cutoff
    v = su2_ground(0.0, 0.0, 1, gen14)
    expected = (basis_state(cut, 0, 1).amplitudes
                - basis_state(cut, 1, 0).amplitudes) / np.sqrt(2)
    assert np.linalg.norm(v.amplitudes - expected) < 1e-13


def test_su2_ground_is_exactly_normalized(gen14):
    beta3, theta, kappa = 0.6, 1.1, 4
    beta_minus = np.sqrt(1 - beta3 ** 2) / 2 * np.exp(-1j * theta)
    raw = np.zeros(gen14.cutoff.dim, complex)
    pref = ((1 + beta3) / 2) ** (kappa / 2)
    for k in range(kappa + 1):
        raw[gen14.cutoff.index(k, kappa - k)] = (
            pref * (-1) ** k * math.sqrt(math.comb(kappa, k))
            * (2 * beta_minus / (1 + beta3)) ** k)
    assert abs(np.linalg.norm(raw) - 1.0) < 1e-12
    v = su2_ground(beta3, theta, kappa, gen14)
    assert np.linalg.norm(v.amplitudes - raw) < 1e-12


def test_su2_ground_matches_rotation(gen14):
    for kappa in (0, 1, 3):
        v = su2_ground(0.6, 1.1, kappa, gen14)
        t = build_unitary(mix_spec(1, 1.0, 0.6, 1.1), gen14)
        w = apply(t, basis_state(gen14.cutoff, 0, kappa))
        assert np.linalg.norm(v.amplitudes - w.amplitudes) < 1e-8


@pytest.mark.parametrize("n", [14, 20])
def test_closed_forms_match_the_reduction_frame(n):
    # the closed-form kappa families are the basic system's kappa family
    # carried through the reduction frame: the binomial su(2) ground is the
    # rotated |0, kappa>, the fractional (a2' - r a1')^kappa the rotated
    # other-mode power, the 2:1 kernel polynomial the basic frame's own
    g = build_generators(FockCutoff(n, n))
    cases = [(gate_params(2.2, 0.6, 1.0, theta=1.1), lambda k: su2_ground(0.6, 1.1, k, g)),
             (HamiltonianParams(beta0=3.0, beta3=1.0),
              lambda k: basic21_states(1.0, 1.0, 0.0, 3, g, kappa=k))]
    for beta0, beta3 in ((2.5, 0.3), (1.5, -0.3), (3.2, 0.9)):
        p = gate_params(beta0, beta3, abs(2.0 - beta0), theta=0.8)
        cases.append((p, lambda k, p=p: fractional_lambda_state(
            p, EigenstateRequest(tag=classify(p), kappa=k), g)))
    for p, closed_form in cases:
        for kappa in range(4):
            overlap = np.vdot(closed_form(kappa).amplitudes, chain_seed(p, kappa, g).amplitudes)
            assert abs(abs(overlap) - 1.0) < 1e-12, (p, kappa)


def test_su2_ground_annihilated_and_h_eigen(gen14):
    p = gate_params(2.5, 0.6, 1.0, theta=1.1, h0=0.2)
    rep = solve_ladder(p)
    a = build_ladder(rep.coeffs[0], gen14)
    h = build_hamiltonian(p, gen14)
    for kappa in (1, 2, 4):
        v = su2_ground(p.beta3, p.theta, kappa, gen14)
        assert verify_eigenstate(a, v, 0.0, 3) < 1e-10
        e0 = kappa * (p.beta0 - 1.0) / 2.0 + p.h0
        assert h_residual(h, v, e0, 3) < 1e-10


def test_su2_ground_domain(gen14):
    with pytest.raises(DomainError):
        su2_ground(1.0, 0.0, 1, gen14)


# ---------------------------------------------------------------------------
# coupled families
# ---------------------------------------------------------------------------

def test_linear_iso(gen20):
    p = HamiltonianParams(beta0=2.0, gamma1=0.4 + 0.3j, gamma2=0.25 - 0.15j)
    tag = classify(p)
    mu1, mu2 = 0.9, 0.5 + 0.2j
    coeff = LadderCoeffs(mu1=mu1, mu2=mu2)
    from ladderforge.params import compute_a0
    from dataclasses import replace
    coeff = replace(coeff, a0=compute_a0(p, coeff))
    a = build_ladder(coeff, gen20)
    h = build_hamiltonian(p, gen20)
    for lam, branch, kappa in [(0.0, 1, 0), (0.8 - 0.3j, 1, 0), (0.5, 2, 2), (0.0, 2, 3)]:
        req = EigenstateRequest(tag=tag, lam=lam, branch=branch, kappa=kappa, c1=0.6)
        v = linear_coupled_states(p, req, gen20, mu1=mu1, mu2=mu2)
        assert verify_eigenstate(a, v, lam, 4) < 1e-8
    v0 = linear_coupled_states(p, EigenstateRequest(tag=tag), gen20, mu1=mu1, mu2=mu2)
    e0 = -(abs(p.gamma1) ** 2 + abs(p.gamma2) ** 2)
    assert h_residual(h, v0, e0) < 1e-8


def test_displaced_21_both_signs(gen20):
    for beta3 in (1.0, -1.0):
        p = HamiltonianParams(beta0=3.0, beta3=beta3, gamma1=0.4 + 0.3j,
                              gamma2=0.25 - 0.15j)
        tag = classify(p)
        rep = solve_ladder(p)
        combined = LadderCoeffs()
        for c in rep.coeffs:
            combined = combined.plus(c)
        a = build_ladder(combined, gen20)
        for lam, branch in [(0.0, 1), (0.7, 1), (0.4, 2), (0.0, 3)]:
            req = EigenstateRequest(tag=tag, lam=lam, branch=branch, kappa=2)
            v = linear_coupled_states(p, req, gen20)
            assert verify_eigenstate(a, v, lam, 4) < 1e-8, (beta3, lam, branch)


def test_displaced_21_ground_is_coherent(gen20):
    p = HamiltonianParams(beta0=3.0, beta3=1.0, gamma1=0.4 + 0.3j, gamma2=0.25 - 0.15j)
    tag = classify(p)
    v = linear_coupled_states(p, EigenstateRequest(tag=tag), gen20)
    chain = [UnitarySpec("displace1", {"alpha": -p.gamma1 / 2}),
             UnitarySpec("displace2", {"alpha": -p.gamma2})]
    w = apply(build_chain(chain, gen20), vacuum_state(gen20.cutoff))
    assert abs(abs(v.overlap(w)) - 1.0) < 1e-9
    h = build_hamiltonian(p, gen20)
    e0 = -(abs(p.gamma1) ** 2 / 2 + abs(p.gamma2) ** 2)
    assert h_residual(h, v, e0) < 1e-8


def test_b2_family(gen20):
    b3 = -0.8
    p = gate_params(0.0, b3, 2.0, theta=0.9)
    tag = classify(p)
    mu1, nu1 = 1.0, 0.3
    # normalized ladder closing the oscillator algebra
    denom = abs(mu1) ** 2 / (2 + b3) - abs(nu1) ** 2 / (2 - b3)
    scale = 2 * np.sqrt(denom)
    coeff = LadderCoeffs(mu1=mu1 / scale,
                         mu2=2 * p.beta_minus / (2 + b3) * mu1 / scale,
                         nu1=nu1 / scale,
                         nu2=-2 * p.beta_plus / (2 - b3) * nu1 / scale)
    a = build_ladder(coeff, gen20)
    h = build_hamiltonian(p, gen20)
    from ladderforge.fock import commutator, interior_projector
    proj = interior_projector(gen20.cutoff, 2)
    assert (proj @ (commutator(a, a.dag()) - gen20.identity) @ proj).norm() < 1e-10
    for lam, branch in [(0.0, 1), (0.6 + 0.2j, 1), (0.0, 2), (0.5 - 0.7j, 2)]:
        req = EigenstateRequest(tag=tag, lam=lam, branch=branch, kappa=1)
        v = linear_coupled_states(p, req, gen20, mu1=mu1, nu1=nu1)
        assert verify_eigenstate(a, v, lam, 5) < 1e-8, (lam, branch)
    # pair ground sits one step below zero in the difference spectrum
    v = linear_coupled_states(p, EigenstateRequest(tag=tag, branch=2, kappa=1),
                              gen20, mu1=mu1, nu1=nu1)
    assert h_residual(h, v, -1.0) < 1e-10


def test_b2_geometric_series(gen20):
    # the pair ground in the rotated frame is the printed geometric series
    b3 = -1.0
    p = gate_params(0.0, b3, 2.0, theta=0.0)
    tag = classify(p)
    mu1, nu1 = 1.0, 0.3
    v = linear_coupled_states(p, EigenstateRequest(tag=tag, branch=2, kappa=1),
                              gen20, mu1=mu1, nu1=nu1)
    t = build_unitary(mix_spec(1, 2.0, b3, 0.0), gen20)
    w = apply(t.dag(), v)
    x = (nu1 / mu1) * np.sqrt((2 + b3) / (2 - b3))
    assert abs(x - 0.3 / np.sqrt(3)) < 1e-14
    series = np.array([x ** k * np.sqrt(k + 1) for k in range(21)])
    series /= np.linalg.norm(series)
    got = np.array([w.amplitudes[gen20.cutoff.index(k, k + 1)] for k in range(10)])
    phase = got[0] / series[0]
    assert np.linalg.norm(got - phase * series[:10]) < 1e-8


def test_b2_decoupled_variant(gen20):
    p = HamiltonianParams(beta0=0.0, beta3=2.0)
    tag = classify(p)
    mu1, nu1 = 1.0, 0.4
    a = build_ladder(LadderCoeffs(mu1=mu1, nu2=nu1), gen20)
    for lam in (0.0, 0.4):
        req = EigenstateRequest(tag=tag, lam=lam, branch=1, kappa=1)
        v = linear_coupled_states(p, req, gen20, mu1=mu1, nu1=nu1)
        assert verify_eigenstate(a, v, lam, 5) < 1e-8


def test_b2_domain_checks(gen20):
    p = gate_params(0.0, -0.8, 2.0)
    tag = classify(p)
    with pytest.raises(DomainError):
        linear_coupled_states(p, EigenstateRequest(tag=tag, branch=1), gen20,
                              mu1=1.0, nu1=1.2)
    p_gamma = gate_params(0.0, -0.8, 2.0, gamma1=0.3)
    with pytest.raises(DomainError):
        linear_coupled_states(p_gamma, EigenstateRequest(tag=classify(p_gamma)),
                              gen20, mu1=1.0, nu1=0.2)


def test_non_normalizable_refusal(gen20):
    # a creation-dominated pair must refuse state construction
    p = gate_params(0.0, 0.8, 2.0)
    tag = classify(p)
    with pytest.raises(DomainError) as err:
        linear_coupled_states(p, EigenstateRequest(tag=tag, branch=1), gen20,
                              mu1=0.3, nu1=1.0)
    assert err.value.code == "squeeze-domain"


def test_verify_eigenstate_trivial(gen8):
    v = vacuum_state(gen8.cutoff)
    assert verify_eigenstate(gen8.a1, v, 0.0, 2) == 0.0
    assert abs(verify_eigenstate(gen8.a1_dag, v, 0.0, 2) - 1.0) < 1e-12
