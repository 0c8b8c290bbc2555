import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (alt_hamiltonian, assert_same_csr, chen_ground_via_raising, commutator, csr,
                     csr_A_pq_generalized, csr_calA_pq, csr_chen_residuals, csr_generators,
                     csr_H_pq,
                     csr_ladder_residual, diagonalize_oracle, interior_projector,
                     zero_signed_bits)

from ladderforge import cli
from ladderforge.chen import (PQParams, build_A_pq_generalized, build_calA_pq,
                              build_H_pq, chen_ground, degenerate_zero_states,
                              louck_spectrum, tilde0_state)
from ladderforge.errors import DomainError
from ladderforge.fock import FockCutoff, build_generators, commutator_residual

COPRIME = [(1, 1), (2, 1), (1, 2), (3, 1), (3, 2), (2, 3), (4, 1), (4, 3),
           (5, 1), (5, 2), (5, 3), (5, 4)]


def test_coprimality_enforced():
    with pytest.raises(ValueError):
        PQParams(4, 2)
    with pytest.raises(ValueError):
        PQParams(0, 1)


def test_h_diagonal_values(gen10):
    cut = gen10.cutoff
    h = csr(build_H_pq(PQParams(2, 1), gen10))
    assert abs(h.mat[cut.index(1, 1), cut.index(1, 1)] - 1.5) < 1e-12
    h = csr(build_H_pq(PQParams(3, 2), gen10))
    assert abs(h.mat[cut.index(2, 3), cut.index(2, 3)] - 2.0) < 1e-12
    h = csr(build_H_pq(PQParams(1, 1), gen10))
    assert abs(h.mat[cut.index(2, 3), cut.index(2, 3)] - 5.0) < 1e-12


def test_special_lowering_simple_forms(gen10):
    pq = PQParams(1, 1, 0.7 + 0.2j, 0.9 - 0.5j)
    g = csr_generators(gen10)
    a = csr(build_calA_pq(pq, gen10))
    expected = (np.conj(pq.alpha_plus) * g.a2
                - np.conj(pq.alpha_minus) * g.a1)
    assert (a - expected).norm() < 1e-13
    pq21 = PQParams(2, 1, 0.7 + 0.2j, 0.9 - 0.5j)
    a21 = csr(build_calA_pq(pq21, gen10))
    expected = (np.conj(pq21.alpha_plus) * (g.a2 @ g.a2)
                - 2 * np.conj(pq21.alpha_minus) * g.a1) / 2.0
    assert (a21 - expected).norm() < 1e-13


def test_generalized_simple_forms(gen10):
    pq = PQParams(1, 1, 0.7, 0.9)
    g = csr_generators(gen10)
    a = csr(build_A_pq_generalized(pq, gen10))
    expected = pq.alpha_minus * g.a2 + pq.alpha_plus * g.a1
    assert (a - expected).norm() < 1e-13
    pq21 = PQParams(2, 1, 0.7, 0.9)
    a21 = csr(build_A_pq_generalized(pq21, gen10))
    expected = pq21.alpha_minus * g.a2 + pq21.alpha_plus * g.j_minus
    assert (a21 - expected).norm() < 1e-13


@pytest.mark.parametrize("p,q", COPRIME)
def test_ladder_and_commuting_invariants(gen14, p, q):
    pq = PQParams(p, q, 0.7 + 0.2j, 0.9 - 0.5j)
    h = csr(build_H_pq(pq, gen14))
    cal_a = csr(build_calA_pq(pq, gen14))
    a_gen = csr(build_A_pq_generalized(pq, gen14))
    degree = max(p, q)
    assert csr_ladder_residual(h, cal_a, degree) < 1e-10
    proj = interior_projector(gen14.cutoff, degree)
    assert (proj @ commutator(a_gen, cal_a.dag()) @ proj).norm() < 1e-10
    vac = np.zeros(gen14.cutoff.dim)
    vac[gen14.cutoff.index(0, 0)] = 1.0
    assert np.linalg.norm(a_gen.mat @ vac) < 1e-14


def test_chen_grounds(gen20):
    pq = PQParams(3, 2, 0.7 + 0.2j, 0.9 - 0.5j)
    h = csr(build_H_pq(pq, gen20))
    a_gen = csr(build_A_pq_generalized(pq, gen20))
    for kappa in range(5):
        v = chen_ground(pq, kappa, gen20)
        w = chen_ground_via_raising(pq, kappa, gen20)
        assert abs(abs(v.overlap(w)) - 1.0) < 1e-10
        assert np.linalg.norm(h.mat @ v.amplitudes - kappa * v.amplitudes) < 1e-10
        assert np.linalg.norm(a_gen.mat @ v.amplitudes) < 1e-10


def test_chen_ground_explicit_21(gen10):
    pq = PQParams(2, 1)
    cut = gen10.cutoff
    v = chen_ground(pq, 1, gen10)
    expected = np.zeros(cut.dim, complex)
    expected[cut.index(0, 2)] = np.sqrt(2) / 2
    expected[cut.index(1, 0)] = -1.0
    expected /= np.linalg.norm(expected)
    phase = v.amplitudes[cut.index(0, 2)] / expected[cut.index(0, 2)]
    assert np.linalg.norm(v.amplitudes - phase * expected) < 1e-12


def test_chen_grounds_orthogonal(gen20):
    pq = PQParams(3, 2, 0.7 + 0.2j, 0.9 - 0.5j)
    states = [chen_ground(pq, k, gen20) for k in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(states[i].overlap(states[j])) < 1e-10


def test_chen_ground_log_domain_matches_direct():
    # large p*kappa exercises the log-domain coefficient route
    cut = FockCutoff(6, 24)
    g = build_generators(cut)
    pq = PQParams(5, 1, 0.7, 0.9)
    v = chen_ground(pq, 4, g)  # p*kappa = 20 direct
    cut2 = FockCutoff(6, 27)
    # same formula, larger kappa wouldn't fit; instead compare against raising
    w = chen_ground_via_raising(pq, 4, g)
    assert abs(abs(v.overlap(w)) - 1.0) < 1e-9


def test_chen_kappa_overflow(gen10):
    with pytest.raises(DomainError):
        chen_ground(PQParams(5, 4), 4, gen10)


def test_degenerate_zero_subspace(gen14):
    pq = PQParams(3, 2, 0.7 + 0.2j, 0.9 - 0.5j)
    zeros = degenerate_zero_states(pq, gen14)
    assert len(zeros) == 6
    cal_a = csr(build_calA_pq(pq, gen14))
    h = csr(build_H_pq(pq, gen14))
    for k1 in range(pq.q):
        for k2 in range(pq.p):
            v = zeros[k1 * pq.p + k2]
            assert np.linalg.norm(cal_a.mat @ v.amplitudes) < 1e-13
            e = louck_spectrum(pq, 0, k1, k2)
            assert np.linalg.norm(h.mat @ v.amplitudes - e * v.amplitudes) < 1e-12
    assert len(degenerate_zero_states(PQParams(1, 1), gen14)) == 1
    two = degenerate_zero_states(PQParams(2, 1), gen14)
    assert len(two) == 2


def test_louck_values():
    pq = PQParams(3, 2)
    assert louck_spectrum(pq, 0, 0, 0) == 0.0
    assert louck_spectrum(pq, 1, 1, 2) == pytest.approx(1 + 1 / 2 + 2 / 3)
    assert louck_spectrum(PQParams(2, 1), 0, 0, 1) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        louck_spectrum(pq, 0, 2, 0)


def test_louck_multiset_matches_oracle():
    cut = FockCutoff(12, 12)
    g = build_generators(cut)
    pq = PQParams(3, 2)
    h = csr(build_H_pq(pq, g))
    oracle = diagonalize_oracle(h, 0)
    expected = []
    for n1, n2 in cut.states():
        n = n1 // pq.q + n2 // pq.p
        expected.append(louck_spectrum(pq, n, n1 % pq.q, n2 % pq.p))
    assert Counter(np.round(np.array(sorted(expected)) * pq.p * pq.q).astype(int).tolist()) \
        == Counter(np.round(oracle * pq.p * pq.q).astype(int).tolist())
    assert np.max(np.abs(np.sort(np.array(expected)) - oracle)) < 1e-9


def test_tilde0(gen14):
    for (p, q) in [(1, 1), (3, 2), (5, 4)]:
        pq = PQParams(p, q, 0.7 + 0.2j, 0.9 - 0.5j)
        v = tilde0_state(pq, gen14)
        h = csr(build_H_pq(pq, gen14))
        cal_a = csr(build_calA_pq(pq, gen14))
        assert np.linalg.norm(cal_a.mat @ v.amplitudes) < 1e-10
        assert np.linalg.norm(h.mat @ v.amplitudes - v.amplitudes) < 1e-10


def test_tilde0_subnormal_amplitude(gen14):
    # 1/conj(alpha) overflows for a subnormal alpha; the state must still be
    # the finite, normalized zero mode
    for alphas in [(5e-324, 1.0), (1.0, 5e-324j), (5e-324 + 0j, 0.3 - 2.0j)]:
        pq = PQParams(3, 2, *alphas)
        v = tilde0_state(pq, gen14)
        assert np.all(np.isfinite(v.amplitudes))
        assert abs(np.linalg.norm(v.amplitudes) - 1.0) < 1e-14
        cal_a = csr(build_calA_pq(pq, gen14))
        h = csr(build_H_pq(pq, gen14))
        assert np.linalg.norm(cal_a.mat @ v.amplitudes) < 1e-10
        assert np.linalg.norm(h.mat @ v.amplitudes - v.amplitudes) < 1e-10
    # same ray as the quotient form p/(alpha+* sqrt(p!)), q/(alpha-* sqrt(q!))
    pq = PQParams(3, 2, 0.7 + 0.2j, 0.9 - 0.5j)
    cut = gen14.cutoff
    ref = np.zeros(cut.dim, dtype=complex)
    ref[cut.index(0, 3)] = 3 / (np.conj(pq.alpha_plus) * np.sqrt(6))
    ref[cut.index(2, 0)] = 2 / (np.conj(pq.alpha_minus) * np.sqrt(2))
    ref /= np.linalg.norm(ref)
    assert abs(abs(np.vdot(ref, tilde0_state(pq, gen14).amplitudes)) - 1.0) < 1e-14


def test_tilde0_11_form(gen14):
    v = tilde0_state(PQParams(1, 1), gen14)
    cut = gen14.cutoff
    assert abs(abs(v.amplitudes[cut.index(0, 1)]) - 1 / np.sqrt(2)) < 1e-12
    assert abs(abs(v.amplitudes[cut.index(1, 0)]) - 1 / np.sqrt(2)) < 1e-12


def test_tilde0_raising_chain(gen14):
    pq = PQParams(3, 2, 0.7 + 0.2j, 0.9 - 0.5j)
    from ladderforge.spectra import raising_chain
    h = build_H_pq(pq, gen14).csr()
    raiser = build_calA_pq(pq, gen14).dag().csr()
    rep = raising_chain(h, raiser, tilde0_state(pq, gen14), 2, 1.0, degree=max(pq.p, pq.q))
    for e in rep.entries:
        assert abs(e.energy_chain - (e.n + 1.0)) < 1e-9 and e.residual < 1e-9


def test_alt_hamiltonian(gen20):
    assert (alt_hamiltonian(PQParams(1, 1), gen20)
            - csr(build_H_pq(PQParams(1, 1), gen20))).norm() < 1e-12
    pq = PQParams(4, 1)
    h = alt_hamiltonian(pq, gen20)
    v = chen_ground(pq, 2, gen20)
    assert np.linalg.norm(h.mat @ v.amplitudes - 8.0 * v.amplitudes) < 1e-10
    pq32 = PQParams(3, 2)
    h32 = alt_hamiltonian(pq32, gen20)
    v32 = chen_ground(pq32, 1, gen20)
    assert np.linalg.norm(h32.mat @ v32.amplitudes - (-6.0) * v32.amplitudes) < 1e-10


def test_alt_hamiltonian_rejects_degenerate(gen10):
    pq = PQParams.__new__(PQParams)  # bypass gcd guard to reach the p=q=2 pole
    object.__setattr__(pq, "p", 2)
    object.__setattr__(pq, "q", 2)
    object.__setattr__(pq, "alpha_plus", 1.0 + 0j)
    object.__setattr__(pq, "alpha_minus", 1.0 + 0j)
    with pytest.raises(DomainError):
        alt_hamiltonian(pq, gen10)


# ---------------------------------------------------------------------------
# the operators as weighted shifts against their CSR product chain
# ---------------------------------------------------------------------------

@st.composite
def _chen_cases(draw):
    p, q = draw(st.sampled_from([(1, 1), (2, 1), (1, 2), (3, 1), (3, 2), (5, 3)]))
    kappa, degree = draw(st.integers(0, 3)), max(p, q)
    n1 = draw(st.integers(max(2 * degree, q * kappa), 60))
    n2 = draw(st.integers(max(2 * degree, p * kappa), 60))
    phases = draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=2, max_size=2))
    pq = PQParams(p, q, *(complex(math.cos(t), math.sin(t)) for t in phases))
    return pq, kappa, FockCutoff(n1, n2)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_chen_cases())
def test_chen_shifts_equal_the_csr_product_chain(case):
    # the operators against their CSR product chain: H bit for bit, and each
    # weight of calA and A_gen, one product of square roots where the chain
    # rounds once per factor, within 4 eps of the chain's entry on the same
    # sparsity.  The checks the chen scenario makes, bit for bit the CSR
    # computation on the lowered operators: the two identities through
    # commutator_residual and the mat-vecs on its states
    pq, kappa, cut = case
    g = build_generators(cut)
    ops = build_H_pq(pq, g), build_calA_pq(pq, g), build_A_pq_generalized(pq, g)
    mats = [csr(op) for op in ops]
    assert_same_csr(mats[0], csr_H_pq(pq, g))
    for op, got, want in zip(ops, mats, (csr_H_pq(pq, g), csr_calA_pq(pq, g),
                                         csr_A_pq_generalized(pq, g))):
        assert op.nnz == got.mat.nnz == want.mat.nnz
        np.testing.assert_array_equal(got.mat.indptr, want.mat.indptr)
        np.testing.assert_array_equal(got.mat.indices, want.mat.indices)
        assert np.all(np.abs(got.mat.data - want.mat.data)
                      <= 4 * np.finfo(float).eps * np.abs(want.mat.data))
    h, cal_a, a_gen = ops
    degree = max(pq.p, pq.q)
    got = (commutator_residual(g, h, cal_a, cal_a, degree),
           commutator_residual(g, a_gen, cal_a.dag(), g.shifts([]), degree))
    assert (zero_signed_bits(got) == zero_signed_bits(csr_chen_residuals(*mats, degree))).all()
    states = [chen_ground(pq, kappa, g), tilde0_state(pq, g), *degenerate_zero_states(pq, g)]
    for v in (s.amplitudes for s in states):
        for op, mat in zip(ops, mats):
            assert (zero_signed_bits(op.matvec(v)) == zero_signed_bits(mat.mat @ v)).all()


def _perturbed_calA(pq, g):
    # one of the two shifts scaled by 1 + 1e-9: each shift alone steps the
    # energy by one, but the ratio of the two is what A_gen commutes with
    # and what the zero mode tilde0 is annihilated by
    cal_a = build_calA_pq(pq, g)
    k = min(cal_a.weights)
    cal_a.weights[k] = cal_a.weights[k] * (1 + 1e-9)
    return cal_a


@pytest.mark.parametrize("patch, failing", [
    (("build_calA_pq", _perturbed_calA),
     ["generalized_commutes_residual", "tilde0_residual"]),
    (("build_H_pq", lambda pq, g: build_H_pq(PQParams(5, pq.q), g)),
     ["ladder_residual", "ground_energy_residual", "tilde0_residual"]),
])
def test_chen_still_fails_a_false_identity(tmp_path, monkeypatch, patch, failing):
    monkeypatch.setattr(cli, *patch)
    assert cli.run(["chen", "--p", "3", "--q", "2", "--kappa", "2", "--cutoff", "12,12",
                    "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "chen.json").read_text())["report"]
    assert [k for k in failing if report[k] > report["tolerance"]] == failing
