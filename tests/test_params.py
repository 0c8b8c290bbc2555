import json
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (ORACLE_CUTOFFS, assert_same_csr, coeffs_from_json, csr, csr_verify_ladder,
                     kron_generators, sum_hamiltonian, sum_ladder)

from ladderforge import fock
from ladderforge.catalogue import appendix_catalogue
from ladderforge.cli import run
from ladderforge.fock import FockCutoff, build_generators
from ladderforge.params import (CaseTag, FamilyKind, HamiltonianParams,
                                LadderCoeffs, build_hamiltonian, build_ladder,
                                classify, coeffs_to_json,
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
    for coeff in report.coeffs:
        assert verify_ladder(p, coeff, gen14, 3) < 1e-10


def test_solver_a0_matches_matrix_identity_component(gen14):
    p = HamiltonianParams(beta0=3.0, beta3=1.0, gamma1=0.4 + 0.3j, gamma2=0.2 - 0.1j)
    report = solve_ladder(p)
    hm = build_hamiltonian(p, gen14).csr()
    cut = gen14.cutoff
    for coeff in report.coeffs:
        am = build_ladder(coeff, gen14).csr()
        comm = -(hm @ am - am @ hm)
        idx = cut.index(1, 1)
        # identity component of -[H, A] read at a J3-free diagonal entry
        assert abs(comm[idx, idx] - coeff.a0) < 1e-10


def test_no_ladder_when_gates_fail():
    report = solve_ladder(HamiltonianParams(beta0=7.0, beta_plus=0.25, beta3=0.5))
    assert not report.exists
    assert report.tag.kind == FamilyKind.NONE


def test_solver_agrees_with_the_gates_next_to_the_isotropic_point(tmp_path):
    # b = 6e-8: the mu block has norm 6e-8 and singular values 6e-8 and
    # 1.6e-12, so a null-space cut relative to its norm alone (6e-19) found no
    # direction while the mu gate held
    raw = {"beta0": 1.9999999403953552, "beta_plus": [-2.98e-8, -4.83e-10], "beta3": 0}
    p = params_from_json(raw)
    report = solve_ladder(p)
    assert report.exists
    assert report.tag == classify(p)
    assert report.tag.kind == FamilyKind.FRACTIONAL
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": raw}))
    assert run(["solve-ladder", "--config", str(cfg), "--cutoff", "14,14",
                "--out", str(tmp_path)]) == 0
    out = json.loads((tmp_path / "solve-ladder.json").read_text())["report"]
    assert out["tag"] == str(classify(p)) and max(out["residuals"]) < 1e-10


def test_verify_ladder_detects_wrong_pair(gen10):
    h = HamiltonianParams(beta0=1.0)   # N
    assert verify_ladder(h, LadderCoeffs(mu1=1.0), gen10, 2) > 0.1
    assert verify_ladder(h, LadderCoeffs(), gen10, 2) == 0.0


# su(2) with a small beta_plus: the solver's ladder has alpha3 = 1 and
# alpha_plus = -500, and the absolute residual of [H, A] = -A grows with that
# scale (6.2e-10 at cutoff 24 when checked as solved)
SU2_SMALL_BETA_PLUS = {"beta0": 2, "beta_plus": [0.001, 0], "beta3": 0.999997999998}


@pytest.mark.parametrize("n", [12, 18, 24])
def test_a_ladder_is_verified_at_unit_scale(n):
    p = params_from_json(SU2_SMALL_BETA_PLUS)
    (c,) = solve_ladder(p).coeffs
    g = build_generators(FockCutoff(n, n))
    assert c.scale == pytest.approx(500, rel=1e-5)
    assert verify_ladder(p, c, g) < 1e-10
    # one coefficient of the unit-scale ladder off by 1e-9 still fails; not
    # the largest one, alpha_plus, since moving it moves A along itself
    unit = LadderCoeffs(*(c.as_array() / c.scale))
    for f in fields(LadderCoeffs):
        if f.name != "alpha_plus":
            off = replace(unit, **{f.name: getattr(unit, f.name) + 1e-9})
            assert verify_ladder(p, off, g) > 1e-10, f.name


def test_solve_ladder_reports_the_scale_it_verified_at(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": SU2_SMALL_BETA_PLUS}))
    assert run(["solve-ladder", "--config", str(cfg), "--cutoff", "24,24",
                "--out", str(tmp_path)]) == 0
    out = json.loads((tmp_path / "solve-ladder.json").read_text())["report"]
    (c,) = solve_ladder(params_from_json(SU2_SMALL_BETA_PLUS)).coeffs
    assert out["scales"] == [c.scale] and out["residuals"][0] < 1e-10


# verify_ladder on the grid weights against the CSR products it replaces

@pytest.fixture(scope="module")
def catalogue_rows():
    return appendix_catalogue()


@pytest.mark.parametrize("cut", [(12, 16), (16, 12), (20, 20), (40, 40)])
def test_verify_ladder_matches_the_csr_oracle(cut, catalogue_rows):
    # a valid ladder reads its rounding floor, where any other rounding of
    # the entries would show; a ladder with one coefficient off by 1e-9 reads
    # well above it, and there the two agree in relative terms
    g = build_generators(FockCutoff(*cut))
    for row in catalogue_rows:
        want = csr_verify_ladder(row.params, row.coeffs, g)
        assert abs(verify_ladder(row.params, row.coeffs, g) - want) <= 2e-12, row.label
        unit = LadderCoeffs(*(row.coeffs.as_array() / row.coeffs.scale))
        for f in fields(LadderCoeffs):
            off = replace(unit, **{f.name: getattr(unit, f.name) + 1e-9})
            want = csr_verify_ladder(row.params, off, g)
            if want > 1e-10:
                assert verify_ladder(row.params, off, g) == pytest.approx(want, rel=1e-6, abs=0), \
                    (row.label, f.name)


def test_verify_ladder_refuses_a_degree_past_the_cutoff(gen8):
    p, c = HamiltonianParams(beta0=2.0), LadderCoeffs(mu1=1.0)
    with pytest.raises(ValueError, match="degree 9 too large for cutoff"):
        verify_ladder(p, c, gen8, 9)
    with pytest.raises(ValueError, match="degree -1 too large for cutoff"):
        verify_ladder(p, c, gen8, -1)


def test_hermiticity_structural(gen10):
    p = HamiltonianParams(beta0=1.3, beta_plus=0.4 + 0.2j, beta3=-0.7,
                          gamma1=0.1j, gamma2=0.3, h0=0.9)
    h = build_hamiltonian(p, gen10)
    assert csr(h - h.dag()).norm() < 1e-13


def test_build_hamiltonian_diagonals(gen10):
    cut = gen10.cutoff
    h = build_hamiltonian(HamiltonianParams(beta0=3.0, beta3=1.0), gen10).csr()
    for n1, n2 in [(0, 0), (1, 0), (0, 1), (2, 3)]:
        assert abs(h[cut.index(n1, n2), cut.index(n1, n2)] - (2 * n1 + n2)) < 1e-12
    h = build_hamiltonian(HamiltonianParams(beta0=2.0), gen10).csr()
    assert abs(h[cut.index(2, 3), cut.index(2, 3)] - 5) < 1e-12
    h = build_hamiltonian(HamiltonianParams(beta0=0.0, beta3=2.0), gen10).csr()
    assert abs(h[cut.index(2, 3), cut.index(2, 3)] - (2 - 3)) < 1e-12


def test_params_json_roundtrip():
    p = HamiltonianParams(beta0=1.5, beta_plus=0.3 + 0.2j, beta3=-0.4,
                          gamma1=1j, gamma2=0.25, h0=2.0)
    assert params_from_json(params_to_json(p)) == p
    c = LadderCoeffs(mu1=1, mu2=2j, nu1=0.5, alpha3=-1.5, a0=0.1 + 0.9j)
    assert coeffs_from_json(coeffs_to_json(c)) == c


# ---------------------------------------------------------------------------
# H and A assembled in one pass, against the chained operator sums
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def generator_pairs():
    return {cut: (build_generators(FockCutoff(*cut)), kron_generators(FockCutoff(*cut)))
            for cut in ORACLE_CUTOFFS}


@pytest.mark.parametrize("cut", ORACLE_CUTOFFS)
def test_catalogue_h_and_a_match_the_operator_sums(cut, generator_pairs):
    g, ref = generator_pairs[cut]
    for row in appendix_catalogue():
        assert_same_csr(csr(build_hamiltonian(row.params, g)), sum_hamiltonian(row.params, ref))
        assert_same_csr(csr(build_ladder(row.coeffs, g)), sum_ladder(row.coeffs, ref))


_finite = st.floats(-5, 5, allow_nan=False)
_coupling = st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False)
_maybe_zero = st.one_of(st.just(0.0), _finite)


@settings(max_examples=60, deadline=None)
@given(cut=st.sampled_from(ORACLE_CUTOFFS), beta0=_maybe_zero, beta3=_maybe_zero,
       beta_plus=st.one_of(st.just(0j), _coupling), gamma1=st.one_of(st.just(0j), _coupling),
       gamma2=st.one_of(st.just(0j), _coupling), h0=_maybe_zero,
       coeffs=st.lists(st.one_of(st.just(0j), _coupling), min_size=8, max_size=8))
def test_drawn_h_and_a_match_the_operator_sums(generator_pairs, cut, beta0, beta3, beta_plus,
                                               gamma1, gamma2, h0, coeffs):
    g, ref = generator_pairs[cut]
    p = HamiltonianParams(beta0=beta0, beta_plus=beta_plus, beta3=beta3,
                          gamma1=gamma1, gamma2=gamma2, h0=h0)
    c = LadderCoeffs(*coeffs)
    assert_same_csr(csr(build_hamiltonian(p, g)), sum_hamiltonian(p, ref))
    assert_same_csr(csr(build_ladder(c, g)), sum_ladder(c, ref))


def test_h_and_a_are_each_one_operator(gen8, monkeypatch):
    built = []
    init = fock.Operator.__init__

    def counting(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(fock.Operator, "__init__", counting)
    p = HamiltonianParams(beta0=2.5, beta_plus=0.3 + 0.1j, beta3=0.4, gamma1=0.2j,
                          gamma2=-0.1, h0=0.5)
    build_hamiltonian(p, gen8)
    assert len(built) == 1
    build_ladder(LadderCoeffs(*np.arange(1, 9) * (1 + 0.5j)), gen8)
    assert len(built) == 2
