"""Acceptance battery: one test per release criterion, each printing a
PASS/FAIL line.  Tolerances are pinned here and nowhere else."""

import math
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from ladderforge.catalogue import Bindings, appendix_catalogue
from ladderforge.chen import PQParams, build_H_pq, chen_ground, louck_spectrum
from ladderforge.eigenstates import (EigenstateRequest, basic21_states,
                                     fractional_lambda_state,
                                     fractional_separable_cs, isotropic_states,
                                     linear_coupled_states, su2_ground,
                                     verify_eigenstate)
from ladderforge.fock import (FockCutoff, build_generators, commutator,
                              interior_indices, interior_projector,
                              shell_projector, vacuum_state)
from ladderforge.params import (HamiltonianParams, LadderCoeffs,
                                build_hamiltonian, build_ladder, classify,
                                compute_a0, solve_alpha_block, solve_ladder,
                                solve_mu_nu_block, su2_invariant, verify_ladder)
from ladderforge.reductions import reduce_by_similarity
from ladderforge.spectra import (diagonalize_oracle, normal_order_coeffs,
                                 normal_order_coeffs_recurrence,
                                 normal_order_power, raising_chain)
from ladderforge.transforms import (build_chain, build_unitary,
                                    rotation_safe_degree, similarity)
from oracles import mix_spec, rotated_couplings


def report(name: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'}  {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def gate_params(beta0, beta3, b, theta=0.7, **kw):
    r = np.sqrt((b ** 2 - beta3 ** 2) / 4.0)
    return HamiltonianParams(beta0=beta0, beta_plus=r * np.exp(1j * theta),
                             beta3=beta3, **kw)


@pytest.fixture(scope="module")
def gen14a():
    return build_generators(FockCutoff(14, 14))


@pytest.fixture(scope="module")
def gen20a():
    return build_generators(FockCutoff(20, 20))


# 1 ------------------------------------------------------------------------

def test_criterion_1_algebra_suite(gen14a):
    g = gen14a
    proj = interior_projector(g.cutoff, 2)
    ident = g.identity

    def r(op):
        return (proj @ op @ proj).norm()

    residuals = [
        r(commutator(g.a1, g.a1_dag) - ident),
        r(commutator(g.a2, g.a2_dag) - ident),
        r(commutator(g.a1, g.a2_dag)),
        r(commutator(g.a1, g.a2)),
        r(commutator(g.a1_dag, g.a2_dag)),
        r(commutator(g.j_plus, g.j_minus) - 2 * g.j3),
        r(commutator(g.j3, g.j_plus) - g.j_plus),
        r(commutator(g.j3, g.j_minus) + g.j_minus),
        r(commutator(g.n_op, g.j3)),
        r(commutator(g.n_op, g.j_plus)),
        r(commutator(g.n_op, g.j_minus)),
        r(commutator(g.n_op, g.a1) + 0.5 * g.a1),
        r(commutator(g.n_op, g.a2) + 0.5 * g.a2),
        r(commutator(g.n_op, g.a1_dag) - 0.5 * g.a1_dag),
        r(commutator(g.n_op, g.a2_dag) - 0.5 * g.a2_dag),
        r(commutator(g.j3, g.a1) + 0.5 * g.a1),
        r(commutator(g.j3, g.a2) - 0.5 * g.a2),
        r(commutator(g.j3, g.a1_dag) - 0.5 * g.a1_dag),
        r(commutator(g.j3, g.a2_dag) + 0.5 * g.a2_dag),
        r(commutator(g.j_plus, g.a1) + g.a2),
        r(commutator(g.j_plus, g.a2_dag) - g.a1_dag),
        r(commutator(g.j_minus, g.a2) + g.a1),
        r(commutator(g.j_minus, g.a1_dag) - g.a2_dag),
        r(commutator(g.j_plus, g.a1_dag)),
        r(commutator(g.j_plus, g.a2)),
        r(commutator(g.j_minus, g.a2_dag)),
        r(commutator(g.j_minus, g.a1)),
    ]
    worst = max(residuals)
    report("criterion 1: algebra relations on the degree-2 interior", worst < 1e-12,
           f"worst residual {worst:.2e} over {len(residuals)} relations")


# 2 ------------------------------------------------------------------------

def test_criterion_2_gate_reproduction():
    rng = np.random.default_rng(1234)
    checked = 0
    for k in range(1000):
        if k % 5 == 0:
            # engineered draws sitting exactly on one of the gates
            beta3 = rng.uniform(-0.9, 0.9)
            target_b2 = 1.0 if k % 10 == 0 else rng.uniform(0.2, 4.0)
            rr = np.sqrt(max(target_b2 - beta3 ** 2, 0.0) / 4.0)
            beta0 = 2.0 - np.sqrt(target_b2) if k % 3 == 0 else rng.uniform(-4, 4)
            p = HamiltonianParams(beta0=beta0,
                                  beta_plus=rr * np.exp(1j * rng.uniform(0, 6.3)),
                                  beta3=beta3)
        else:
            p = HamiltonianParams(beta0=rng.uniform(-4, 4),
                                  beta_plus=rng.uniform(0, 1.5)
                                  * np.exp(1j * rng.uniform(0, 6.3)),
                                  beta3=rng.uniform(-2.2, 2.2))
        b2 = su2_invariant(p)
        alpha_exists = bool(solve_alpha_block(p))
        if alpha_exists != (abs(b2 - 1.0) < 1e-10):
            report("criterion 2: gate reproduction", False,
                   f"alpha gate mismatch at b^2={b2}")
        sol = solve_mu_nu_block(p)
        mu_exists = any(np.max(np.abs(d[:2])) > 0.5 for d in sol.basis)
        if mu_exists != (abs((2 - p.beta0) ** 2 - b2) < 1e-10):
            report("criterion 2: gate reproduction", False,
                   f"mu gate mismatch at beta0={p.beta0}, b^2={b2}")
        checked += 1
    report("criterion 2: solvability gates over random draws", checked == 1000,
           f"{checked} draws, alpha iff b^2=1, mu iff (2-beta0)^2=b^2")


# 3 ------------------------------------------------------------------------

def test_criterion_3_ladder_residuals(gen14a):
    rng = np.random.default_rng(77)
    worst = 0.0
    count = 0
    binds = [Bindings()]
    for _ in range(4):
        binds.append(Bindings(
            free_mu=rng.normal() + 1j * rng.normal(),
            free_nu=rng.normal() + 1j * rng.normal(),
            free_alpha=rng.normal() + 1j * rng.normal(),
            gamma1=0.5 * (rng.normal() + 1j * rng.normal()),
            gamma2=0.5 * (rng.normal() + 1j * rng.normal()),
            beta0_generic=rng.uniform(1.2, 2.8),
            beta3=rng.uniform(0.2, 0.9),
            theta=rng.uniform(0, 2 * np.pi)))
    for bind in binds:
        for row in appendix_catalogue(bind):
            h = build_hamiltonian(row.params, gen14a)
            a = build_ladder(row.coeffs, gen14a)
            worst = max(worst, verify_ladder(h, a, 3))
            count += 1
    # solver output on assorted families
    families = [
        HamiltonianParams(beta0=2.0),
        gate_params(0.5, 0.4, 1.5),
        gate_params(2.5, 0.6, 1.0),
        gate_params(3.0, 0.6, 1.0),
        gate_params(0.0, 0.8, 2.0),
        HamiltonianParams(beta0=2.0, gamma1=0.4 + 0.3j, gamma2=0.2),
        gate_params(2.5, 0.6, 1.0, gamma1=0.4 + 0.3j, gamma2=0.25 - 0.15j),
    ]
    for p in families:
        h = build_hamiltonian(p, gen14a)
        for coeff in solve_ladder(p).coeffs:
            worst = max(worst, verify_ladder(h, build_ladder(coeff, gen14a), 3))
            count += 1
    report("criterion 3: commutator residual of every catalogue/solver pair",
           worst < 1e-10, f"{count} pairs, worst {worst:.2e}")


# 4 ------------------------------------------------------------------------

def test_criterion_4_normal_ordering(gen14a):
    rows_ok = ([c.value for c in normal_order_coeffs(4)] == [1, 6, 3]
               and [c.value for c in normal_order_coeffs(5)] == [1, 10, 15])
    closed_vs_rec = all([c.value for c in normal_order_coeffs(n)]
                        == normal_order_coeffs_recurrence(n) for n in range(11))
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(50):
        mu2 = rng.uniform(0.2, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        ap = rng.uniform(0.2, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        c = LadderCoeffs(mu2=mu2, alpha_plus=ap)
        n = int(rng.integers(1, 8))
        ordered = normal_order_power(c, n, gen14a)
        brute = gen14a.identity
        a_dag = build_ladder(c, gen14a).dag()
        for _ in range(n):
            brute = brute @ a_dag
        proj = interior_projector(gen14a.cutoff, n + 1)
        worst = max(worst, (proj @ (ordered - brute) @ proj).norm())
    report("criterion 4: normal-ordered powers",
           rows_ok and closed_vs_rec and worst < 1e-8,
           f"printed rows ok={rows_ok}, closed=recurrence(n<=10)={closed_vs_rec}, "
           f"50 random draws worst {worst:.2e}")


# 5 ------------------------------------------------------------------------

def _chain_vs_oracle(h, a, ground, expected, degree=3):
    rep = raising_chain(h, a, ground, len(expected) - 1, degree=degree)
    oracle = diagonalize_oracle(h, degree)
    worst = 0.0
    for e, target in zip(rep.entries, expected):
        if not e.certified:
            continue
        worst = max(worst, e.residual, abs(e.energy_chain - target),
                    float(np.min(np.abs(oracle - target))))
    return worst, rep


def test_criterion_5_spectra(gen14a):
    worst = 0.0
    # fractional families
    for beta0 in (0.5, 2.5, 7.0 / 3.0):
        b = abs(2.0 - beta0)
        beta3 = min(0.4, 0.6 * b)
        p = gate_params(beta0, beta3, b)
        repo = solve_ladder(p)
        coeff = repo.coeffs[0].scaled(1.0 / repo.coeffs[0].mu1)
        h = build_hamiltonian(p, gen14a)
        a = build_ladder(coeff, gen14a)
        for kappa in (0, 1, 2):
            tag = classify(p)
            ground = fractional_lambda_state(
                p, EigenstateRequest(tag=tag, kappa=kappa), gen14a)
            expected = [kappa * (beta0 - 1.0) + n for n in range(5)]
            w, _ = _chain_vs_oracle(h, a, ground, expected)
            worst = max(worst, w)
    # 2:1 basic families: energies n, n+2, 2 kappa + n
    cut = FockCutoff(12, 24)
    g2 = build_generators(cut)
    h = build_hamiltonian(HamiltonianParams(beta0=3.0, beta3=1.0), g2)
    mu2, ap = 0.8 + 0.1j, 0.5 - 0.3j
    a = build_ladder(LadderCoeffs(mu2=mu2, alpha_plus=ap), g2)
    w, _ = _chain_vs_oracle(h, a, vacuum_state(cut), list(range(7)))
    worst = max(worst, w)
    w, _ = _chain_vs_oracle(h, a, basic21_states(mu2, ap, 0.0, 2, g2),
                            [2 + n for n in range(6)])
    worst = max(worst, w)
    for kappa in (2, 3):
        w, _ = _chain_vs_oracle(h, a, basic21_states(mu2, ap, 0.0, 3, g2, kappa=kappa),
                                [2 * kappa + n for n in range(5)])
        worst = max(worst, w)
    # su(2): truncated ladders
    collapse_ok = True
    for kappa in range(6):
        p = gate_params(0.0, 0.6, 1.0, theta=1.1)
        reps = solve_ladder(p)
        h = build_hamiltonian(p, gen14a)
        a = build_ladder(reps.coeffs[0], gen14a)
        ground = su2_ground(0.6, 1.1, kappa, gen14a)
        expected = [-kappa / 2.0 + n for n in range(kappa + 1)]
        rep = raising_chain(h, a, ground, kappa + 3, degree=3)
        collapse_ok &= rep.collapse_at == kappa + 1
        oracle = diagonalize_oracle(h, rotation_safe_degree(gen14a.cutoff))
        for e, target in zip(rep.entries, expected):
            worst = max(worst, e.residual, abs(e.energy_chain - target),
                        float(np.min(np.abs(oracle - target))))
    report("criterion 5: chain energies match closed forms and the oracle",
           worst < 1e-8 and collapse_ok,
           f"worst deviation {worst:.2e}, su(2) ladders truncate at n=kappa")


# 6 ------------------------------------------------------------------------

def test_criterion_6_similarity_reductions(gen14a):
    g = gen14a
    deg = rotation_safe_degree(g.cutoff)
    proj = interior_projector(g.cutoff, deg)
    worst = 0.0

    def entrywise(lhs, rhs):
        return (proj @ (lhs - rhs) @ proj).norm()

    # one-direction families: T lands on beta0 N +/- b J3
    for beta0, eps in [(0.5, 1), (3.5, 1), (0.5, -1), (3.5, -1)]:
        b = abs(2.0 - beta0)
        p = gate_params(beta0, 0.5, b)
        t = build_unitary(mix_spec(eps, b, p.beta3, p.theta), g)
        reduced = similarity(t, build_hamiltonian(p, g))
        target = build_hamiltonian(HamiltonianParams(beta0=beta0, beta3=eps * b), g)
        worst = max(worst, entrywise(reduced, target))
    # extended 2:1 (quarter-turn) and the b = 2 difference form
    p = gate_params(3.0, 0.0, 1.0, theta=0.4)
    t = build_unitary(mix_spec(1, 1.0, 0.0, 0.4), g)
    worst = max(worst, entrywise(similarity(t, build_hamiltonian(p, g)),
                                 build_hamiltonian(HamiltonianParams(beta0=3.0, beta3=1.0), g)))
    p = gate_params(0.0, 0.8, 2.0, theta=1.1)
    t = build_unitary(mix_spec(1, 2.0, 0.8, 1.1), g)
    worst = max(worst, entrywise(similarity(t, build_hamiltonian(p, g)), 2.0 * g.j3))
    # composite rotation + displacement chain with the printed constant shift
    p = gate_params(2.5, 0.6, 1.0, gamma1=0.12 + 0.09j, gamma2=0.10 - 0.06j, h0=0.3)
    red = reduce_by_similarity(p, solve_ladder(p).coeffs[0], g)
    g1, g2 = rotated_couplings(p)
    h0_target = p.h0 - 2 * abs(g1) ** 2 / (p.beta0 + 1) - 2 * abs(g2) ** 2 / (p.beta0 - 1)
    sproj = shell_projector(g.cutoff, red.shell_max)
    u = build_chain(red.chain, g)
    reduced = similarity(u, build_hamiltonian(p, g))
    target = build_hamiltonian(HamiltonianParams(beta0=p.beta0, beta3=1.0,
                                                 h0=h0_target), g)
    worst = max(worst, (sproj @ (reduced - target) @ sproj).norm())

    # spectra invariance below the truncation frontier
    p = gate_params(3.0, 0.6, 1.0)
    rep = solve_ladder(p)
    combined = rep.coeffs[0].plus(rep.coeffs[1])
    red = reduce_by_similarity(p, combined, g)
    u = build_chain(red.chain, g)
    e1 = diagonalize_oracle(build_hamiltonian(p, g), deg)
    e2 = diagonalize_oracle(similarity(u, build_hamiltonian(p, g)), deg)
    e_cut = (g.cutoff.n1_max - deg + 1) * 1.0  # slow mode frequency 1
    f1 = e1[e1 < e_cut - 1e-9]
    f2 = e2[e2 < e_cut - 1e-9]
    spectra_dev = (np.max(np.abs(f1 - f2))
                   if len(f1) == len(f2) and len(f1) else np.inf)
    report("criterion 6: similarity reductions land on the printed forms",
           worst < 1e-8 and spectra_dev < 1e-7,
           f"entrywise worst {worst:.2e}, interior spectra deviation {spectra_dev:.2e} "
           f"on {len(f1)} safe levels")


# 7 ------------------------------------------------------------------------

def test_criterion_7_eigenstate_residuals(gen20a):
    g = gen20a
    lam_grid = [0.0, 0.9 - 0.4j, 2.0, 1.2 + 1.4j]
    worst_eig = 0.0
    worst_h = 0.0
    keep = interior_indices(g.cutoff, 4)

    def h_resid(h, v, energy):
        return float(np.linalg.norm((h.mat @ v.amplitudes
                                     - energy * v.amplitudes)[keep]))

    # fractional
    p = gate_params(0.5, 0.4, 1.5, theta=0.3)
    tag = classify(p)
    repo = solve_ladder(p)
    a = build_ladder(repo.coeffs[0].scaled(1.0 / repo.coeffs[0].mu1), g)
    h = build_hamiltonian(p, g)
    for lam in lam_grid:
        for kappa in (0, 2):
            v = fractional_lambda_state(p, EigenstateRequest(tag=tag, lam=lam,
                                                             kappa=kappa), g)
            worst_eig = max(worst_eig, verify_eigenstate(a, v, lam, 4))
            if lam == 0.0:
                worst_h = max(worst_h, h_resid(h, v, kappa * (p.beta0 - 1.0)))
        v = fractional_separable_cs(p, lam, 0.5, g)
        worst_eig = max(worst_eig, verify_eigenstate(a, v, lam, 4))
    # isotropic
    a = build_ladder(LadderCoeffs(mu1=0.8, mu2=0.6), g)
    h = build_hamiltonian(HamiltonianParams(beta0=2.0), g)
    for lam in lam_grid:
        v = isotropic_states(0.8, 0.6, lam, 0, 1, g)
        worst_eig = max(worst_eig, verify_eigenstate(a, v, lam, 4))
        v = isotropic_states(0.8, 0.6, lam, 2, 2, g)
        worst_eig = max(worst_eig, verify_eigenstate(a, v, lam, 4))
        if lam == 0.0:
            worst_h = max(worst_h, h_resid(h, v, 2.0))
    # 2:1 basic, all branches
    mu2, ap = 1.0, 0.4
    a = build_ladder(LadderCoeffs(mu2=mu2, alpha_plus=ap), g)
    h = build_hamiltonian(HamiltonianParams(beta0=3.0, beta3=1.0), g)
    for lam in lam_grid:
        v = basic21_states(mu2, ap, lam, 1, g, c1=0.3)
        worst_eig = max(worst_eig, verify_eigenstate(a, v, lam, 4))
        v = basic21_states(mu2, ap, lam, 2, g)
        worst_eig = max(worst_eig, verify_eigenstate(a, v, lam, 4))
    for kappa in (1, 2, 3):
        v = basic21_states(mu2, ap, 0.0, 3, g, kappa=kappa)
        worst_h = max(worst_h, h_resid(h, v, 2.0 * kappa))
    # su(2) grounds
    p = gate_params(2.5, 0.6, 1.0, theta=1.1, h0=0.2)
    reps = solve_ladder(p)
    a = build_ladder(reps.coeffs[0], g)
    h = build_hamiltonian(p, g)
    for kappa in (0, 2, 4):
        v = su2_ground(0.6, 1.1, kappa, g)
        worst_eig = max(worst_eig, verify_eigenstate(a, v, 0.0, 4))
        worst_h = max(worst_h, h_resid(h, v, kappa * (p.beta0 - 1) / 2 + p.h0))
    # displaced isotropic
    p = HamiltonianParams(beta0=2.0, gamma1=0.4 + 0.3j, gamma2=0.25 - 0.15j)
    tag = classify(p)
    coeff = LadderCoeffs(mu1=0.9, mu2=0.5 + 0.2j)
    from dataclasses import replace
    coeff = replace(coeff, a0=compute_a0(p, coeff))
    a = build_ladder(coeff, g)
    h = build_hamiltonian(p, g)
    for lam in lam_grid:
        req = EigenstateRequest(tag=tag, lam=lam, branch=1, c1=0.6)
        v = linear_coupled_states(p, req, g, mu1=0.9, mu2=0.5 + 0.2j)
        worst_eig = max(worst_eig, verify_eigenstate(a, v, lam, 4))
    v = linear_coupled_states(p, EigenstateRequest(tag=tag), g,
                              mu1=0.9, mu2=0.5 + 0.2j)
    worst_h = max(worst_h, h_resid(h, v, -(abs(p.gamma1) ** 2 + abs(p.gamma2) ** 2)))
    # displaced 2:1 (both couplings)
    p = HamiltonianParams(beta0=3.0, beta3=1.0, gamma1=0.4 + 0.3j, gamma2=0.25 - 0.15j)
    tag = classify(p)
    rep = solve_ladder(p)
    combined = LadderCoeffs()
    for c in rep.coeffs:
        combined = combined.plus(c)
    a = build_ladder(combined, g)
    h = build_hamiltonian(p, g)
    e_shift = -(abs(p.gamma1) ** 2 / 2 + abs(p.gamma2) ** 2)
    for lam in lam_grid:
        req = EigenstateRequest(tag=tag, lam=lam, branch=1, c1=0.3)
        v = linear_coupled_states(p, req, g)
        worst_eig = max(worst_eig, verify_eigenstate(a, v, lam, 4))
        req = EigenstateRequest(tag=tag, lam=lam, branch=2)
        v = linear_coupled_states(p, req, g)
        worst_eig = max(worst_eig, verify_eigenstate(a, v, lam, 4))
    v = linear_coupled_states(p, EigenstateRequest(tag=tag), g)
    worst_h = max(worst_h, h_resid(h, v, e_shift))
    v = linear_coupled_states(p, EigenstateRequest(tag=tag, branch=2), g)
    worst_h = max(worst_h, h_resid(h, v, 2.0 + e_shift))
    # b = 2 pair families
    p = gate_params(0.0, -0.8, 2.0, theta=0.9)
    tag = classify(p)
    mu1, nu1 = 1.0, 0.3
    denom = abs(mu1) ** 2 / (2 + p.beta3) - abs(nu1) ** 2 / (2 - p.beta3)
    scale = 2 * np.sqrt(denom)
    coeff = LadderCoeffs(mu1=mu1 / scale,
                         mu2=2 * p.beta_minus / (2 + p.beta3) * mu1 / scale,
                         nu1=nu1 / scale,
                         nu2=-2 * p.beta_plus / (2 - p.beta3) * nu1 / scale)
    a = build_ladder(coeff, g)
    h = build_hamiltonian(p, g)
    for lam in lam_grid:
        for branch in (1, 2):
            req = EigenstateRequest(tag=tag, lam=lam, branch=branch, kappa=1)
            v = linear_coupled_states(p, req, g, mu1=mu1, nu1=nu1)
            worst_eig = max(worst_eig, verify_eigenstate(a, v, lam, 5))
    v = linear_coupled_states(p, EigenstateRequest(tag=tag, branch=2, kappa=1),
                              g, mu1=mu1, nu1=nu1)
    worst_h = max(worst_h, h_resid(h, v, -1.0))
    report("criterion 7: eigenstate residuals across all families",
           worst_eig < 1e-8 and worst_h < 1e-8,
           f"|Av - lam v| worst {worst_eig:.2e}, lam=0 energy worst {worst_h:.2e}")


# 8 ------------------------------------------------------------------------

def test_criterion_8_chen_louck(gen20a):
    coprime = [(p, q) for p in range(1, 6) for q in range(1, 6)
               if math.gcd(p, q) == 1]
    worst = 0.0
    for p_int, q_int in coprime:
        pq = PQParams(p_int, q_int, 0.7 + 0.2j, 0.9 - 0.5j)
        h = build_H_pq(pq, gen20a)
        for kappa in range(5):
            if pq.q * kappa > 20 or pq.p * kappa > 20:
                continue
            v = chen_ground(pq, kappa, gen20a)
            worst = max(worst, float(np.linalg.norm(
                h.mat @ v.amplitudes - kappa * v.amplitudes)))
    # Louck multiset, exact after rational rounding
    cut = FockCutoff(12, 12)
    g12 = build_generators(cut)
    multiset_ok = True
    for p_int, q_int in coprime:
        pq = PQParams(p_int, q_int)
        oracle = diagonalize_oracle(build_H_pq(pq, g12), 0)
        expected = []
        for n1, n2 in cut.states():
            expected.append(louck_spectrum(pq, n1 // pq.q + n2 // pq.p,
                                           n1 % pq.q, n2 % pq.p))
        scaled_oracle = np.round(oracle * pq.p * pq.q).astype(int)
        deviation = np.max(np.abs(oracle * pq.p * pq.q - scaled_oracle))
        if deviation > 1e-9 * pq.p * pq.q:
            multiset_ok = False
        scaled_expected = np.round(np.array(sorted(expected)) * pq.p * pq.q).astype(int)
        if Counter(scaled_oracle.tolist()) != Counter(scaled_expected.tolist()):
            multiset_ok = False
    report("criterion 8: Chen grounds and the Louck spectrum",
           worst < 1e-10 and multiset_ok,
           f"{len(coprime)} coprime pairs, worst ground residual {worst:.2e}, "
           "interior multisets exact")


# 9 ------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    out = tmp_path / "sweep"
    base = [sys.executable, "-m", "ladderforge.cli", "catalogue-sweep",
            "--cutoff", "12,12", "--out", str(out), "--format", "csv"]
    subprocess.run(base, check=True)
    first = (out / "catalogue-sweep.json").read_bytes()
    first_csv = (out / "catalogue.csv").read_bytes()
    subprocess.run(base, check=True)
    same = ((out / "catalogue-sweep.json").read_bytes() == first
            and (out / "catalogue.csv").read_bytes() == first_csv)
    report("criterion 9: catalogue sweep is byte-deterministic", same,
           f"{len(first)} bytes compared")
