from collections import Counter

import numpy as np
import pytest
from oracles import (csr, diagonalize_oracle, interior_projector, normal_order_coeffs,
                     normal_order_coeffs_recurrence, normal_order_power, su2_ground,
                     vacuum_state)

from ladderforge.catalogue import appendix_catalogue
from ladderforge.errors import LadderForgeError
from ladderforge.eigenstates import basic21_states, chain_seed
from ladderforge.fock import FockCutoff, build_generators, interior_indices
from ladderforge.params import (HamiltonianParams, LadderCoeffs, build_hamiltonian,
                                build_ladder, solve_ladder)
from ladderforge.reductions import reduction_frame
from ladderforge.spectra import nearest_eigenvalues, raising_chain


def _chain(h, a, ground, n_max, e0, **kw):
    """raising_chain on the CSR matrices of H and A', as `spectrum` runs it."""
    return raising_chain(h.csr(), a.dag().csr(), ground, n_max, e0, **kw)


# ---------------------------------------------------------------------------
# normal-ordered powers
# ---------------------------------------------------------------------------

def test_coefficient_rows():
    assert [c.value for c in normal_order_coeffs(0)] == [1]
    assert [c.value for c in normal_order_coeffs(1)] == [1]
    assert [c.value for c in normal_order_coeffs(2)] == [1, 1]
    assert [c.value for c in normal_order_coeffs(3)] == [1, 3]
    assert [c.value for c in normal_order_coeffs(4)] == [1, 6, 3]
    assert [c.value for c in normal_order_coeffs(5)] == [1, 10, 15]


def test_closed_form_equals_recurrence():
    for n in range(21):
        assert [c.value for c in normal_order_coeffs(n)] \
            == normal_order_coeffs_recurrence(n)


def test_normal_order_power_small(gen14):
    mu2, ap = 0.8 + 0.1j, 0.5 - 0.3j
    c = LadderCoeffs(mu2=mu2, alpha_plus=ap)
    a_dag = csr(build_ladder(c, gen14)).dag()
    one = normal_order_power(c, 1, gen14)
    assert (one - a_dag).norm() < 1e-12
    two = normal_order_power(c, 2, gen14)
    brute = a_dag @ a_dag
    proj = interior_projector(gen14.cutoff, 3)
    assert (proj @ (two - brute) @ proj).norm() < 1e-11


def test_normal_order_power_random(gen14, rng):
    for _ in range(12):
        mu2 = rng.uniform(0.2, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        ap = rng.uniform(0.2, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        c = LadderCoeffs(mu2=mu2, alpha_plus=ap)
        a_dag = csr(build_ladder(c, gen14)).dag()
        n = int(rng.integers(2, 8))
        ordered = normal_order_power(c, n, gen14)
        brute = csr(gen14.shift("identity"))
        for _ in range(n):
            brute = brute @ a_dag
        proj = interior_projector(gen14.cutoff, n + 1)
        assert (proj @ (ordered - brute) @ proj).norm() < 1e-8


def test_normal_order_power_shifted(gen14):
    g1, g2 = 0.4 + 0.3j, 0.25 - 0.15j
    mu2, ap = 0.8, 0.6
    c = LadderCoeffs(mu1=np.conj(g2) * ap, mu2=mu2, nu2=g1 * ap / 2.0,
                     alpha_plus=ap, a0=g2 * mu2 + g1 * np.conj(g2) * ap / 2.0)
    a_dag = csr(build_ladder(c, gen14)).dag()
    for n in (3, 6):
        ordered = normal_order_power(c, n, gen14, gamma1=g1, gamma2=g2)
        brute = csr(gen14.shift("identity"))
        for _ in range(n):
            brute = brute @ a_dag
        proj = interior_projector(gen14.cutoff, n + 1)
        assert (proj @ (ordered - brute) @ proj).norm() < 1e-8


def test_normal_order_power_shape_check(gen14):
    with pytest.raises(LadderForgeError):
        normal_order_power(LadderCoeffs(mu1=1.0, mu2=1.0, alpha_plus=1.0), 3, gen14)
    with pytest.raises(LadderForgeError):
        normal_order_power(LadderCoeffs(mu2=1.0), 3, gen14)


# ---------------------------------------------------------------------------
# raising chains
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def chain_setup():
    cut = FockCutoff(12, 24)
    g = build_generators(cut)
    h = build_hamiltonian(HamiltonianParams(beta0=3.0, beta3=1.0), g)
    mu2, ap = 0.8 + 0.1j, 0.5 - 0.3j
    a = build_ladder(LadderCoeffs(mu2=mu2, alpha_plus=ap), g)
    return g, h, a, mu2, ap


def test_chain_from_vacuum(chain_setup):
    g, h, a, mu2, ap = chain_setup
    rep = _chain(h, a, vacuum_state(g.cutoff), 9, 0.0, degree=3, family="2:1")
    assert rep.entries[0].energy_chain == pytest.approx(0.0, abs=1e-12)
    for e in rep.entries:
        assert e.certified
        assert e.residual < 1e-9
        assert abs(e.energy_chain - e.energy_formula) < 1e-9


def test_chain_states_match_closed_coefficients(chain_setup):
    import math
    g, h, a, mu2, ap = chain_setup
    rep = _chain(h, a, vacuum_state(g.cutoff), 7, 0.0, degree=3)
    n = 5
    v = rep.states[n]
    z = np.conj(ap) / (2 * np.conj(mu2))
    coeffs = np.array([z ** k / np.sqrt(math.factorial(n - 2 * k) * math.factorial(k))
                       for k in range(n // 2 + 1)])
    coeffs /= np.linalg.norm(coeffs)
    got = np.array([v.amplitudes[g.cutoff.index(k, n - 2 * k)]
                    for k in range(n // 2 + 1)])
    phase = got[0] / coeffs[0]
    assert np.linalg.norm(got - phase * coeffs) < 1e-12


def test_chain_closed_norm_constant(chain_setup):
    # printed norm of the n-th chain state over the vacuum family
    import math
    g, h, a, mu2, ap = chain_setup
    n = 6
    raiser = a.dag().csr()
    v = vacuum_state(g.cutoff).amplitudes
    for _ in range(n):
        v = raiser @ v
    scale = math.factorial(n) * abs(mu2) ** n
    norm_sq = (np.linalg.norm(v) / scale) ** 2
    closed = sum((abs(ap) / (2 * abs(mu2))) ** (2 * k)
                 / (math.factorial(n - 2 * k) * math.factorial(k))
                 for k in range(n // 2 + 1))
    assert abs(norm_sq - closed) < 1e-10


def test_branch2_chain_offset(chain_setup):
    g, h, a, mu2, ap = chain_setup
    ground = basic21_states(mu2, ap, 0.0, 2, g)
    rep = _chain(h, a, ground, 6, 2.0, degree=3)
    assert rep.entries[0].energy_chain == pytest.approx(2.0, abs=1e-10)
    for e in rep.entries:
        assert e.residual < 1e-9


def test_degeneracy_coverage(chain_setup):
    g, h, a, mu2, ap = chain_setup
    energies = []
    for kappa in range(5):
        if kappa == 0:
            ground = vacuum_state(g.cutoff)
        else:
            ground = basic21_states(mu2, ap, 0.0, 3, g, kappa=kappa)
        rep = _chain(h, a, ground, 14, 2.0 * kappa, degree=3)
        energies += [round(e.energy_formula, 7) for e in rep.entries
                     if e.certified and e.energy_formula <= 9.0 + 1e-9]
    oracle = [round(float(x), 7) for x in diagonalize_oracle(csr(h), 3) if x <= 9.0 + 1e-9]
    assert Counter(energies) == Counter(oracle)


def test_chain_orthogonality_across_energies(chain_setup):
    g, h, a, mu2, ap = chain_setup
    rep0 = _chain(h, a, vacuum_state(g.cutoff), 6, 0.0, degree=3)
    ground = basic21_states(mu2, ap, 0.0, 3, g, kappa=2)
    rep2 = _chain(h, a, ground, 6, 4.0, degree=3)
    for e0, v0 in zip(rep0.entries, rep0.states):
        for e2, v2 in zip(rep2.entries, rep2.states):
            if abs(e0.energy_formula - e2.energy_formula) > 0.5:
                assert abs(v0.overlap(v2)) < 1e-7


def test_su2_chain_truncates(gen10):
    r = np.sqrt(1 - 0.6 ** 2) / 2
    p = HamiltonianParams(beta0=0.0, beta_plus=r * np.exp(1.1j), beta3=0.6)
    rep_solver = solve_ladder(p)
    a = build_ladder(rep_solver.coeffs[0], gen10)
    h = build_hamiltonian(p, gen10)
    kappa = 4
    ground = su2_ground(0.6, 1.1, kappa, gen10)
    rep = _chain(h, a, ground, 8, -kappa / 2, degree=3, family="su2")
    assert rep.collapse_at == kappa + 1
    energies = [e.energy_chain for e in rep.entries]
    np.testing.assert_allclose(energies, [-kappa / 2 + n for n in range(kappa + 1)],
                               atol=1e-9)


def _checked_chain(h, a, g):
    rep = _chain(h, a, vacuum_state(g.cutoff), 3, 0.0, degree=3, family="2:1")
    nearest, _ = nearest_eigenvalues(h.csr(), h.cutoff, [e.energy_chain for e in rep.entries], 3)
    for e, x in zip(rep.entries, nearest):
        e.energy_oracle = float(x)
    return rep


def test_chain_csv_rows(chain_setup):
    g, h, a, _, _ = chain_setup
    rep = _checked_chain(h, a, g)
    assert rep.CSV_HEADER == "family,kappa,n,energy_formula,energy_chain,energy_oracle,residual"
    rows = rep.csv_rows(kappa=0)
    assert len(rows) == 4
    assert all(len(row.split(",")) == 7 and row.split(",")[5] != "" for row in rows)


def test_chain_csv_numeric_columns_are_plain_floats(chain_setup):
    g, h, a, _, _ = chain_setup
    rep = _checked_chain(h, a, g)
    dense = diagonalize_oracle(csr(h), 3)
    rows = rep.csv_rows(kappa=0)
    assert len(rows) == 4
    for row, e in zip(rows, rep.entries):
        family, kappa, n, *numbers = row.split(",")
        assert (family, kappa) == ("2:1", "0") and int(n) >= 0
        formula, chain, oracle, residual = (float(x) for x in numbers)
        assert oracle == e.energy_oracle
        assert abs(oracle - min(dense, key=lambda x: abs(x - chain))) <= 1e-11
    # an entry that was never checked leaves its oracle column empty
    unchecked = _chain(h, a, vacuum_state(g.cutoff), 0, 0.0, degree=3, family="2:1")
    assert unchecked.csv_rows(kappa=0)[0].split(",")[5] == ""


# ---------------------------------------------------------------------------
# the diagonalization oracle
# ---------------------------------------------------------------------------

def test_oracle_diagonal(gen10):
    h = build_hamiltonian(HamiltonianParams(beta0=2.0), gen10)
    vals = diagonalize_oracle(csr(h), 0)
    grid = sorted(n1 + n2 for n1, n2 in gen10.cutoff.states())
    np.testing.assert_allclose(vals, grid, atol=1e-12)
    h21 = build_hamiltonian(HamiltonianParams(beta0=3.0, beta3=1.0), gen10)
    lowest = diagonalize_oracle(csr(h21), 0)[:5]
    np.testing.assert_allclose(lowest, [0, 1, 2, 2, 3], atol=1e-12)


def test_oracle_rejects_non_hermitian(gen10):
    # a1 joins shells, J+ keeps them: both paths of nearest_eigenvalues check
    for op in (gen10.shift("a1"), gen10.shift("j_plus")):
        with pytest.raises(LadderForgeError):
            diagonalize_oracle(csr(op), 1)
        with pytest.raises(LadderForgeError):
            nearest_eigenvalues(op.csr(), op.cutoff, [0.0, 1.0], 1)


# ---------------------------------------------------------------------------
# the structured oracle against the dense one
# ---------------------------------------------------------------------------

def gate_params(beta0, beta3, b, theta=0.7, **kw):
    r = np.sqrt((b ** 2 - beta3 ** 2) / 4.0)
    return HamiltonianParams(beta0=beta0, beta_plus=r * np.exp(1j * theta),
                             beta3=beta3, **kw)


# one point per family the spectrum scenario serves; the linear-coupled ones
# join shells and take the shift-invert path, the others the per-shell one
SPECTRUM_FAMILIES = {
    "isotropic": HamiltonianParams(beta0=2.0),
    "2:1": HamiltonianParams(beta0=3.0, beta3=1.0),
    "1:2": HamiltonianParams(beta0=3.0, beta3=-1.0),
    "generalized 2:1": gate_params(3.0, 0.5, 1.0),
    "su(2)": gate_params(2.2, 0.3, 1.0, theta=1.1),
    "fractional mu": gate_params(2.5, 0.3, 0.5),
    "fractional nu": gate_params(-2.5, -0.3, 0.5),
    "b = 2": gate_params(0.0, 0.3, 2.0),
    "linear iso": HamiltonianParams(beta0=2.0, gamma1=0.2 + 0.1j, gamma2=-0.15j),
    "linear fractional": gate_params(1.5, 0.3, 0.5, gamma1=0.1 + 0.05j, gamma2=-0.08j),
    "Appendix A": HamiltonianParams(beta0=3.0, beta3=1.0, gamma1=0.2 + 0.1j, gamma2=-0.15j),
    "Appendix B6": gate_params(2.5, 0.6, 1.0, gamma1=0.12 + 0.09j, gamma2=0.1 - 0.06j),
}


def _chain_energies(p, g, certified_only=False, n_max=6):
    """The chain energies the spectrum scenario checks, kappa = 0, 1, 2, and
    the states they were measured on."""
    rep = solve_ladder(p)
    h = build_hamiltonian(p, g)
    a = build_ladder(rep.combined(), g)
    frame = reduction_frame(p)
    chains = [_chain(h, a, chain_seed(frame, kappa, g), n_max, frame.energy(kappa))
              for kappa in (0, 1, 2)]
    pairs = [(e.energy_chain, v) for chain in chains for e, v in zip(chain.entries, chain.states)
             if e.certified or not certified_only]
    return h, np.array([e for e, _ in pairs]), [v for _, v in pairs]


def _dense_nearest(h, energies):
    dense = diagonalize_oracle(csr(h), 3)
    return dense[np.argmin(np.abs(dense - energies[:, None]), axis=1)]


@pytest.mark.parametrize("n", [14, 20, 40])
@pytest.mark.parametrize("name", sorted(SPECTRUM_FAMILIES))
def test_nearest_eigenvalues_match_the_dense_oracle(name, n):
    h, energies, states = _chain_energies(SPECTRUM_FAMILIES[name],
                                          build_generators(FockCutoff(n, n)))
    want = _dense_nearest(h, energies)
    got, fell_back = nearest_eigenvalues(h.csr(), h.cutoff, energies, 3)
    assert got.shape == energies.shape and fell_back.all()
    assert np.max(np.abs(got - want)) <= 1e-11
    # each chain state as the witness of its own energy
    got, fell_back = nearest_eigenvalues(h.csr(), h.cutoff, energies, 3, states)
    assert not fell_back.all()
    assert np.max(np.abs(got - want)) <= 1e-11


def test_witnesses_past_the_interior_fall_back(gen10):
    # a 2:1 chain this long ends in states with no amplitude on the interior;
    # they pin nothing and take the per-shell path
    h, energies, states = _chain_energies(SPECTRUM_FAMILIES["2:1"], gen10, n_max=30)
    keep = interior_indices(gen10.cutoff, 3)
    outside = np.array([not v.amplitudes[keep].any() for v in states])
    assert outside.any()
    got, fell_back = nearest_eigenvalues(h.csr(), h.cutoff, energies, 3, states)
    assert fell_back[outside].all() and not fell_back.all()
    assert np.max(np.abs(got - _dense_nearest(h, energies))) <= 1e-11


def test_nearest_eigenvalues_on_a_near_degenerate_coupled_point(gen14, monkeypatch):
    # the 1e-12 coupling joins shells, so the shift-invert path runs on
    # clusters of n + 1 eigenvalues equal to within 1e-12; ARPACK with
    # ncv = 4 does not converge there
    p = HamiltonianParams(beta0=2.0, gamma1=1e-12j)
    h, energies, _ = _chain_energies(p, gen14)
    want = _dense_nearest(h, energies)
    monkeypatch.setattr(np.linalg, "eigvalsh", None)   # no per-shell path
    assert np.max(np.abs(nearest_eigenvalues(h.csr(), h.cutoff, energies, 3)[0] - want)) <= 1e-11


@pytest.mark.parametrize("name", ["generalized 2:1", "linear iso"])
def test_nearest_eigenvalues_show_a_shifted_energy(gen14, name):
    # a certified chain energy sits on an eigenvalue; moved off it by 1e-6,
    # it is about 1e-6 from every eigenvalue (truncation splits the linear
    # isotropic levels by about 1e-9); its chain state must not pin it
    h, energies, states = _chain_energies(SPECTRUM_FAMILIES[name], gen14, certified_only=True)
    assert energies.size >= 6
    for witnesses in (None, states):
        got, _ = nearest_eigenvalues(h.csr(), h.cutoff, energies, 3, witnesses)
        assert np.max(np.abs(got - energies)) < 1e-10
        shifted = energies + 1e-6
        got, fell_back = nearest_eigenvalues(h.csr(), h.cutoff, shifted, 3, witnesses)
        assert fell_back.all()
        gap = np.abs(shifted - got)
        assert 0.99e-6 < np.min(gap) and np.max(gap) < 1.01e-6


def test_nearest_eigenvalues_report_a_shift_invert_failure(monkeypatch):
    import scipy.sparse.linalg

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.array([]),
                                                      np.array([]))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    h, energies, _ = _chain_energies(SPECTRUM_FAMILIES["linear iso"],
                                     build_generators(FockCutoff(10, 10)))
    with pytest.raises(LadderForgeError, match="did not converge"):
        nearest_eigenvalues(h.csr(), h.cutoff, energies, 3)
    assert nearest_eigenvalues(h.csr(), h.cutoff, [], 3)[0].shape == (0,)   # no energy, no solve


# ---------------------------------------------------------------------------
# the closed-form spectrum of the reduction frame
# ---------------------------------------------------------------------------

# (params, kappa, n, E) written out by hand, E = h0 + kappa omega_other + n
# with h0 the displacement-shifted constant.  The first four are values a
# per-family table got right; it got the others wrong: kappa (beta0 - 1) for
# fractional nu, no displacement shift for linear fractional and the 1:2
# Appendix A row, and no Appendix B branch at all.
CLOSED_FORMS = {
    "fractional mu": (gate_params(2.5, 0.3, 0.5), 2, 3, 6.0),
    "su(2)": (gate_params(0.0, 0.6, 1.0, theta=1.1), 3, 0, -1.5),
    "2:1": (HamiltonianParams(beta0=3.0, beta3=1.0), 0, 0, 0.0),
    "isotropic": (HamiltonianParams(beta0=2.0), 2, 1, 3.0),
    # omega = (-1, -1.5) after the mode swap; the seeds d2^kappa |0> are
    # annihilated by the raiser a1, so each chain is its seed alone
    "fractional nu": (HamiltonianParams(beta0=-2.5, beta3=-0.5), 2, 0, -1.5 * 2),
    # omega = (1.5, 1)
    "linear fractional": (HamiltonianParams(beta0=2.5, beta3=0.5, gamma1=0.3, gamma2=0.2j),
                          1, 2, -(0.3 ** 2 / 1.5 + 0.2 ** 2) + 1.5 + 2),
    # omega = (1, 2) before the mode swap to 2:1
    "Appendix A 1:2": (HamiltonianParams(beta0=3.0, beta3=-1.0, gamma1=0.4, gamma2=0.3),
                       1, 2, -(0.4 ** 2 + 0.3 ** 2 / 2) + 2 + 2),
    # the rotation by pi/4 takes gamma = (0.2, 0.2) to (0.2 sqrt 2, 0), and
    # beta3 to b = 1: omega = (1.75, 0.75)
    "Appendix B4": (HamiltonianParams(beta0=2.5, beta_plus=0.5, gamma1=0.2, gamma2=0.2),
                    2, 1, -2 * 0.2 ** 2 / 1.75 + 0.75 * 2 + 1),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_frame_energy_is_the_closed_form(name, gen20):
    p, kappa, n, want = CLOSED_FORMS[name]
    frame = reduction_frame(p)
    assert abs(frame.energy(kappa, n) - want) < 1e-14
    # the chain from the frame's seed climbs to it
    h = build_hamiltonian(p, gen20)
    a = build_ladder(solve_ladder(p).combined(), gen20)
    chain = _chain(h, a, chain_seed(frame, kappa, gen20), n, frame.energy(kappa))
    entry = chain.entries[n]
    assert entry.certified and abs(entry.energy_chain - want) < 1e-12


def test_frame_frequencies_follow_the_rotation():
    p = HamiltonianParams(beta0=3.0, beta_plus=0.4, beta3=0.6)
    w1, w2 = reduction_frame(p).basic.omega
    assert w1 + w2 == pytest.approx(p.beta0)
    assert w1 - w2 == pytest.approx(p.b)


def test_catalogue_chains_climb_the_frame_energy():
    # every catalogue row with its own ladder, not the unit one
    g = build_generators(FockCutoff(20, 20))
    certified = Counter()
    for row in appendix_catalogue():
        frame = reduction_frame(row.params)
        h, a = build_hamiltonian(row.params, g), build_ladder(row.coeffs, g)
        for kappa in (0, 1, 2):
            rep = _chain(h, a, chain_seed(frame, kappa, g), 3, frame.energy(kappa))
            for e in rep.entries:
                if e.certified:
                    certified[row.label] += 1
                    assert abs(e.energy_chain - frame.energy(kappa, e.n)) < 1e-12, \
                        (row.label, kappa, e.n)
    assert len(certified) == len(appendix_catalogue()) == 46
