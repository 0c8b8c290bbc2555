from dataclasses import replace

import numpy as np
import pytest

from ladderforge.catalogue import (Bindings, appendix_a_rows, appendix_b_rows,
                                   appendix_catalogue)
from ladderforge.params import LadderCoeffs, classify, solve_ladder, verify_ladder
from ladderforge.params import HamiltonianParams


@pytest.fixture(scope="module")
def rows():
    return appendix_catalogue()


def test_row_counts(rows):
    a_rows = [r for r in rows if r.label.startswith("A")]
    b_rows = [r for r in rows if r.label.startswith("B")]
    assert len(a_rows) == 30
    assert len([r for r in a_rows if r.label.startswith("A1")]) == 15
    assert len([r for r in a_rows if r.label.startswith("A2")]) == 15
    assert len(b_rows) == 16
    assert len(rows) == len({r.label for r in rows})


def test_every_row_satisfies_commutator(rows, gen14):
    for row in rows:
        assert verify_ladder(row.params, row.coeffs, gen14, 3) < 1e-10, row.label


def test_random_bindings_satisfy_commutator(gen10, rng):
    for _ in range(5):
        bind = Bindings(
            free_mu=rng.normal() + 1j * rng.normal(),
            free_nu=rng.normal() + 1j * rng.normal(),
            free_alpha=rng.normal() + 1j * rng.normal(),
            gamma1=0.5 * (rng.normal() + 1j * rng.normal()),
            gamma2=0.5 * (rng.normal() + 1j * rng.normal()),
            beta0_generic=rng.uniform(1.2, 2.8),
            beta3=rng.uniform(0.2, 0.9),
            theta=rng.uniform(0, 2 * np.pi),
        )
        for row in appendix_catalogue(bind):
            assert verify_ladder(row.params, row.coeffs, gen10, 3) < 1e-10, row.label


def test_displaced_21_row_matches_display(gen10):
    # the fully coupled 2:1 row: compare against its printed operator
    bind = Bindings()
    g1, g2, alpha, mu2 = bind.gamma1, bind.gamma2, bind.free_alpha, bind.free_mu
    (row,) = [r for r in appendix_a_rows(bind) if r.label == "A1.4-b0=3"]
    expected = LadderCoeffs(
        mu1=np.conj(g2) * alpha, mu2=mu2, nu2=g1 * alpha / 2.0,
        alpha_plus=alpha, a0=g2 * mu2 + g1 * np.conj(g2) * alpha / 2.0)
    np.testing.assert_allclose(row.coeffs.as_array(), expected.as_array(), atol=1e-14)


def test_creation_dominated_row_matches_display():
    bind = Bindings()
    (row,) = [r for r in appendix_a_rows(bind) if r.label == "A1.2-b0=-3"]
    g1, alpha, nu = bind.gamma1, bind.free_alpha, bind.free_nu
    expected = LadderCoeffs(nu1=nu, nu2=-g1 * alpha, alpha_plus=alpha,
                            a0=-np.conj(g1) * nu)
    np.testing.assert_allclose(row.coeffs.as_array(), expected.as_array(), atol=1e-14)
    assert not row.normalizable


def test_basic_rows_match_display():
    (row,) = [r for r in appendix_a_rows() if r.label == "A1.1-b0=1"]
    assert abs(row.coeffs.mu1 - 1.0) < 1e-14
    assert abs(row.coeffs.alpha_plus - 1.0) < 1e-14
    assert abs(row.coeffs.a0) < 1e-14
    (row,) = [r for r in appendix_a_rows() if r.label == "A2.5-b0=3"]
    assert abs(row.coeffs.mu1 - 1.0) < 1e-14
    assert abs(row.coeffs.alpha_minus - 1.0) < 1e-14


def test_normalizable_exactly_the_21_reducible_rows(rows):
    for row in rows:
        assert row.normalizable == (abs(row.params.beta0 - 3.0) < 1e-12), row.label


def test_rows_agree_with_solver(rows, gen10):
    # every bound row must lie inside the solver's solution space: the
    # commutator holds, and re-solving its parameter set finds the same tag
    for row in rows:
        report = solve_ladder(row.params)
        assert report.exists, row.label
        tag = classify(row.params)
        assert tag.kind.value in str(report.tag), row.label


def test_b_rows_reject_bad_beta3():
    with pytest.raises(Exception):
        appendix_b_rows(Bindings(beta3=0.0))
    with pytest.raises(Exception):
        appendix_b_rows(Bindings(beta3=1.0))


def test_b6_verbatim_mu2_relation():
    # printed generic-coupling relation: mu2 = (alpha3/beta+) (gamma1*/2 -
    # gamma2* beta+/(1-beta3)) - 2 mu1 beta-/(1-beta3) at beta0 = 3
    bind = Bindings()
    (row,) = [r for r in appendix_b_rows(bind) if r.label == "B6-b0=3"]
    p = row.params
    c = row.coeffs
    alpha3 = c.alpha3
    expected_mu2 = (alpha3 / p.beta_plus
                    * (np.conj(p.gamma1) / 2 - np.conj(p.gamma2) * p.beta_plus / (1 - p.beta3))
                    - 2 * c.mu1 * p.beta_minus / (1 - p.beta3))
    assert abs(c.mu2 - expected_mu2) < 1e-10


def test_b4_verbatim_beta0_1_row():
    # degenerate-coupling row at beta0 = 1: printed coefficients are
    # mu2/mu1 = 2 beta-/(1+beta3), nu = alpha3 gamma2 (2 beta-/(1-beta3^2),
    # -1/(1-beta3)), a0|mu-part = gamma2 mu1 / beta+
    bind = Bindings(free_nu=0.0)
    (row,) = [r for r in appendix_b_rows(bind) if r.label == "B4-b0=1"]
    p = row.params
    c = row.coeffs
    mu1 = c.mu1
    assert abs(c.mu2 - 2 * p.beta_minus / (1 + p.beta3) * mu1) < 1e-10
    a3 = c.alpha3
    assert abs(c.nu1 - 2 * a3 * p.gamma2 * p.beta_minus / (1 - p.beta3 ** 2)) < 1e-10
    assert abs(c.nu2 - (-a3 * p.gamma2 / (1 - p.beta3))) < 1e-10
    # identity coefficient decomposes into the printed mu-part plus the
    # nu-part of the a0 formula
    from ladderforge.params import compute_a0, LadderCoeffs as LC
    mu_only = LC(mu1=c.mu1, mu2=c.mu2)
    assert abs(compute_a0(p, mu_only) - p.gamma2 * mu1 / p.beta_plus) < 1e-10


def test_b6_verbatim_nu_relation():
    bind = Bindings()
    (row,) = [r for r in appendix_b_rows(bind) if r.label == "B6-b0=3"]
    p = row.params
    c = row.coeffs
    h2 = p.gamma2 / 2 + p.gamma1 * p.beta_plus / (1 - p.beta3)
    assert abs(c.nu1 - c.alpha3 / 2 * h2 * 2 * p.beta_minus / (1 + p.beta3)) < 1e-10
    assert abs(c.nu2 - (-c.alpha3 / 2 * h2)) < 1e-10


def _mode_swap(params, coeffs):
    """Relabel mode 1 <-> mode 2: J+ <-> J-, J3 -> -J3, gamma1 <-> gamma2."""
    return (HamiltonianParams(beta0=params.beta0, beta_plus=np.conj(params.beta_plus),
                              beta3=-params.beta3, gamma1=params.gamma2,
                              gamma2=params.gamma1, h0=params.h0),
            LadderCoeffs(mu1=coeffs.mu2, mu2=coeffs.mu1, nu1=coeffs.nu2, nu2=coeffs.nu1,
                         alpha_plus=coeffs.alpha_minus, alpha_minus=coeffs.alpha_plus,
                         alpha3=-coeffs.alpha3, a0=coeffs.a0))


def test_minus_rows_are_mode_swapped_plus_rows():
    # each beta3 = -1 row is the beta3 = +1 row, bound with gamma1 <-> gamma2,
    # read with the two modes exchanged
    bind = Bindings()
    swapped = replace(bind, gamma1=bind.gamma2, gamma2=bind.gamma1)
    plus = {row.params: row for row in appendix_a_rows(swapped) if row.params.beta3 > 0}
    minus = [row for row in appendix_a_rows(bind) if row.params.beta3 < 0]
    assert len(plus) == len(minus) == 15
    for row in minus:
        params, coeffs = _mode_swap(row.params, row.coeffs)
        twin = plus[params]
        assert twin.normalizable == row.normalizable, row.label
        # a0 sums the same four products in the other order: equal to roundoff
        assert np.allclose(twin.coeffs.as_array(), coeffs.as_array(), rtol=0, atol=1e-15), \
            row.label
