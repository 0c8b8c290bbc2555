import json

import numpy as np
import pytest
import scipy.linalg

from ladderforge.errors import DomainError
from ladderforge.fock import FockCutoff, build_generators
from ladderforge.transforms import UnitarySpec, mixing_angle, unitary_spec_to_json
from oracles import (apply, build_chain, build_unitary, csr_generators, expm, interior_projector,
                     mix_spec,
                     rotation_safe_degree, similarity, unitary_generator,
                     unitary_spec_from_json, vacuum_state, verify_disentangled_T)


def safe_proj(g):
    return interior_projector(g.cutoff, rotation_safe_degree(g.cutoff))


_ORACLE_SPECS = [
    UnitarySpec("displace1", {"alpha": 0.4 - 0.2j}),
    UnitarySpec("displace2", {"alpha": -0.3j}),
    UnitarySpec("squeeze2", {"chi": 0.3 + 0.1j}),
    UnitarySpec("squeeze_two_mode", {"theta_tilde": 0.4, "phi_tilde": 1.2}),
    mix_spec(1, 1.0, 0.6, 0.7),
]
_SU2_FACTORS = {
    "j_plus": lambda g: -0.5 * np.exp(-0.7j) * csr_generators(g).j_plus,
    "j3": lambda g: 0.3 * csr_generators(g).j3,
    "j_minus": lambda g: 0.5 * np.exp(0.7j) * csr_generators(g).j_minus,
}


@pytest.mark.parametrize("cutoff", [(6, 9), (9, 6), (10, 10)], ids=["6x9", "9x6", "10x10"])
@pytest.mark.parametrize("name", [s.kind for s in _ORACLE_SPECS] + list(_SU2_FACTORS))
def test_block_expm_matches_dense_scipy(cutoff, name):
    # the per-block expm against scipy's expm of the whole dense generator
    g = build_generators(FockCutoff(*cutoff))
    specs = {s.kind: s for s in _ORACLE_SPECS}
    gen = unitary_generator(specs[name], g) if name in specs else _SU2_FACTORS[name](g)
    ref = scipy.linalg.expm(gen.to_dense())
    assert np.max(np.abs(expm(gen).to_dense() - ref)) <= 1e-13


def test_displace_zero_is_identity(gen8):
    d = build_unitary(UnitarySpec("displace1", {"alpha": 0.0}), gen8)
    assert (d - csr_generators(gen8).identity).norm() < 1e-13


def test_unitarity(gen10):
    specs = [
        UnitarySpec("displace1", {"alpha": 0.4 - 0.2j}),
        UnitarySpec("displace2", {"alpha": -0.3j}),
        UnitarySpec("squeeze2", {"chi": 0.3 + 0.1j}),
        UnitarySpec("squeeze_two_mode", {"theta_tilde": 0.4, "phi_tilde": 1.2}),
        mix_spec(1, 1.0, 0.6, 0.7),
        mix_spec(-1, 2.0, -0.8, 2.1),
    ]
    for spec in specs:
        u = build_unitary(spec, gen10)
        assert (u.dag() @ u - csr_generators(gen10).identity).norm() < 1e-9, spec.kind


def test_mix_angle_limits():
    # endpoints beta3 = +/-b (beta_plus = 0) and the quarter turn beta3 = 0
    assert mixing_angle(0.0, 1.0, 1) == 0.0
    assert mixing_angle(0.0, -1.0, 1) == pytest.approx(np.pi / 2)
    assert mixing_angle(0.0, 2.0, -1) == pytest.approx(-np.pi / 2)
    assert mixing_angle(0.0, -2.0, -1) == 0.0
    assert mixing_angle(0.5, 0.0, 1) == pytest.approx(np.pi / 4)
    # off the endpoints: arctan(eps sqrt((b - eps beta3)/(b + eps beta3)))
    for eps in (1, -1):
        want = np.arctan(eps * np.sqrt((1.0 - eps * 0.6) / (1.0 + eps * 0.6)))
        assert mixing_angle(0.4, 0.6, eps) == pytest.approx(want, abs=1e-15)
    # near an endpoint the angle follows beta_plus, which b - beta3 cannot
    assert mixing_angle(1e-9, 0.99999999999999, 1) == pytest.approx(1e-9, rel=1e-12)


def test_mix_fixes_vacuum(gen10):
    t = build_unitary(mix_spec(1, 1.7, 0.9, 0.3), gen10)
    v = apply(t, vacuum_state(gen10.cutoff))
    assert abs(v.amplitudes[gen10.cutoff.index(0, 0)] - 1.0) < 1e-12


def test_mix_action_simple(gen10):
    proj = safe_proj(gen10)
    ops = csr_generators(gen10)
    t = build_unitary(mix_spec(1, 1.0, 0.0, 0.0), gen10)
    lhs = similarity(t, ops.a1)
    rhs = (ops.a1 - ops.a2) / np.sqrt(2)
    assert (proj @ (lhs - rhs) @ proj).norm() < 1e-9


@pytest.mark.parametrize("eps,b,beta3,theta", [
    (1, 1.0, 0.6, 0.7), (-1, 1.0, 0.6, 0.7), (1, 2.0, -0.8, 2.0),
    (-1, 1.5, 0.0, 0.0), (1, 0.8, 0.5, 4.0),
])
def test_mix_action_grid(gen10, eps, b, beta3, theta):
    proj = safe_proj(gen10)
    ops = csr_generators(gen10)
    t = build_unitary(mix_spec(eps, b, beta3, theta), gen10)
    c = np.sqrt((b + eps * beta3) / (2 * b))
    s = np.sqrt((b - eps * beta3) / (2 * b))
    rhs1 = c * ops.a1 - eps * np.exp(-1j * theta) * s * ops.a2
    rhs2 = c * ops.a2 + eps * np.exp(1j * theta) * s * ops.a1
    assert (proj @ (similarity(t, ops.a1) - rhs1) @ proj).norm() < 1e-9
    assert (proj @ (similarity(t, ops.a2) - rhs2) @ proj).norm() < 1e-9


def test_disentangled_product(gen10):
    cut = gen10.cutoff
    assert verify_disentangled_T(1, 1.0, 0.0, 0.0, cut, gen10) < 1e-9
    assert verify_disentangled_T(-1, 2.0, 0.8, np.pi / 3, cut, gen10) < 1e-9
    # angle-zero endpoint: both sides are the identity
    assert verify_disentangled_T(1, 1.0, 1.0, 0.4, cut, gen10) < 1e-12


def test_disentangled_rejects_swap_endpoint(gen10):
    with pytest.raises(DomainError):
        verify_disentangled_T(1, 1.0, -1.0, 0.0, gen10.cutoff, gen10)


def test_mode_swap_endpoint_is_swap(gen10):
    # beta3 = -eps*b: angle pi/2, a phase-decorated exchange of the modes
    proj = safe_proj(gen10)
    ops = csr_generators(gen10)
    t = build_unitary(mix_spec(1, 1.0, -1.0, 0.5), gen10)
    lhs = similarity(t, ops.a1)
    rhs = -np.exp(-0.5j) * ops.a2
    assert (proj @ (lhs - rhs) @ proj).norm() < 1e-9


def test_squeeze2_on_vacuum_matches_tanh_series(gen20):
    # convention check: S(chi)|0> has pair coefficients (-e^{i arg chi}
    # tanh|chi| / 2)^n sqrt((2n)!)/n!.  Squeezed tails decay slowly, so the
    # comparison stays away from the cutoff and uses a modest tolerance.
    chi = 0.3 * np.exp(1j * 1.1)
    s = build_unitary(UnitarySpec("squeeze2", {"chi": chi}), gen20)
    v = apply(s, vacuum_state(gen20.cutoff))
    r, phase = abs(chi), chi / abs(chi)
    import math
    coeffs = np.array([(-phase * np.tanh(r) / 2) ** n
                       * math.sqrt(math.factorial(2 * n)) / math.factorial(n)
                       for n in range(6)])
    got = np.array([v.amplitudes[gen20.cutoff.index(0, 2 * n)] for n in range(6)])
    phase0 = got[0] / coeffs[0]
    assert np.linalg.norm(got - phase0 * coeffs) < 1e-7


def test_two_mode_squeeze_pair_series(gen14):
    th, ph = 0.6, 0.9
    s = build_unitary(UnitarySpec("squeeze_two_mode",
                                  {"theta_tilde": th, "phi_tilde": ph}), gen14)
    v = apply(s, vacuum_state(gen14.cutoff))
    lam = -np.exp(-1j * ph) * np.tanh(th / 2)
    n_terms = 10
    coeffs = np.array([lam ** n for n in range(n_terms)])
    coeffs = coeffs / np.linalg.norm(np.array([lam ** n for n in range(21)]))
    got = np.array([v.amplitudes[gen14.cutoff.index(n, n)] for n in range(n_terms)])
    phase0 = got[0] / coeffs[0]
    assert np.linalg.norm(got - phase0 * coeffs) < 1e-9


def test_spec_validation():
    with pytest.raises(ValueError):
        UnitarySpec("warp", {})


def test_chain_composition_order(gen10):
    # U = U1 U2 so that successive similarities compose left to right
    s1 = UnitarySpec("displace1", {"alpha": 0.3})
    s2 = UnitarySpec("displace2", {"alpha": -0.2j})
    u = build_chain([s1, s2], gen10)
    u1 = build_unitary(s1, gen10)
    u2 = build_unitary(s2, gen10)
    assert (u - u1 @ u2).norm() < 1e-12


def test_spec_json_roundtrip():
    spec = mix_spec(1, 1.0, 0.25, 0.4)
    back = unitary_spec_from_json(json.loads(json.dumps(unitary_spec_to_json(spec))))
    assert back.kind == spec.kind
    for key, val in spec.params.items():
        assert abs(complex(back.params[key]) - complex(val)) < 1e-15
    spec = UnitarySpec("displace1", {"alpha": 0.3 - 0.7j})
    back = unitary_spec_from_json(unitary_spec_to_json(spec))
    assert complex(back.params["alpha"]) == 0.3 - 0.7j
