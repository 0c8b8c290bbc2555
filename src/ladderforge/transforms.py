"""Unitary toolkit: displacements, squeezes and the two-mode mixing rotation,
built as truncated matrices.  The reductions compute and certify in closed
form (reductions.Frame) and build none of them; here they serve
verify_disentangled_T and are the test suite's oracle for the closed forms.

Every generator here is block-diagonal on the truncated grid (shells n1 + n2,
sectors n1 - n2, one-mode columns or rows), and `expm` applies scipy's
Pade-13 scaling-and-squaring expm to each block found in its sparsity graph.
Truncation makes a built unitary exact only where the generator amplitude is
small against the cutoff; callers are expected to keep coherent amplitudes
below about a third of the cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .fock import (FockCutoff, GeneratorSet, Operator, interior_indices,
                   interior_residual)

__all__ = [
    "UnitarySpec",
    "expm",
    "build_unitary",
    "similarity",
    "mixing_angle",
    "rotation_safe_degree",
    "verify_disentangled_T",
    "unitary_spec_to_json",
    "unitary_spec_from_json",
]


def expm(a: Operator) -> Operator:
    """exp(a), one scipy Pade-13 expm per connected component of the
    sparsity graph of a; the components are the invariant blocks."""
    # Local imports: loading scipy at module level would add about 0.3 s to
    # every `import ladderforge.cli`, whichever scenario runs.
    import scipy.linalg
    import scipy.sparse as sp
    from scipy.sparse import csgraph

    n_blocks, labels = csgraph.connected_components(abs(a.mat), directed=False)
    order = np.argsort(labels, kind="stable")
    blocks = np.split(order, np.cumsum(np.bincount(labels, minlength=n_blocks))[:-1])
    u = sp.block_diag([scipy.linalg.expm(a.mat[i][:, i].toarray()) for i in blocks],
                      format="csr")
    back = np.argsort(order)  # block order back to the grid order
    return Operator(a.cutoff, u[back][:, back])


_KINDS = ("displace1", "displace2", "squeeze2", "squeeze_two_mode", "mix_t")


@dataclass(frozen=True)
class UnitarySpec:
    """Declarative description of one unitary; params are kind-specific.

    displace1 / displace2:  alpha (complex)
    squeeze2:               chi (complex)
    squeeze_two_mode:       theta_tilde (real), phi_tilde (real)
    mix_t:                  angle (real), theta (real); see mixing_angle
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown unitary kind {self.kind!r}")


def mixing_angle(r: float, beta3: float, eps: int) -> float:
    """Angle of the mixing rotation that takes beta_plus (of modulus r) to 0
    and beta3 to eps*b:  atan2(2r, beta3)/2 - (1 - eps) pi/4.

    The rotation exp(-angle (e^{-i theta} J+ - e^{i theta} J-)) maps
        a1 -> cos(angle) a1 - e^{-i theta} sin(angle) a2,
        a2 -> cos(angle) a2 + e^{i theta} sin(angle) a1;
    angle 0 is the identity, angle pi/2 a phase-decorated mode swap.  Read
    off r rather than b -/+ beta3, the angle has no cancellation near the
    endpoints beta3 = +/-b.
    """
    return 0.5 * math.atan2(2.0 * r, beta3) - (1 - eps) * math.pi / 4.0


def unitary_generator(spec: UnitarySpec, g: GeneratorSet) -> Operator:
    """Anti-Hermitian generator G of the spec's unitary exp(G)."""
    p = spec.params
    if spec.kind == "displace1":
        alpha = complex(p["alpha"])
        return alpha * g.a1_dag - np.conj(alpha) * g.a1
    elif spec.kind == "displace2":
        alpha = complex(p["alpha"])
        return alpha * g.a2_dag - np.conj(alpha) * g.a2
    elif spec.kind == "squeeze2":
        chi = complex(p["chi"])
        return -0.5 * (chi * (g.a2_dag @ g.a2_dag) - np.conj(chi) * (g.a2 @ g.a2))
    elif spec.kind == "squeeze_two_mode":
        th = float(p["theta_tilde"])
        ph = float(p["phi_tilde"])
        return -0.5 * th * (np.exp(-1j * ph) * (g.a1_dag @ g.a2_dag)
                             - np.exp(1j * ph) * (g.a1 @ g.a2))
    elif spec.kind == "mix_t":
        phi, theta = float(p["angle"]), float(p["theta"])
        return -phi * (np.exp(-1j * theta) * g.j_plus - np.exp(1j * theta) * g.j_minus)
    else:  # pragma: no cover - guarded in UnitarySpec
        raise ValueError(spec.kind)


def build_unitary(spec: UnitarySpec, g: GeneratorSet) -> Operator:
    return expm(unitary_generator(spec, g))


def build_chain(chain: list[UnitarySpec], g: GeneratorSet) -> Operator:
    """Compose a similarity chain into one unitary.

    Specs are successive similarity transformations (first spec first), so
    the returned U satisfies  reduced = U' O U  and maps reduced-frame kets
    to original-frame kets as  |orig> = U |reduced>.
    """
    u = g.identity
    for spec in chain:
        u = u @ build_unitary(spec, g)
    return u


def similarity(u: Operator, o: Operator) -> Operator:
    """U' O U; CutoffMismatch if the two were built over different cutoffs."""
    return u.dag() @ o @ u


def rotation_safe_degree(cutoff: FockCutoff) -> int:
    """Smallest interior degree whose box only contains complete
    total-occupation shells.

    A mixing rotation preserves n1 + n2, so it is exact on states whose whole
    shell fits inside the truncation; a box with n_i <= n_i_max - degree
    reaches shell n1 + n2 = (n1_max - degree) + (n2_max - degree), which must
    not exceed min(n1_max, n2_max).  Identities involving built unitaries are
    meaningless on shallower interiors, where truncation junk dominates.
    """
    need = cutoff.n1_max + cutoff.n2_max - min(cutoff.n1_max, cutoff.n2_max)
    return (need + 1) // 2


def verify_disentangled_T(eps: int, b: float, beta3: float, theta: float,
                          cutoff: FockCutoff, g: GeneratorSet | None = None,
                          degree: int | None = None) -> float:
    """Frobenius distance on the shell-safe interior between the
    single-exponential mixing rotation and its raising/diagonal/lowering
    product factorization."""
    from .fock import build_generators  # local to avoid cycle at import time

    if g is None:
        g = build_generators(cutoff)
    if degree is None:
        degree = rotation_safe_degree(cutoff)
    lo = b - eps * beta3
    hi = b + eps * beta3
    if abs(hi) < 1e-12:
        raise DomainError("disentangle-domain", "product form requires b + eps*beta3 > 0")
    tau = eps * math.sqrt(max(lo, 0.0) / hi)
    t_exp = build_unitary(UnitarySpec("mix_t", {"angle": math.atan(tau), "theta": theta}), g)
    t_prod = (expm(-tau * np.exp(-1j * theta) * g.j_plus)
              @ expm(math.log(2.0 * b / hi) * g.j3)
              @ expm(tau * np.exp(1j * theta) * g.j_minus))
    return interior_residual(t_exp - t_prod, interior_indices(cutoff, degree))


def unitary_spec_to_json(spec: UnitarySpec) -> dict:
    params = {}
    for key, value in spec.params.items():
        z = complex(value)
        params[key] = [z.real, z.imag] if z.imag != 0.0 else z.real
    return {"kind": spec.kind, "params": params}


def unitary_spec_from_json(payload: dict) -> UnitarySpec:
    params = {}
    for key, value in payload["params"].items():
        params[key] = complex(value[0], value[1]) if isinstance(value, list) else value
    return UnitarySpec(payload["kind"], params)
