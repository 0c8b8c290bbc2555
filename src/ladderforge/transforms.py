"""Declarative unitary steps: the displacements, squeezes and the two-mode
mixing rotation a reduction chain is written in (UnitarySpec), the angle of
the rotation (mixing_angle) and their JSON form.  No unitary is built here:
the reductions compute and certify in closed form (reductions.Frame), and
the truncated matrix exponentials of these steps are the test suite's
oracle for those closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "UnitarySpec",
    "mixing_angle",
    "unitary_spec_to_json",
]


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


def unitary_spec_to_json(spec: UnitarySpec) -> dict:
    params = {}
    for key, value in spec.params.items():
        z = complex(value)
        params[key] = [z.real, z.imag] if z.imag != 0.0 else z.real
    return {"kind": spec.kind, "params": params}
