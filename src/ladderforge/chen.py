"""The p:q commensurate oscillator and its special ladder operators.

For coprime positive integers p and q the Hamiltonian (p n1 + q n2)/(p q)
admits the lowering operator (conj(alpha+) q a2^p - conj(alpha-) p a1^q)/(pq)
stepping the spectrum by exactly one, together with a generalized mixed
operator that commutes with the special raising operator and annihilates
the vacuum.  Powers of the raising operator on the vacuum generate binomial
superpositions over |q k, p (kappa - k)> with sharp energy kappa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LadderForgeError
from .fock import (GeneratorSet, Operator, TwoModeState, apply, basis_state,
                   normalize, vacuum_state)

__all__ = [
    "PQParams",
    "build_H_pq",
    "build_calA_pq",
    "build_A_pq_generalized",
    "chen_ground",
    "degenerate_zero_states",
    "louck_spectrum",
    "tilde0_state",
    "alt_hamiltonian",
]


@dataclass(frozen=True)
class PQParams:
    p: int
    q: int
    alpha_plus: complex = 1.0 + 0j
    alpha_minus: complex = 1.0 + 0j

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValueError("p and q must be positive integers")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"p = {self.p} and q = {self.q} must be coprime")
        if self.alpha_plus == 0 or self.alpha_minus == 0:
            raise ValueError("alpha_plus and alpha_minus must be nonzero")
        object.__setattr__(self, "alpha_plus", complex(self.alpha_plus))
        object.__setattr__(self, "alpha_minus", complex(self.alpha_minus))


def _op_power(op: Operator, n: int, ident: Operator) -> Operator:
    # repeated sparse multiplication, keeping the brute-force character
    out = ident
    for _ in range(n):
        out = out @ op
    return out


def build_H_pq(pq: PQParams, g: GeneratorSet) -> Operator:
    """Diagonal (p n1 + q n2)/(p q), i.e. n1/q + n2/p."""
    num1 = g.a1_dag @ g.a1
    num2 = g.a2_dag @ g.a2
    return (pq.p * num1 + pq.q * num2) / (pq.p * pq.q)


def build_calA_pq(pq: PQParams, g: GeneratorSet) -> Operator:
    """Special lowering operator stepping the p:q spectrum down by one."""
    a2p = _op_power(g.a2, pq.p, g.identity)
    a1q = _op_power(g.a1, pq.q, g.identity)
    return (np.conj(pq.alpha_plus) * pq.q * a2p
            - np.conj(pq.alpha_minus) * pq.p * a1q) / (pq.p * pq.q)


def build_A_pq_generalized(pq: PQParams, g: GeneratorSet) -> Operator:
    """Mixed lowering operator alpha- a1'^(q-1) a2 + alpha+ a1 a2'^(p-1);
    annihilates the vacuum and commutes with the special raising operator."""
    left = _op_power(g.a1_dag, pq.q - 1, g.identity) @ g.a2
    right = g.a1 @ _op_power(g.a2_dag, pq.p - 1, g.identity)
    return pq.alpha_minus * left + pq.alpha_plus * right


def _log_ratio_factorial(a: int, b: int) -> float:
    """log(a! / b!) in the log domain (safe for large arguments)."""
    return math.lgamma(a + 1) - math.lgamma(b + 1)


def _unit_amplitudes(pq: PQParams) -> tuple[complex, complex]:
    """(alpha_plus, alpha_minus) divided by the larger modulus: the states
    depend only on their ratio, and the scaled pair neither underflows nor
    overflows in the powers and products below."""
    scale = max(abs(pq.alpha_plus), abs(pq.alpha_minus))
    return pq.alpha_plus / scale, pq.alpha_minus / scale


def chen_ground(pq: PQParams, kappa: int, g: GeneratorSet) -> TwoModeState:
    """Normalized binomial superposition over |q k, p (kappa - k)>; equals
    the kappa-th raising power applied to the vacuum."""
    if kappa < 0:
        raise ValueError("kappa must be non-negative")
    if pq.q * kappa > g.cutoff.n1_max or pq.p * kappa > g.cutoff.n2_max:
        raise DomainError("kappa-overflow",
                          f"kappa = {kappa} needs cutoffs of at least "
                          f"({pq.q * kappa},{pq.p * kappa})")
    alpha_plus, alpha_minus = _unit_amplitudes(pq)
    amps = np.zeros(g.cutoff.dim, dtype=np.complex128)
    use_log = pq.p * kappa > 20 or pq.q * kappa > 20
    for k in range(kappa + 1):
        if use_log:
            log_mag = 0.5 * (math.log(math.comb(kappa, k))
                             + _log_ratio_factorial(pq.p * (kappa - k), kappa - k)
                             + _log_ratio_factorial(pq.q * k, k))
            mag = math.exp(log_mag)
        else:
            mag = math.sqrt(math.comb(kappa, k)
                            * math.factorial(pq.p * (kappa - k)) // math.factorial(kappa - k)
                            * math.factorial(pq.q * k) // math.factorial(k))
        coeff = (mag * (-1) ** k
                 * (alpha_minus / pq.q) ** k
                 * (alpha_plus / pq.p) ** (kappa - k))
        amps[g.cutoff.index(pq.q * k, pq.p * (kappa - k))] = coeff
    return normalize(TwoModeState(g.cutoff, amps))


def degenerate_zero_states(pq: PQParams, g: GeneratorSet) -> list[TwoModeState]:
    """All number states |k1, k2> with k1 < q, k2 < p: the zero-eigenvalue
    subspace of the special lowering operator below the first full step."""
    return [basis_state(g.cutoff, k1, k2)
            for k1 in range(pq.q) for k2 in range(pq.p)]


def louck_spectrum(pq: PQParams, n: int, k1: int, k2: int) -> float:
    """Degeneracy-resolved level n + k1/q + k2/p."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if not (0 <= k1 < pq.q and 0 <= k2 < pq.p):
        raise ValueError(f"need 0 <= k1 < {pq.q} and 0 <= k2 < {pq.p}")
    return n + k1 / pq.q + k2 / pq.p


def tilde0_state(pq: PQParams, g: GeneratorSet) -> TwoModeState:
    """Non-separable zero mode (p/(alpha+* sqrt(p!)))|0,p> +
    (q/(alpha-* sqrt(q!)))|q,0>, an energy-1 eigenstate.  Built from the
    same ray times alpha+* alpha-*, which divides by neither amplitude, so a
    subnormal alpha_plus or alpha_minus cannot overflow."""
    if pq.q > g.cutoff.n1_max or pq.p > g.cutoff.n2_max:
        raise DomainError("cutoff", "cutoff too small for the zero mode")
    alpha_plus, alpha_minus = _unit_amplitudes(pq)
    amps = np.zeros(g.cutoff.dim, dtype=np.complex128)
    amps[g.cutoff.index(0, pq.p)] = (pq.p * np.conj(alpha_minus)
                                     / math.sqrt(math.factorial(pq.p)))
    amps[g.cutoff.index(pq.q, 0)] = (pq.q * np.conj(alpha_plus)
                                     / math.sqrt(math.factorial(pq.q)))
    return normalize(TwoModeState(g.cutoff, amps))


def alt_hamiltonian(pq: PQParams, g: GeneratorSet) -> Operator:
    """(p n1 + q n2) / (1 - (p-1)(q-1)); the Chen grounds are its eigenstates
    with energy p q kappa / (1 - (p-1)(q-1))."""
    den = 1 - (pq.p - 1) * (pq.q - 1)
    if den == 0:
        raise DomainError("alt-denominator", "(p-1)(q-1) = 1 leaves the form undefined")
    num1 = g.a1_dag @ g.a1
    num2 = g.a2_dag @ g.a2
    return (pq.p * num1 + pq.q * num2) / den


def chen_ground_via_raising(pq: PQParams, kappa: int, g: GeneratorSet) -> TwoModeState:
    """Brute-force route: normalize((calA')^kappa |0,0>)."""
    raiser = build_calA_pq(pq, g).dag()
    v = vacuum_state(g.cutoff)
    for _ in range(kappa):
        v = apply(raiser, v)
    if np.linalg.norm(v.amplitudes) < 1e-12:
        raise LadderForgeError("raising chain collapsed below the requested kappa")
    return normalize(v)
