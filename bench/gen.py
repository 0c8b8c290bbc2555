"""Seeded request generator for the three benchmark workloads.

Every workload is a fixed *cycle*: a list of (scenario, family, cutoff,
variant) slots that never depends on the seed.  The variant pins what decides
a request's cost or verdict (displacement amplitude, eigenstate branch and
kappa, p:q).  The seed draws the remaining numbers (Hamiltonian coefficients,
phases, eigenvalues) and the order of the slots.  Keeping the slot list fixed
keeps the cost mix, and so the latency distribution and the set of known
failures, the same from seed to seed.

Each sampler lands exactly on its gate surface (b^2 = 1, (2 -/+ beta0)^2 = b^2,
b = 0, b = 2) by construction.  The expected verdict of each request is
worked out here from the gate formulas and the refusal rules the README
documents, never by calling the package:

  * no ladder (off every gate)                       -> exit 2
  * creation-dominated / non-normalizable eigenstate  -> exit 2
  * everything else                                  -> exit 0, "passed": true
"""

from __future__ import annotations

import cmath
import math
import random

WORKLOADS = ("reduce-mid", "spectrum-large", "gate-sweep")

GATE_TOL = 1e-10          # relative gate tolerance, as in ToleranceConfig.gate
OFF_GATE_MARGIN = 1e-4    # off-gate points keep at least this relative margin


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def _c(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _z(v) -> complex:
    return complex(v[0], v[1]) if isinstance(v, (list, tuple)) else complex(v)


def _phase(rng: random.Random) -> complex:
    return cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def _gamma(rng: random.Random) -> complex:
    """A linear coupling up to the catalogue's own scale, |gamma| <= 0.5."""
    return rng.uniform(0.15, 0.5) * _phase(rng)


def _sign(rng: random.Random) -> float:
    return 1.0 if rng.random() < 0.5 else -1.0


def _params(beta0=0.0, beta_plus=0j, beta3=0.0, gamma1=0j, gamma2=0j, h0=0.0) -> dict:
    return {"beta0": float(beta0), "beta_plus": _c(beta_plus), "beta3": float(beta3),
            "gamma1": _c(gamma1), "gamma2": _c(gamma2), "h0": float(h0)}


def b_squared(p: dict) -> float:
    return 4.0 * abs(_z(p["beta_plus"])) ** 2 + p["beta3"] ** 2


def gate_margins(p: dict) -> tuple[float, float, float]:
    """Relative distances to the three gates b^2 = 1, (2 - beta0)^2 = b^2
    and (2 + beta0)^2 = b^2."""
    b2 = b_squared(p)
    b0 = p["beta0"]

    def rel(x, y):
        return abs(x - y) / max(1.0, abs(x), abs(y))
    return rel(b2, 1.0), rel((2.0 - b0) ** 2, b2), rel((2.0 + b0) ** 2, b2)


def ladder_exists(p: dict) -> bool:
    """A lowering operator exists exactly on one of the three gates."""
    return min(gate_margins(p)) <= GATE_TOL


# ---------------------------------------------------------------------------
# family samplers: each returns Hamiltonian params exactly on its gate
# ---------------------------------------------------------------------------

def _unit_gate_bp(rng, beta3: float) -> complex:
    """beta_plus with 4|beta_plus|^2 + beta3^2 = 1."""
    return (math.sqrt(1.0 - beta3 ** 2) / 2.0) * _phase(rng)


def _b_split(rng, b: float) -> tuple[complex, float]:
    """(beta_plus, beta3) with 4|beta_plus|^2 + beta3^2 = b^2, both nonzero."""
    phi = rng.uniform(0.35, 1.2) * _sign(rng)
    return (b * abs(math.sin(phi)) / 2.0) * _phase(rng), b * math.cos(phi)


def _off_unit_b(rng) -> float:
    """b with b^2 well away from 1 and from 0."""
    return rng.uniform(0.3, 0.7) if rng.random() < 0.5 else rng.uniform(1.3, 1.7)


def _h0(rng) -> float:
    return rng.uniform(-0.5, 0.5)


def s_isotropic(rng):
    return _params(beta0=2.0, h0=_h0(rng))


def s_basic21(rng):
    return _params(beta0=3.0, beta3=1.0, h0=_h0(rng))


def s_basic12(rng):
    return _params(beta0=3.0, beta3=-1.0, h0=_h0(rng))


def s_generalized21(rng):
    b3 = rng.uniform(0.25, 0.8) * _sign(rng)
    return _params(beta0=3.0, beta_plus=_unit_gate_bp(rng, b3), beta3=b3, h0=_h0(rng))


def s_su2(rng):
    b3 = rng.uniform(-0.8, 0.8)
    return _params(beta0=rng.uniform(1.4, 2.6), beta_plus=_unit_gate_bp(rng, b3),
                   beta3=b3, h0=_h0(rng))


def s_fractional_mu(rng):
    b = _off_unit_b(rng)
    bp, b3 = _b_split(rng, b)
    return _params(beta0=2.0 + _sign(rng) * b, beta_plus=bp, beta3=b3, h0=_h0(rng))


def s_fractional_nu(rng):
    b = _off_unit_b(rng)
    bp, b3 = _b_split(rng, b)
    return _params(beta0=-2.0 + _sign(rng) * b, beta_plus=bp, beta3=b3, h0=_h0(rng))


def s_linear_iso(rng):
    return _params(beta0=2.0, gamma1=_gamma(rng), gamma2=_gamma(rng), h0=_h0(rng))


def s_linear_fractional(rng):
    b = _off_unit_b(rng)
    bp, b3 = _b_split(rng, b)
    return _params(beta0=2.0 + _sign(rng) * b, beta_plus=bp, beta3=b3,
                   gamma1=_gamma(rng), gamma2=_gamma(rng), h0=_h0(rng))


def s_appendix_a(rng):
    return _params(beta0=3.0, beta3=_sign(rng), gamma1=_gamma(rng), gamma2=_gamma(rng),
                   h0=_h0(rng))


def s_b2(rng):
    b3 = rng.uniform(-0.6, 0.6)
    bp = (math.sqrt(4.0 - b3 ** 2) / 2.0) * _phase(rng)
    return _params(beta0=0.0, beta_plus=bp, beta3=b3, h0=_h0(rng))


def s_appendix_b(rng):
    b3 = rng.uniform(0.25, 0.8) * _sign(rng)
    bp = _unit_gate_bp(rng, b3)
    if rng.random() < 0.5:      # B3 rows: negative commensurate beta0, no coupling
        return _params(beta0=rng.choice((-1.0, -3.0)), beta_plus=bp, beta3=b3, h0=_h0(rng))
    return _params(beta0=rng.uniform(2.1, 2.9), beta_plus=bp, beta3=b3,
                   gamma1=_gamma(rng), gamma2=_gamma(rng), h0=_h0(rng))


# reduce kinds -------------------------------------------------------------
#
# The reduction displaces mode i by alpha_i = -gamma'_i / omega_i (gamma' the
# couplings after the mixing rotation).  Whether a truncated reduction
# certifies depends on |alpha_i| against the cutoff, so the reduce samplers
# take |alpha| from the cycle slot and the seed draws everything else.

def _couplings(rng, amp: float, w1: float, w2: float) -> tuple[complex, complex]:
    """Rotated-frame couplings whose displacements have modulus ``amp``."""
    return amp * w1 * _phase(rng), amp * w2 * _phase(rng)


def s_reduce_rot(rng, amp):
    """b^2 = 1, beta_plus != 0, no coupling: one mixing rotation."""
    b3 = rng.uniform(-0.8, 0.8)
    return _params(beta0=rng.uniform(2.5, 3.5), beta_plus=_unit_gate_bp(rng, b3),
                   beta3=b3, h0=_h0(rng))


def s_reduce_disp(rng, amp):
    """Decoupled (beta_plus = 0) point on a gate with both linear couplings:
    displacements only.  Half on b^2 = 1 (beta3 = +/-1), half on the mu gate
    (beta0 = 2 + beta3)."""
    if rng.random() < 0.5:
        b0, b3 = rng.uniform(2.5, 3.5), _sign(rng)
    else:
        b3 = rng.uniform(0.3, 0.7)
        b0 = 2.0 + b3
    g1, g2 = _couplings(rng, amp, (b0 + b3) / 2.0, (b0 - b3) / 2.0)
    return _params(beta0=b0, beta3=b3, gamma1=g1, gamma2=g2, h0=_h0(rng))


def s_reduce_both(rng, amp):
    """b^2 = 1, beta_plus != 0 and both couplings: rotation + displacements.
    The couplings are drawn in the rotated frame and rotated back."""
    b3 = rng.uniform(-0.8, 0.8)
    b0 = rng.uniform(2.5, 3.5)
    bp = _unit_gate_bp(rng, b3)
    r1, r2 = _couplings(rng, amp, (b0 + 1.0) / 2.0, (b0 - 1.0) / 2.0)
    c, s = math.sqrt((1.0 + b3) / 2.0), math.sqrt((1.0 - b3) / 2.0)
    ph = bp / abs(bp)
    g1 = c * r1 - ph.conjugate() * s * r2
    g2 = ph * s * r1 + c * r2
    return _params(beta0=b0, beta_plus=bp, beta3=b3, gamma1=g1, gamma2=g2, h0=_h0(rng))


def s_off_gate(rng):
    """A point near a gate surface but off all three gates: no ladder."""
    base = rng.choice((s_su2, s_fractional_mu, s_isotropic, s_appendix_a,
                       s_linear_fractional))(rng)
    while True:
        p = dict(base)
        p["beta0"] = base["beta0"] + _sign(rng) * 10 ** rng.uniform(-3, -1)
        p["beta3"] = base["beta3"] + _sign(rng) * 10 ** rng.uniform(-3, -1)
        if min(gate_margins(p)) > OFF_GATE_MARGIN:
            return p


SAMPLERS = {
    "isotropic": s_isotropic,
    "basic21": s_basic21,
    "basic12": s_basic12,
    "generalized21": s_generalized21,
    "su2": s_su2,
    "fractional_mu": s_fractional_mu,
    "fractional_nu": s_fractional_nu,
    "linear_iso": s_linear_iso,
    "linear_fractional": s_linear_fractional,
    "appendix_a": s_appendix_a,
    "b2": s_b2,
    "appendix_b": s_appendix_b,
    "reduce_rot": s_reduce_rot,
    "reduce_disp": s_reduce_disp,
    "reduce_both": s_reduce_both,
    "off_gate": s_off_gate,
}

# eigenstate requests on these families are refused by the documented rules:
# the fractional nu branch is creation dominated, and the b^2 = 1 interacting
# rows with beta0 != 3 (Appendix B here) are not normalizable
EIGEN_REFUSED = {"fractional_nu", "appendix_b"}


# ---------------------------------------------------------------------------
# expected results
# ---------------------------------------------------------------------------

def reduced_params(p: dict) -> dict:
    """Closed form of the basic-form parameters for the CLI's eps = +1:
    beta0 kept, beta3 -> b (unchanged when beta_plus = 0, where no rotation
    runs), beta_plus and the couplings -> 0, and
    h0 -> h0 - sum_i |gamma'_i|^2 / omega_i with gamma' the couplings after
    the mixing rotation."""
    b0, b3 = p["beta0"], p["beta3"]
    bp, g1, g2 = _z(p["beta_plus"]), _z(p["gamma1"]), _z(p["gamma2"])
    if abs(bp) > 1e-12:
        b = math.sqrt(b_squared(p))
        c = math.sqrt((b + b3) / (2.0 * b))
        s = math.sqrt((b - b3) / (2.0 * b))
        ph = bp / abs(bp)
        g1, g2 = c * g1 + ph.conjugate() * s * g2, c * g2 - ph * s * g1
        b3 = b
    w1, w2 = (b0 + b3) / 2.0, (b0 - b3) / 2.0
    h0 = p["h0"] - abs(g1) ** 2 / w1 - abs(g2) ** 2 / w2
    return _params(beta0=b0, beta3=b3, h0=h0)


def expected(scenario: str, family: str, config: dict) -> dict:
    """Expected verdict (and closed-form values) for one request."""
    if scenario in ("verify-algebra", "catalogue-sweep", "chen"):
        return {"exit": 0}
    p = config["params"]
    if not ladder_exists(p):
        return {"exit": 2}
    if scenario == "eigenstate" and family in EIGEN_REFUSED:
        return {"exit": 2}
    out = {"exit": 0, "b_squared": b_squared(p)}
    if scenario == "reduce":
        out["reduced_params"] = reduced_params(p)
    return out


# ---------------------------------------------------------------------------
# request payloads per scenario
# ---------------------------------------------------------------------------

def _eigen_request(rng, family: str, variant: tuple[int, int]) -> dict:
    """Eigenstate request with the slot's (branch, kappa); families without
    branches ignore the branch, Appendix A keeps kappa = 1."""
    branch, kappa = variant
    req = {"lambda": _c(rng.uniform(0.1, 0.6) * _phase(rng)), "kappa": kappa}
    if family in ("basic21", "basic12", "generalized21"):
        req["branch"] = branch
    elif family in ("isotropic", "linear_iso", "b2"):
        req["branch"] = min(branch, 2)
    elif family == "appendix_a":
        req.update(branch=min(branch, 2), kappa=1)
    return req


def _config(rng, slot: tuple) -> dict:
    scenario, family, cutoff, variant = slot
    cfg = {"cutoff": list(cutoff)}
    if scenario in ("verify-algebra", "catalogue-sweep"):
        return cfg
    if scenario == "chen":
        # unit-modulus amplitudes, as in the package default
        cfg.update(p=variant[0], q=variant[1], kappa=variant[2],
                   alpha_plus=_c(_phase(rng)), alpha_minus=_c(_phase(rng)))
        return cfg
    sampler = SAMPLERS[family]
    cfg["params"] = sampler(rng, variant) if scenario == "reduce" else sampler(rng)
    if scenario == "spectrum":
        cfg["n_max"] = 6
    if scenario == "eigenstate":
        cfg["request"] = _eigen_request(rng, family, variant)
    return cfg


# ---------------------------------------------------------------------------
# cycles: the fixed slot list (scenario, family, cutoff, variant) of each
# workload.  Cutoffs are weighted so that one cycle of the two heavy
# workloads takes about 70% of a 40 s run on 2 CPUs, and so that the tail
# percentile falls inside a block of like requests.
# ---------------------------------------------------------------------------

def _sq(*ns):
    return [(n, n) for n in ns]


def _cycle_reduce_mid():
    # ten rotations at cutoff 28 sit under the six costliest requests, so the
    # tail percentile (eleventh from the top) falls in the middle of them
    rot_cut = _sq(16, 18, 20, 22, 24, 26) * 4 + _sq(28) * 10
    slots = [("reduce", "reduce_rot", c, 0.0) for c in rot_cut]
    # |alpha| = 0.15 certifies at every cutoff here; |alpha| = 0.5 is the
    # catalogue's B6 scale, which the default shell_max cannot certify at
    # cutoffs 16 and 20
    for kind, big in (("reduce_disp", (24,)), ("reduce_both", (22, 24, 26))):
        slots += [("reduce", kind, c, 0.15) for c in _sq(16, 16, 16, 18, 18, 18, *big)]
        slots += [("reduce", kind, c, 0.5) for c in _sq(16, 20)]
    return slots


_SPECTRUM_FAMILIES = ("isotropic", "basic21", "basic12", "generalized21", "su2",
                      "fractional_mu", "fractional_nu", "linear_iso", "linear_fractional",
                      "appendix_a", "b2", "appendix_b")


def _cycle_spectrum_large():
    fams = _SPECTRUM_FAMILIES
    spec_cut = _sq(52, 48, 44, 44, 42, 42) + _sq(40) * 17
    slots = [("spectrum", f, c, None) for f, c in zip(fams * 2, spec_cut)]
    eig_cut = _sq(40, 42, 44, 46, 48, 50, 52, 40, 44, 48, 52, 46) * 3
    eig_var = [(1, 1)] * len(fams) + [(2, 2)] * len(fams) + [(3, 3)] * len(fams)
    slots += [("eigenstate", f, c, v) for f, c, v in zip(fams * 3, eig_cut, eig_var)]
    pqs = ((2, 1, 2), (3, 2, 3), (3, 1, 4))
    slots += [("chen", "chen", c, pq) for c in _sq(40, 48, 56, 60) for pq in pqs]
    return slots


_GATE_CUTOFFS = ((12, 12), (12, 16), (16, 12), (16, 16), (20, 20), (24, 24))
_GATE_FAMILIES = ("su2", "generalized21", "basic21", "basic12", "appendix_a", "appendix_b",
                  "fractional_mu", "fractional_nu", "linear_fractional", "isotropic",
                  "linear_iso", "b2")


def _cycle_gate_sweep():
    fams = list(_GATE_FAMILIES) + ["off_gate"] * 4
    slots = [("solve-ladder", f, _GATE_CUTOFFS[i % len(_GATE_CUTOFFS)], None)
             for i, f in enumerate(fams)]
    slots += [("verify-algebra", "algebra", c, None) for c in ((16, 16), (24, 24))]
    slots += [("catalogue-sweep", "catalogue", c, None) for c in ((12, 16), (20, 20))]
    return slots


CYCLES = {
    "reduce-mid": _cycle_reduce_mid,
    "spectrum-large": _cycle_spectrum_large,
    "gate-sweep": _cycle_gate_sweep,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The seeded request list of one cycle of ``workload``."""
    if workload not in CYCLES:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    slots = CYCLES[workload]()
    rng.shuffle(slots)
    requests = []
    for i, slot in enumerate(slots):
        scenario, family, _, variant = slot
        cfg = _config(rng, slot)
        requests.append({"id": f"r{i:03d}", "scenario": scenario, "family": family,
                         "variant": variant, "config": cfg,
                         "expect": expected(scenario, family, cfg)})
    return requests
