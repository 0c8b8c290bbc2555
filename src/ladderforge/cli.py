"""Batch scenario runner.

Subcommands: verify-algebra | solve-ladder | spectrum | eigenstate | chen |
catalogue-sweep | reduce.  Scenarios read a JSON config and/or flags (flags
win), write a deterministic JSON report (sorted keys, no timestamps) plus
optional CSV tables, and use the exit code as the machine-readable verdict:

    0   every residual below its tolerance
    1   hard error (bug, bad math, unexpected exception)
    2   domain-violation refusal (non-normalizable branch, squeeze domain,
        no ladder exists, resonance)
    64  malformed config
    65  cutoff too small for the scenario

LADDERFORGE_THREADS caps worker parallelism for sweeps.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .catalogue import Bindings, appendix_catalogue
from .chen import (PQParams, build_A_pq_generalized, build_calA_pq, build_H_pq,
                   chen_ground, degenerate_zero_states, louck_spectrum,
                   tilde0_state)
from .errors import DomainError, LadderForgeError
from .eigenstates import EigenstateRequest, linear_coupled_states, su2_ground, \
    fractional_lambda_state, isotropic_states, basic21_states, verify_eigenstate
from .fock import (FockCutoff, build_generators, commutator,
                   interior_indices, interior_residual, state_to_csv,
                   state_to_json, vacuum_state)
from .params import (FamilyKind, HamiltonianParams, LadderCoeffs,
                     build_hamiltonian, build_ladder, coeffs_to_json,
                     params_from_json, params_to_json, parse_complex,
                     solve_ladder, su2_invariant, verify_ladder)
from .reductions import reduce_by_similarity
from .spectra import SpectrumReport, diagonalize_oracle, raising_chain
from .transforms import unitary_spec_to_json

EXIT_OK = 0
EXIT_HARD = 1
EXIT_REFUSED = 2
EXIT_BAD_CONFIG = 64
EXIT_CUTOFF = 65

_SCENARIOS = ("verify-algebra", "solve-ladder", "spectrum", "eigenstate",
              "chen", "catalogue-sweep", "reduce")


class ConfigError(Exception):
    pass


def _parse_cutoff(text: str) -> tuple[int, int]:
    try:
        parts = [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad cutoff {text!r}") from exc
    if len(parts) == 1:
        parts = parts * 2
    if len(parts) != 2:
        raise ConfigError(f"bad cutoff {text!r}")
    return parts[0], parts[1]


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _resolve(args, cfg: dict) -> dict:
    merged = dict(cfg)
    if args.cutoff is not None:
        merged["cutoff"] = list(_parse_cutoff(args.cutoff))
    merged.setdefault("cutoff", [14, 14])
    if args.tol_algebra is not None:
        merged["tol_algebra"] = args.tol_algebra
    if args.tol_eigen is not None:
        merged["tol_eigen"] = args.tol_eigen
    merged.setdefault("tol_algebra", 1e-12)
    merged.setdefault("tol_eigen", 1e-8)
    merged.setdefault("format", args.format or "json")
    if args.out is not None:
        merged["out"] = args.out
    return merged


def _params_from_config(cfg: dict) -> HamiltonianParams:
    try:
        return params_from_json(cfg.get("params", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad Hamiltonian parameters: {exc}") from exc


def _require_cutoff(cutoff: FockCutoff, min_each: int) -> None:
    if min(cutoff.n1_max, cutoff.n2_max) < min_each:
        raise _CutoffTooSmall(f"scenario needs cutoffs of at least ({min_each},{min_each})")


class _CutoffTooSmall(Exception):
    pass


def _max_workers() -> int:
    raw = os.environ.get("LADDERFORGE_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


# ---------------------------------------------------------------------------
# scenarios: each returns (exit_code, report_dict, optional {name: csv_text})
# ---------------------------------------------------------------------------

def _run_verify_algebra(cfg: dict):
    cutoff = FockCutoff(*cfg["cutoff"])
    _require_cutoff(cutoff, 6)
    tol = float(cfg["tol_algebra"])
    g = build_generators(cutoff)
    k1 = interior_indices(cutoff, 1)
    k2 = interior_indices(cutoff, 2)
    ident = g.identity
    res = interior_residual
    checks = {
        "a1_a1dag": res(commutator(g.a1, g.a1_dag) - ident, k1),
        "a2_a2dag": res(commutator(g.a2, g.a2_dag) - ident, k1),
        "a1_a2dag": res(commutator(g.a1, g.a2_dag), k1),
        "a1_a2": res(commutator(g.a1, g.a2), k1),
        "jp_jm": res(commutator(g.j_plus, g.j_minus) - 2 * g.j3, k2),
        "j3_jp": res(commutator(g.j3, g.j_plus) - g.j_plus, k2),
        "j3_jm": res(commutator(g.j3, g.j_minus) + g.j_minus, k2),
        "n_j3": res(commutator(g.n_op, g.j3), k2),
        "n_jp": res(commutator(g.n_op, g.j_plus), k2),
        "n_a1": res(commutator(g.n_op, g.a1) + 0.5 * g.a1, k2),
        "n_a2": res(commutator(g.n_op, g.a2) + 0.5 * g.a2, k2),
        "n_a1dag": res(commutator(g.n_op, g.a1_dag) - 0.5 * g.a1_dag, k2),
        "j3_a1": res(commutator(g.j3, g.a1) + 0.5 * g.a1, k2),
        "j3_a2": res(commutator(g.j3, g.a2) - 0.5 * g.a2, k2),
        "jp_a1": res(commutator(g.j_plus, g.a1) + g.a2, k2),
        "jp_a2dag": res(commutator(g.j_plus, g.a2_dag) - g.a1_dag, k2),
        "jm_a2": res(commutator(g.j_minus, g.a2) + g.a1, k2),
        "jm_a1dag": res(commutator(g.j_minus, g.a1_dag) - g.a2_dag, k2),
        "jp_a1dag": res(commutator(g.j_plus, g.a1_dag), k2),
        "jp_a2": res(commutator(g.j_plus, g.a2), k2),
        "jm_a2dag": res(commutator(g.j_minus, g.a2_dag), k2),
        "jm_a1": res(commutator(g.j_minus, g.a1), k2),
    }
    worst = max(checks.values())
    report = {"checks": checks, "worst": worst, "tolerance": tol,
              "passed": bool(worst < tol)}
    return (EXIT_OK if worst < tol else EXIT_HARD), report, {}


def _run_solve_ladder(cfg: dict):
    cutoff = FockCutoff(*cfg["cutoff"])
    _require_cutoff(cutoff, 4)
    p = _params_from_config(cfg)
    tol = float(cfg.get("tol_ladder", 1e-10))
    rep = solve_ladder(p)
    g = build_generators(cutoff)
    h = build_hamiltonian(p, g)
    residuals = [float(verify_ladder(h, build_ladder(c, g), 3)) for c in rep.coeffs]
    report = {
        "params": params_to_json(p),
        "b_squared": su2_invariant(p),
        "tag": str(rep.tag),
        "margins": {k: float(v) for k, v in rep.margins.items()},
        "free_parameters": rep.free_parameters,
        "normalizable": rep.normalizable,
        "coeffs": [coeffs_to_json(c) for c in rep.coeffs],
        "residuals": residuals,
        "tolerance": tol,
    }
    if not rep.exists:
        return EXIT_REFUSED, report, {}
    ok = all(r < tol for r in residuals)
    return (EXIT_OK if ok else EXIT_HARD), report, {}


def _run_spectrum(cfg: dict):
    cutoff = FockCutoff(*cfg["cutoff"])
    _require_cutoff(cutoff, 8)
    p = _params_from_config(cfg)
    tol = float(cfg["tol_eigen"])
    n_max = int(cfg.get("n_max", 6))
    kappas = [int(k) for k in cfg.get("kappas", [0, 1, 2])]
    g = build_generators(cutoff)
    rep = solve_ladder(p)
    if not rep.exists:
        return EXIT_REFUSED, {"tag": str(rep.tag), "reason": "no ladder"}, {}
    tag = rep.tag
    h = build_hamiltonian(p, g)
    a = build_ladder(rep.combined(), g)

    entries = []
    csv_lines = [SpectrumReport.CSV_HEADER]
    oracle = diagonalize_oracle(h, 3)
    worst = 0.0
    for kappa in kappas:
        ground = _ground_for(tag, p, rep, kappa, g)
        if ground is None:
            continue
        chain = raising_chain(h, a, ground, n_max, degree=3, family=str(tag.kind.value))
        chain.oracle = oracle
        for e in chain.entries:
            nearest = chain.nearest_oracle(e.energy_chain)
            if e.certified:
                # only truncation-safe states count toward the verdict
                worst = max(worst, e.residual, abs(e.energy_chain - nearest))
            entries.append({"kappa": kappa, "n": e.n,
                            "energy_formula": e.energy_formula,
                            "energy_chain": e.energy_chain,
                            "energy_oracle": nearest,
                            "residual": e.residual,
                            "certified": e.certified})
        csv_lines += chain.csv_rows(kappa)
    if not entries:
        return EXIT_REFUSED, {"tag": str(tag), "reason": "no chain entries"}, {}
    report = {"params": params_to_json(p), "tag": str(tag), "entries": entries,
              "worst_residual": worst, "tolerance": tol, "passed": bool(worst < tol)}
    return (EXIT_OK if worst < tol else EXIT_HARD), report, {"spectrum.csv": "\n".join(csv_lines) + "\n"}


def _ground_for(tag, p, rep, kappa, g):
    """lambda = 0 member of the family used to seed a chain."""
    kind = tag.kind
    if kind in (FamilyKind.FRACTIONAL, FamilyKind.LINEAR_FRACTIONAL):
        req = EigenstateRequest(tag=tag, lam=0, kappa=kappa)
        return fractional_lambda_state(p, req, g)
    if kind == FamilyKind.ISOTROPIC:
        return isotropic_states(1.0, 1.0, 0.0, kappa, 2 if kappa else 1, g)
    if kind == FamilyKind.SU2:
        if kappa == 0:
            return vacuum_state(g.cutoff)
        return su2_ground(p.beta3, p.theta, kappa, g)
    if kind in (FamilyKind.BASIC21, FamilyKind.EXTENDED21, FamilyKind.GENERALIZED21):
        if kappa == 0:
            return vacuum_state(g.cutoff)
        return basic21_states(1.0, 1.0, 0.0, 3, g, kappa=kappa)
    if kind in (FamilyKind.LINEAR_ISO, FamilyKind.APPENDIX_A, FamilyKind.LINEAR_B2):
        req = EigenstateRequest(tag=tag, lam=0, kappa=kappa,
                                branch=2 if kappa else 1)
        try:
            return linear_coupled_states(p, req, g, nu1=0.3 + 0j)
        except DomainError:
            return None
    return None


def _run_eigenstate(cfg: dict):
    cutoff = FockCutoff(*cfg["cutoff"])
    _require_cutoff(cutoff, 8)
    p = _params_from_config(cfg)
    tol = float(cfg["tol_eigen"])
    g = build_generators(cutoff)
    rep = solve_ladder(p)
    if not rep.exists:
        return EXIT_REFUSED, {"tag": str(rep.tag), "reason": "no ladder"}, {}
    tag = rep.tag
    raw = cfg.get("request", {})
    req = EigenstateRequest(
        tag=tag,
        lam=parse_complex(raw.get("lambda", 0)),
        kappa=int(raw.get("kappa", 0)),
        branch=int(raw.get("branch", 1)),
        c1=parse_complex(raw["c1"]) if "c1" in raw else None,
        c2=parse_complex(raw["c2"]) if "c2" in raw else None,
        lambda2=parse_complex(raw["lambda2"]) if "lambda2" in raw else None,
    )
    kind = tag.kind
    if kind in (FamilyKind.FRACTIONAL, FamilyKind.LINEAR_FRACTIONAL):
        idx = rep.free_parameters.index("mu1") if "mu1" in rep.free_parameters else 0
        coeff = rep.coeffs[idx]
        if not rep.normalizable[idx]:
            return EXIT_REFUSED, {"tag": str(tag),
                                  "reason": "non-normalizable branch refused"}, {}
        coeff = coeff.scaled(1.0 / coeff.mu1)
        state = fractional_lambda_state(p, req, g)
        a_op = build_ladder(coeff, g)
    elif kind == FamilyKind.ISOTROPIC:
        state = isotropic_states(1.0, 1.0, req.lam, req.kappa, req.branch, g, c2=req.c2)
        a_op = build_ladder(LadderCoeffs(mu1=1.0, mu2=1.0), g)
    elif kind in (FamilyKind.BASIC21, FamilyKind.EXTENDED21, FamilyKind.GENERALIZED21):
        if tag.detail in ("mode1", "mode2", "b0=1"):
            return EXIT_REFUSED, {"tag": str(tag),
                                  "reason": "non-normalizable family refused"}, {}
        # for the extended/generalized variants the state lives in the
        # reduced frame, which is where the residual is meaningful
        state = basic21_states(1.0, 1.0, req.lam, req.branch, g, c1=req.c1,
                               kappa=req.kappa)
        a_op = build_ladder(LadderCoeffs(mu2=1.0, alpha_plus=1.0), g)
    elif kind == FamilyKind.SU2:
        state = su2_ground(p.beta3, p.theta, req.kappa, g)
        a_op = build_ladder(rep.coeffs[0], g)
        req.lam = 0j
    elif kind in (FamilyKind.LINEAR_ISO, FamilyKind.APPENDIX_A):
        state = linear_coupled_states(p, req, g, nu1=parse_complex(raw.get("nu1", 0.3)))
        a_op = build_ladder(rep.combined(), g)
    elif kind == FamilyKind.LINEAR_B2:
        # the b = 2 states carry a different amplitude normalization than
        # the solver's ladder, so there is no residual to check them against
        return EXIT_REFUSED, {"tag": str(tag),
                              "reason": "no eigenstate residual for the b = 2 family"}, {}
    else:
        return EXIT_REFUSED, {"tag": str(tag), "reason": "no constructor"}, {}

    resid = float(verify_eigenstate(a_op, state, req.lam, 4))
    report = {"params": params_to_json(p), "tag": str(tag),
              "state": state_to_json(state), "tolerance": tol,
              "residual": resid, "passed": bool(resid < tol)}
    return (EXIT_OK if resid < tol else EXIT_HARD), report, {"state.csv": state_to_csv(state)}


def _run_chen(cfg: dict):
    p_int = int(cfg.get("p", 2))
    q_int = int(cfg.get("q", 1))
    kappa = int(cfg.get("kappa", 1))
    cutoff = FockCutoff(*cfg["cutoff"])
    if (cutoff.n1_max < max(q_int * kappa, 2 * max(p_int, q_int))
            or cutoff.n2_max < max(p_int * kappa, 2 * max(p_int, q_int))):
        raise _CutoffTooSmall(
            f"chen kappa={kappa} needs cutoffs >= ({q_int * kappa},{p_int * kappa}) "
            f"and twice the ladder degree {max(p_int, q_int)}")
    tol = float(cfg.get("tol_chen", 1e-10))
    pq = PQParams(p_int, q_int,
                  parse_complex(cfg.get("alpha_plus", 1)),
                  parse_complex(cfg.get("alpha_minus", 1)))
    g = build_generators(cutoff)
    h = build_H_pq(pq, g)
    cal_a = build_calA_pq(pq, g)
    a_gen = build_A_pq_generalized(pq, g)
    degree = max(p_int, q_int)
    ladder_resid = float(verify_ladder(h, cal_a, degree))
    commute_resid = interior_residual(commutator(a_gen, cal_a.dag()),
                                      interior_indices(cutoff, degree))

    ground = chen_ground(pq, kappa, g)
    h_resid = float(np.linalg.norm(h.mat @ ground.amplitudes - kappa * ground.amplitudes))
    annih_resid = float(np.linalg.norm((a_gen.mat @ ground.amplitudes)))

    zeros = degenerate_zero_states(pq, g)
    zero_energies = [float(louck_spectrum(pq, 0, k1, k2))
                     for k1 in range(pq.q) for k2 in range(pq.p)]
    zero_resid = max(float(np.linalg.norm(cal_a.mat @ z.amplitudes)) for z in zeros)

    t0 = tilde0_state(pq, g)
    t0_resid = max(float(np.linalg.norm(cal_a.mat @ t0.amplitudes)),
                   float(np.linalg.norm(h.mat @ t0.amplitudes - t0.amplitudes)))

    worst = max(ladder_resid, commute_resid, h_resid, annih_resid, zero_resid, t0_resid)
    report = {
        "p": p_int, "q": q_int, "kappa": kappa,
        "ladder_residual": ladder_resid,
        "generalized_commutes_residual": commute_resid,
        "ground_energy_residual": h_resid,
        "ground_annihilation_residual": annih_resid,
        "zero_subspace_energies": zero_energies,
        "zero_subspace_residual": zero_resid,
        "tilde0_residual": t0_resid,
        "ground_state": state_to_json(ground),
        "worst": worst, "tolerance": tol, "passed": bool(worst < tol),
    }
    return (EXIT_OK if worst < tol else EXIT_HARD), report, {"chen_state.csv": state_to_csv(ground)}


def _run_catalogue_sweep(cfg: dict):
    cutoff = FockCutoff(*cfg["cutoff"])
    _require_cutoff(cutoff, 8)
    tol = float(cfg.get("tol_ladder", 1e-10))
    bind = Bindings()
    g = build_generators(cutoff)
    rows = appendix_catalogue(bind)

    def check(row):
        h = build_hamiltonian(row.params, g)
        a = build_ladder(row.coeffs, g)
        return row.label, float(verify_ladder(h, a, 3)), row.normalizable

    with ThreadPoolExecutor(max_workers=_max_workers()) as pool:
        results = list(pool.map(check, rows))

    table = [{"label": lbl, "residual": res, "normalizable": nrm,
              "passed": bool(res < tol)} for lbl, res, nrm in results]
    worst = max(r["residual"] for r in table)
    report = {"rows": table, "count": len(table), "worst": worst,
              "tolerance": tol, "passed": bool(worst < tol)}
    csv_lines = ["label,residual,normalizable,passed"]
    for r in table:
        csv_lines.append(f"{r['label']},{r['residual']!r},{r['normalizable']},{r['passed']}")
    return (EXIT_OK if worst < tol else EXIT_HARD), report, {"catalogue.csv": "\n".join(csv_lines) + "\n"}


def _run_reduce(cfg: dict):
    cutoff = FockCutoff(*cfg["cutoff"])
    _require_cutoff(cutoff, 8)
    p = _params_from_config(cfg)
    eps = int(cfg.get("eps", 1))
    tol = float(cfg.get("tol_reduce", 1e-8))
    g = build_generators(cutoff)
    rep = solve_ladder(p)
    if not rep.exists:
        return EXIT_REFUSED, {"tag": str(rep.tag), "reason": "no ladder"}, {}
    red = reduce_by_similarity(p, rep.combined(), g, eps=eps)
    worst = max(red.h_residual, red.a_residual)
    report = {
        "params": params_to_json(p),
        "tag": str(rep.tag),
        "chain": [unitary_spec_to_json(s) for s in red.chain],
        "reduced_params": params_to_json(red.params),
        "reduced_coeffs": coeffs_to_json(red.coeffs),
        "h_residual": red.h_residual,
        "a_residual": red.a_residual,
        "shell_max": red.shell_max,
        "tolerance": tol, "passed": bool(worst < tol),
    }
    return (EXIT_OK if worst < tol else EXIT_HARD), report, {}


_RUNNERS = {
    "verify-algebra": _run_verify_algebra,
    "solve-ladder": _run_solve_ladder,
    "spectrum": _run_spectrum,
    "eigenstate": _run_eigenstate,
    "chen": _run_chen,
    "catalogue-sweep": _run_catalogue_sweep,
    "reduce": _run_reduce,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ladderforge",
                                     description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version",
                        version=f"ladderforge {__version__}")
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in _SCENARIOS:
        s = sub.add_parser(name)
        s.add_argument("--cutoff", help="N1,N2 occupation cutoffs")
        s.add_argument("--tol-algebra", type=float, dest="tol_algebra")
        s.add_argument("--tol-eigen", type=float, dest="tol_eigen")
        s.add_argument("--config", help="JSON config file; flags override")
        s.add_argument("--out", help="directory for report files")
        s.add_argument("--format", choices=("json", "csv"))
        if name == "chen":
            s.add_argument("--p", type=int)
            s.add_argument("--q", type=int)
            s.add_argument("--kappa", type=int)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        cfg = _resolve(args, cfg)
        if args.scenario == "chen":
            for key in ("p", "q", "kappa"):
                value = getattr(args, key, None)
                if value is not None:
                    cfg[key] = value
        FockCutoff(*cfg["cutoff"])
    except (ConfigError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    try:
        code, report, extras = _RUNNERS[args.scenario](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except _CutoffTooSmall as exc:
        print(f"cutoff too small: {exc}", file=sys.stderr)
        return EXIT_CUTOFF
    except DomainError as exc:
        print(f"refused [{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except LadderForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HARD

    payload = {
        "version": f"ladderforge {__version__}",
        "scenario": args.scenario,
        "config": cfg,
        "report": report,
    }
    text = json.dumps(payload, sort_keys=True, indent=2, default=float)
    out_dir = cfg.get("out")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"{args.scenario}.json"), "w",
                  encoding="utf-8") as fh:
            fh.write(text + "\n")
        if cfg.get("format") == "csv":
            for name, body in extras.items():
                with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
                    fh.write(body)
    else:
        print(text)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
