"""Batch scenario runner.

Subcommands: verify-algebra | solve-ladder | spectrum | eigenstate | chen |
catalogue-sweep | reduce.  Scenarios read a JSON config and/or flags (flags
win), write a deterministic JSON report (sorted keys, no timestamps) plus
optional CSV tables, and use the exit code as the machine-readable verdict:

    0   every residual below its tolerance
    1   hard error (bug, bad math, unexpected exception)
    2   domain-violation refusal (non-normalizable branch, squeeze domain,
        no ladder exists, resonance)
    64  malformed config: a value of the wrong type or out of range
    65  cutoff too small for the scenario

Every config value is converted and checked once, whichever scenario reads
it, before anything is computed; the runners only see checked values.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import sys
from types import SimpleNamespace

import numpy as np

from . import __version__
from .catalogue import Bindings, appendix_catalogue
from .chen import (PQParams, _unit_amplitudes, build_A_pq_generalized, build_calA_pq,
                   build_H_pq, chen_ground, degenerate_zero_states, louck_spectrum,
                   tilde0_state)
from .errors import CutoffTooSmall, DomainError, LadderForgeError
from .eigenstates import (EigenstateRequest, chain_seed, reduced_eigenstate,
                          verify_eigenstate)
from .fock import (DEFAULT_TOL, FockCutoff, build_generators, commutator_residual,
                   join_chars, repr_chars, state_to_csv, state_to_json)
from .params import (HamiltonianParams, build_hamiltonian, build_ladder, coeffs_to_json,
                     params_from_json, params_to_json, parse_complex, solve_ladder,
                     su2_invariant, verify_ladder)
from .reductions import cutoff_advice, reduce_by_similarity, reduction_frame
from .spectra import SpectrumReport, nearest_eigenvalues, raising_chain
from .transforms import unitary_spec_to_json

EXIT_OK = 0
EXIT_HARD = 1
EXIT_REFUSED = 2
EXIT_BAD_CONFIG = 64
EXIT_CUTOFF = 65


class ConfigError(Exception):
    pass


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
    """The config with the flags laid over it and the echoed defaults."""
    merged = dict(cfg)
    if args.cutoff is not None:
        parts = _get(vars(args), "cutoff", lambda t: [int(x) for x in t.split(",")])
        merged["cutoff"] = parts * 2 if len(parts) == 1 else parts
    for key in ("tol_algebra", "tol_eigen", "format", "out", "p", "q", "kappa"):
        if getattr(args, key, None) is not None:
            merged[key] = getattr(args, key)
    merged.setdefault("cutoff", [14, 14])
    merged.setdefault("tol_algebra", DEFAULT_TOL.algebra)
    merged.setdefault("tol_eigen", DEFAULT_TOL.eigen)
    merged.setdefault("format", "json")
    return merged


# ---------------------------------------------------------------------------
# the input boundary: each config value passes through _get exactly once
# ---------------------------------------------------------------------------

def _get(raw: dict, key: str, convert, default=None, *args, where: str = ""):
    """convert(raw[key], *args); a value that convert rejects is a ConfigError."""
    value = raw.get(key, default)
    try:
        return convert(value, *args)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {where}{key} {value!r}: {exc}") from exc


def _integer(value, least: int = 0) -> int:
    """A number with an integral value >= least: 3.0 counts, 2.7, true and
    "3" do not."""
    if isinstance(value, (bool, str)) or value != int(value) or value < least:
        raise ValueError(f"expected an integer >= {least}")
    return int(value)


def _choice(value, allowed: tuple):
    if value not in allowed:
        raise ValueError(f"expected one of {allowed}")
    return value


def _tolerance(value) -> float:
    tol = float(value)   # a numeric string is read, as params_from_json does
    if isinstance(value, bool) or not 0 < tol < math.inf:
        raise ValueError("expected a positive finite number")
    return tol


def _complex(value) -> complex:
    z = parse_complex(value)
    if isinstance(value, bool) or not cmath.isfinite(z):
        raise ValueError("expected a finite complex number")
    return z


def _optional_complex(value) -> complex | None:
    return None if value is None else _complex(value)


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError("expected a JSON object")
    return value


def _path(value) -> str | None:
    if value is not None and not isinstance(value, str):
        raise TypeError("expected a directory name")
    return value


def _cutoff(value) -> FockCutoff:
    n1, n2 = value
    return FockCutoff(_integer(n1), _integer(n2))


def _kappas(value) -> list[int]:
    if not isinstance(value, list):
        raise TypeError("expected a list of integers")
    return [_integer(k) for k in value]


def _params(value) -> HamiltonianParams:
    p = params_from_json(_object(value))
    with np.errstate(over="ignore"):   # the gates and the reduction sum their squares
        squares = np.abs([p.beta0, p.beta_plus, p.beta3, p.gamma1, p.gamma2, p.h0]) ** 2
        finite = (np.all(np.isfinite(squares))
                  and np.all(np.isfinite([su2_invariant(p), squares[3] + squares[4]])))
    if not finite:
        raise ValueError("Hamiltonian parameters and their sums of squares must be finite")
    return p


def _inputs(cfg: dict) -> SimpleNamespace:
    """Every value any scenario reads, converted and range-checked."""
    req = _get(cfg, "request", _object, {})

    def request(key, convert, default=None, *args):
        return _get(req, key, convert, default, *args, where="request.")

    p = _get(cfg, "p", _integer, 2, 1)
    alphas = [_get(cfg, key, _complex, 1) for key in ("alpha_plus", "alpha_minus")]
    return SimpleNamespace(
        cutoff=_get(cfg, "cutoff", _cutoff),
        out=_get(cfg, "out", _path),
        format=_get(cfg, "format", _choice, None, ("json", "csv")),
        params=_get(cfg, "params", _params, {}),
        tol_algebra=_get(cfg, "tol_algebra", _tolerance),
        tol_ladder=_get(cfg, "tol_ladder", _tolerance, DEFAULT_TOL.ladder),
        tol_eigen=_get(cfg, "tol_eigen", _tolerance),
        tol_chen=_get(cfg, "tol_chen", _tolerance, DEFAULT_TOL.ladder),
        tol_reduce=_get(cfg, "tol_reduce", _tolerance, 1e-8),
        n_max=_get(cfg, "n_max", _integer, 6),
        kappas=_get(cfg, "kappas", _kappas, [0, 1, 2]),
        eps=_get(cfg, "eps", lambda e: _choice(_integer(e, -1), (1, -1)), 1),
        pq=_get(cfg, "q", lambda q: PQParams(p, _integer(q, 1), *alphas), 1),
        kappa=_get(cfg, "kappa", _integer, 1),
        request=dict(lam=request("lambda", _complex, 0),
                     kappa=request("kappa", _integer, 0),
                     branch=request("branch", lambda b: _choice(_integer(b), (1, 2, 3)), 1),
                     c1=request("c1", _optional_complex),
                     c2=request("c2", _optional_complex)),
    )


# ---------------------------------------------------------------------------
# the report writer: json.dumps(o, indent=2) takes json's pure-Python
# encoder, a few microseconds per number; the same text is written here,
# float arrays whole by fock.repr_chars
# ---------------------------------------------------------------------------

_ascii = json.encoder.encode_basestring_ascii


def _key_text(k) -> str:
    """k as json writes a dict key: a str as it is, a number, bool or None
    as its JSON text in quotes; any other type raises as in json."""
    return _ascii(k) if isinstance(k, str) else json.dumps({k: 0})[1:-4]


def _array_text(a: np.ndarray, nl: str) -> str:
    """The text of a.tolist() as _json_text writes it, for a float array
    with at least one entry: every entry's text from repr_chars (json's
    NaN and Infinity where not finite), each after the brackets, commas and
    line breaks that lead up to it."""
    chars = repr_chars(a)
    bad = ~np.isfinite(a)
    chars[bad] = np.array([json.dumps(x) for x in a[bad].tolist()], dtype=f"S{chars.shape[-1]}")[
        :, None].view(np.uint8)
    depth = range(a.ndim)
    inner = [nl + "  " * (d + 1) for d in depth]   # the break before an item at depth d
    opens = ["[" + i for i in inner]
    closes = [i[:-2] + "]" for i in inner]
    # the entries after which the last z indexes restart at 0 close and
    # reopen z lists; the first entry opens them all
    leads = [((slice(None),) * (a.ndim - 1 - z) + (slice(1, None),) + (0,) * z,
              "".join(reversed(closes[a.ndim - z:])) + "," + inner[a.ndim - 1 - z]
              + "".join(opens[a.ndim - z:])) for z in depth]
    leads.append(((0,) * a.ndim, "".join(opens)))
    width = max(len(text) for _, text in leads)
    lead = np.zeros(a.shape + (width,), np.uint8)
    for place, text in leads:
        lead[place] = np.frombuffer(text.encode().ljust(width, b"\0"), np.uint8)
    return (join_chars([lead.reshape(a.size, width), chars.reshape(a.size, -1)])
            + "".join(closes[::-1]))


def _json_text(o, nl: str = "\n") -> str:
    """The text of json.dumps(o, sort_keys=True, indent=2, default=float),
    numpy arrays written as their tolist(); `nl` is the line break and
    indentation of o's own level.  A float array with entries is written
    whole (_array_text); lists and dicts item by item, and scalars one by
    one as json writes them: NaN and infinities by json itself, and a value
    json has no type for (numpy integers and bools) after float()."""
    if isinstance(o, float):
        return float.__repr__(o) if math.isfinite(o) else json.dumps(o)
    if isinstance(o, str):
        return _ascii(o)
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, np.ndarray):
        return (_array_text(o, nl) if o.dtype.kind == "f" and o.ndim and o.size
                else _json_text(o.tolist(), nl))
    inner = nl + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        return "[" + inner + ("," + inner).join([_json_text(x, inner) for x in o]) + nl + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        return "{" + inner + ("," + inner).join([
            _key_text(k) + ": " + _json_text(v, inner) for k, v in sorted(o.items())]) + nl + "}"
    return _json_text(float(o), nl)


def _require_cutoff(cutoff: FockCutoff, min_each: int) -> None:
    if min(cutoff.n1_max, cutoff.n2_max) < min_each:
        raise CutoffTooSmall(f"scenario needs cutoffs of at least ({min_each},{min_each})")


# ---------------------------------------------------------------------------
# scenarios: each takes the checked inputs, builds the generator set it
# uses, and returns (exit_code, report_dict, {csv_name: function returning
# the csv text}); the tables are only built when --format csv writes them
# ---------------------------------------------------------------------------

def _verdict(report: dict, worst: float, tol: float, extras: dict | None = None):
    """Exit 0 when the worst residual is under tol, else 1; the report
    records the tolerance and whether it passed."""
    report.update(tolerance=tol, passed=bool(worst < tol))
    return (EXIT_OK if report["passed"] else EXIT_HARD), report, extras or {}


def _refuse(tag, reason: str):
    return EXIT_REFUSED, {"tag": str(tag), "reason": reason}, {}


# the identities [X, Y] + Z = 0 of the algebra that verify-algebra checks:
# (name, X, Y, interior degree, Z as (generator name, coefficient) terms)
_ALGEBRA_IDENTITIES = (
    ("a1_a1dag", "a1", "a1_dag", 1, [("identity", -1)]),
    ("a2_a2dag", "a2", "a2_dag", 1, [("identity", -1)]),
    ("a1_a2dag", "a1", "a2_dag", 1, []),
    ("a1_a2", "a1", "a2", 1, []),
    ("jp_jm", "j_plus", "j_minus", 2, [("j3", -2)]),
    ("j3_jp", "j3", "j_plus", 2, [("j_plus", -1)]),
    ("j3_jm", "j3", "j_minus", 2, [("j_minus", 1)]),
    ("n_j3", "n_op", "j3", 2, []),
    ("n_jp", "n_op", "j_plus", 2, []),
    ("n_a1", "n_op", "a1", 2, [("a1", 0.5)]),
    ("n_a2", "n_op", "a2", 2, [("a2", 0.5)]),
    ("n_a1dag", "n_op", "a1_dag", 2, [("a1_dag", -0.5)]),
    ("j3_a1", "j3", "a1", 2, [("a1", 0.5)]),
    ("j3_a2", "j3", "a2", 2, [("a2", -0.5)]),
    ("jp_a1", "j_plus", "a1", 2, [("a2", 1)]),
    ("jp_a2dag", "j_plus", "a2_dag", 2, [("a1_dag", -1)]),
    ("jm_a2", "j_minus", "a2", 2, [("a1", 1)]),
    ("jm_a1dag", "j_minus", "a1_dag", 2, [("a2_dag", -1)]),
    ("jp_a1dag", "j_plus", "a1_dag", 2, []),
    ("jp_a2", "j_plus", "a2", 2, []),
    ("jm_a2dag", "j_minus", "a2_dag", 2, []),
    ("jm_a1", "j_minus", "a1", 2, []),
)


def _run_verify_algebra(inp):
    g = build_generators(inp.cutoff)
    checks = {name: commutator_residual(g, g.shifts([(x, 1)]), g.shifts([(y, 1)]),
                                        g.shifts(z), degree)
              for name, x, y, degree, z in _ALGEBRA_IDENTITIES}
    worst = max(checks.values())
    return _verdict({"checks": checks, "worst": worst}, worst, inp.tol_algebra)


def _run_solve_ladder(inp):
    p, tol = inp.params, inp.tol_ladder
    rep = solve_ladder(p)
    g = build_generators(inp.cutoff)
    residuals = [verify_ladder(p, c, g, 3) for c in rep.coeffs]
    report = {
        "params": params_to_json(p),
        "b_squared": su2_invariant(p),
        "tag": str(rep.tag),
        "margins": {k: float(x) for k, x in rep.margins.items()},
        "free_parameters": rep.free_parameters,
        "normalizable": rep.normalizable,
        "coeffs": [coeffs_to_json(c) for c in rep.coeffs],
        "residuals": residuals,
        "scales": [c.scale for c in rep.coeffs],
        "tolerance": tol,
    }
    if not rep.exists:
        return EXIT_REFUSED, report, {}
    ok = all(r < tol for r in residuals)
    return (EXIT_OK if ok else EXIT_HARD), report, {}


def _run_spectrum(inp):
    p = inp.params
    rep = solve_ladder(p)
    if not rep.exists:
        return _refuse(rep.tag, "no ladder")
    tag, g = rep.tag, build_generators(inp.cutoff)
    # H and A' as CSR matrices, formed once for every chain and the oracle:
    # scipy's mat-vec is faster here than the shift mat-vec
    h = build_hamiltonian(p, g).csr()
    raiser = build_ladder(rep.combined(), g).dag().csr()
    frame = reduction_frame(p)
    chains = [(kappa, raising_chain(h, raiser, chain_seed(frame, kappa, g), inp.n_max,
                                    frame.energy(kappa), degree=3, family=str(tag.kind.value)))
              for kappa in inp.kappas]
    # only truncation-safe states count toward the verdict, so only their
    # energies are looked up; the others keep energy_oracle None
    certified = [(e, s) for _, chain in chains for e, s in zip(chain.entries, chain.states)
                 if e.certified]
    if not certified:
        # the chains live on the degree-3 interior; a frame whose vacuum U|0>
        # already lies past it leaves none certified: a truncation limit
        def lost(n1: int, n2: int) -> float:
            return frame.vacuum_lost(n1 - 3, n2 - 3)

        cut, bound = inp.cutoff, DEFAULT_TOL.chain_mass
        if lost(cut.n1_max, cut.n2_max) > bound:
            raise CutoffTooSmall(
                f"spectrum cannot certify at cutoff {cut.n1_max},{cut.n2_max}: the frame's "
                f"vacuum loses {lost(cut.n1_max, cut.n2_max):.1e} of its norm past the degree-3 "
                "interior; " + cutoff_advice(lambda n: lost(n, n) <= bound,
                                             min(cut.n1_max, cut.n2_max), "it"))
        return _refuse(tag, "no certified chain entries")
    nearest, fell_back = nearest_eigenvalues(h, g.cutoff, [e.energy_chain for e, _ in certified],
                                             3, [s for _, s in certified])
    for (e, _), x in zip(certified, nearest):
        e.energy_oracle = float(x)
    # the paper's spectrum: each certified energy against the closed form and the oracle
    worst = max(max(e.residual, abs(e.energy_chain - e.energy_formula),
                    abs(e.energy_chain - e.energy_oracle)) for e, _ in certified)
    entries = [{"kappa": kappa, **vars(e)} for kappa, chain in chains for e in chain.entries]
    csv_lines = [SpectrumReport.CSV_HEADER, *(row for kappa, chain in chains
                                              for row in chain.csv_rows(kappa))]
    report = {"params": params_to_json(p), "tag": str(tag), "entries": entries,
              "worst_residual": worst, "oracle_fallbacks": int(fell_back.sum())}
    return _verdict(report, worst, inp.tol_eigen,
                    {"spectrum.csv": lambda: "\n".join(csv_lines) + "\n"})


def _run_eigenstate(inp):
    p = inp.params
    rep = solve_ladder(p)
    tag = rep.tag
    if not rep.exists:
        return _refuse(tag, "no ladder")
    g = build_generators(inp.cutoff)
    try:
        state, ladder, lam = reduced_eigenstate(p, rep, EigenstateRequest(tag, **inp.request), g)
    except DomainError as exc:
        return _refuse(tag, f"{exc} [{exc.code}]")
    resid = float(verify_eigenstate(build_ladder(ladder, g), state, lam, 4))
    report = {"params": params_to_json(p), "tag": str(tag),
              "state": state_to_json(state), "residual": resid}
    return _verdict(report, resid, inp.tol_eigen, {"state.csv": lambda: state_to_csv(state)})


def _run_chen(inp):
    pq, kappa, cutoff = inp.pq, inp.kappa, inp.cutoff
    degree = max(pq.p, pq.q)
    if (cutoff.n1_max < max(pq.q * kappa, 2 * degree)
            or cutoff.n2_max < max(pq.p * kappa, 2 * degree)):
        raise CutoffTooSmall(
            f"chen kappa={kappa} needs cutoffs >= ({pq.q * kappa},{pq.p * kappa}) "
            f"and twice the ladder degree {degree}")
    # the residuals are absolute: build every operator from the same ray
    # scaled to unit modulus, so that they neither overflow nor vanish with |alpha|
    alphas = _unit_amplitudes(pq)
    if not all(alphas):
        return _refuse(f"{pq.p}:{pq.q}", "alpha_plus / alpha_minus is outside "
                                         "the double-precision range")
    pq, g = PQParams(pq.p, pq.q, *alphas), build_generators(cutoff)
    h = build_H_pq(pq, g)
    cal_a = build_calA_pq(pq, g)
    a_gen = build_A_pq_generalized(pq, g)
    # the p:q ladder lies outside the algebra's span: its identities are
    # checked on the weighted shifts of its operators
    ladder_resid = commutator_residual(g, h, cal_a, cal_a, degree)
    commute_resid = commutator_residual(g, a_gen, cal_a.dag(), g.shifts([]), degree)

    ground = chen_ground(pq, kappa, g)
    h_resid = float(np.linalg.norm(h.matvec(ground.amplitudes) - kappa * ground.amplitudes))
    annih_resid = float(np.linalg.norm(a_gen.matvec(ground.amplitudes)))

    zero_energies = [float(louck_spectrum(pq, 0, k1, k2))
                     for k1 in range(pq.q) for k2 in range(pq.p)]
    zero_resid = max(float(np.linalg.norm(cal_a.matvec(z.amplitudes)))
                     for z in degenerate_zero_states(pq, g))

    t0 = tilde0_state(pq, g)
    t0_resid = max(float(np.linalg.norm(cal_a.matvec(t0.amplitudes))),
                   float(np.linalg.norm(h.matvec(t0.amplitudes) - t0.amplitudes)))

    worst = max(ladder_resid, commute_resid, h_resid, annih_resid, zero_resid, t0_resid)
    report = {
        "p": pq.p, "q": pq.q, "kappa": kappa,
        "ladder_residual": ladder_resid,
        "generalized_commutes_residual": commute_resid,
        "ground_energy_residual": h_resid,
        "ground_annihilation_residual": annih_resid,
        "zero_subspace_energies": zero_energies,
        "zero_subspace_residual": zero_resid,
        "tilde0_residual": t0_resid,
        "ground_state": state_to_json(ground),
        "worst": worst,
    }
    return _verdict(report, worst, inp.tol_chen, {"chen_state.csv": lambda: state_to_csv(ground)})


def _run_catalogue_sweep(inp):
    g = build_generators(inp.cutoff)
    table = []
    for row in appendix_catalogue(Bindings()):
        res = verify_ladder(row.params, row.coeffs, g, 3)
        table.append({"label": row.label, "residual": res,
                      "normalizable": row.normalizable, "passed": bool(res < inp.tol_ladder)})
    worst = max(r["residual"] for r in table)
    csv_lines = ["label,residual,normalizable,passed"] + [
        f"{r['label']},{r['residual']!r},{r['normalizable']},{r['passed']}" for r in table]
    return _verdict({"rows": table, "count": len(table), "worst": worst}, worst,
                    inp.tol_ladder, {"catalogue.csv": lambda: "\n".join(csv_lines) + "\n"})


def _run_reduce(inp):
    p = inp.params
    rep = solve_ladder(p)
    if not rep.exists:
        return _refuse(rep.tag, "no ladder")
    red = reduce_by_similarity(p, rep.combined(), inp.cutoff, eps=inp.eps)
    report = {
        "params": params_to_json(p),
        "tag": str(rep.tag),
        "chain": [unitary_spec_to_json(s) for s in red.chain],
        "reduced_params": params_to_json(red.params),
        "reduced_coeffs": coeffs_to_json(red.coeffs),
        "h_residual": red.h_residual,
        "a_residual": red.a_residual,
        "shell_max": red.shell_max,
    }
    return _verdict(report, max(red.h_residual, red.a_residual), inp.tol_reduce)


# the one list of scenarios: runner and the least cutoff of each mode (chen
# checks its own bound, which depends on p, q and kappa)
_RUNNERS = {
    "verify-algebra": (_run_verify_algebra, 6),
    "solve-ladder": (_run_solve_ladder, 4),
    "spectrum": (_run_spectrum, 8),
    "eigenstate": (_run_eigenstate, 8),
    "chen": (_run_chen, 0),
    "catalogue-sweep": (_run_catalogue_sweep, 8),
    "reduce": (_run_reduce, 8),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no
    state between calls."""
    parser = argparse.ArgumentParser(prog="ladderforge",
                                     description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version",
                        version=f"ladderforge {__version__}")
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in _RUNNERS:
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
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args, _load_config(args.config))
        inp = _inputs(cfg)
        runner, min_cutoff = _RUNNERS[args.scenario]
        _require_cutoff(inp.cutoff, min_cutoff)
        code, report, extras = runner(inp)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except CutoffTooSmall as exc:
        print(f"cutoff too small: {exc}", file=sys.stderr)
        return EXIT_CUTOFF
    except DomainError as exc:
        print(f"refused [{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except LadderForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HARD

    text = _json_text({"version": f"ladderforge {__version__}", "scenario": args.scenario,
                       "config": cfg, "report": report})
    if not inp.out:
        print(text)
        return code
    files = {f"{args.scenario}.json": text + "\n"}
    if inp.format == "csv":
        files.update((name, text()) for name, text in extras.items())
    os.makedirs(inp.out, exist_ok=True)
    for name, body in files.items():
        with open(os.path.join(inp.out, name), "w", encoding="utf-8") as fh:
            fh.write(body)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
