"""Tests of the benchmark itself: input generation, the output checker and
the outside-in tracer.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import json
import os

import pytest

import check
import gen
import run
import tracer as tr
from ladderforge import cli


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_inputs(workload):
    a = gen.generate(workload, 11)
    assert json.dumps(a, sort_keys=True) == json.dumps(gen.generate(workload, 11), sort_keys=True)
    assert json.dumps(a, sort_keys=True) != json.dumps(gen.generate(workload, 12), sort_keys=True)
    # the slot list, and with it the cost mix, does not depend on the seed
    slots = sorted((r["scenario"], r["family"], str(r["variant"]), r["config"]["cutoff"])
                   for r in a)
    assert slots == sorted((r["scenario"], r["family"], str(r["variant"]),
                            r["config"]["cutoff"]) for r in gen.generate(workload, 12))


def test_samplers_land_on_their_gates():
    for workload in gen.WORKLOADS:
        for seed in range(5):
            for req in gen.generate(workload, seed):
                if "params" not in req["config"]:
                    continue
                on_gate = gen.ladder_exists(req["config"]["params"])
                assert on_gate == (req["family"] != "off_gate"), req
                if not on_gate:
                    assert min(gen.gate_margins(req["config"]["params"])) > gen.OFF_GATE_MARGIN


def _report(tmp_path, scenario, report):
    (tmp_path / f"{scenario}.json").write_text(json.dumps({"report": report}))
    return str(tmp_path)


def test_checker_flags_vacuous_reports(tmp_path):
    spectrum = {"scenario": "spectrum", "expect": {"exit": 0}}
    out = _report(tmp_path, "spectrum", {"passed": True, "entries": [], "tolerance": 1e-8,
                                         "worst_residual": 0.0})
    assert check.check(spectrum, 0, out) == ("failed", "vacuous: no certified chain entries")

    eigen = {"scenario": "eigenstate", "expect": {"exit": 0}}
    out = _report(tmp_path, "eigenstate", {"passed": True, "tolerance": 1e-8,
                                           "state": {"amplitudes": [[1.0, 0.0]]}})
    assert check.check(eigen, 0, out)[0] == "failed"

    out = _report(tmp_path, "eigenstate", {"passed": True, "tolerance": 1e-8, "residual": 1e-12,
                                           "state": {"amplitudes": [[1.0, 0.0]]}})
    assert check.check(eigen, 0, out) == ("ok", "")


def test_checker_flags_wrong_exit_codes(tmp_path):
    on_gate = {"scenario": "solve-ladder", "expect": {"exit": 0}}
    off_gate = {"scenario": "solve-ladder", "expect": {"exit": 2}}
    assert check.check(on_gate, 1, str(tmp_path))[0] == "failed"
    assert check.check(on_gate, 2, str(tmp_path))[0] == "failed"
    assert check.check(on_gate, "ValueError", str(tmp_path))[0] == "failed"
    assert check.check(off_gate, 0, str(tmp_path))[0] == "wrong"
    assert check.check(off_gate, 2, str(tmp_path)) == ("ok", "")


def test_checker_compares_reduced_params_with_closed_form(tmp_path):
    req = next(r for r in gen.generate("reduce-mid", 3) if r["family"] == "reduce_both")
    want = req["expect"]["reduced_params"]
    rep = {"passed": True, "tolerance": 1e-8, "h_residual": 0.0, "a_residual": 0.0,
           "reduced_params": dict(want)}
    assert check.check(req, 0, _report(tmp_path, "reduce", rep)) == ("ok", "")
    rep["reduced_params"]["h0"] = want["h0"] + 1e-6
    assert check.check(req, 0, _report(tmp_path, "reduce", rep))[0] == "wrong"


def _small_requests(tmp_path):
    """A few cheap requests covering every layer, configs written to disk."""
    reqs = []
    picks = {"reduce-mid": ("reduce", 10), "spectrum-large": ("eigenstate", 12),
             "gate-sweep": ("solve-ladder", 10)}
    for workload, (scenario, cut) in picks.items():
        req = next(r for r in gen.generate(workload, 5) if r["scenario"] == scenario
                   and r["family"] not in ("off_gate",))
        reqs.append((scenario, dict(req["config"], cutoff=[cut, cut])))
    reqs.append(("spectrum", {"cutoff": [10, 10], "params": gen.s_basic21(gen.random.Random(1))}))
    reqs.append(("chen", {"cutoff": [10, 10], "p": 3, "q": 2, "kappa": 1}))
    reqs.append(("catalogue-sweep", {"cutoff": [8, 8]}))
    reqs.append(("verify-algebra", {"cutoff": [8, 8]}))
    out = []
    for i, (scenario, cfg) in enumerate(reqs):
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(cfg))
        out.append((f"q{i}", scenario, str(path)))
    return out


def _drive(requests, out_root, tracer=None):
    codes = []
    for rid, scenario, cfg in requests:
        argv = [scenario, "--config", cfg, "--out", os.path.join(out_root, rid),
                "--format", "csv"]
        if tracer is None:
            codes.append(cli.run(argv))
        else:
            tracer.request = rid
            with tracer.span("bench.request"):
                codes.append(cli.run(argv))
    return codes


def test_layer_self_times_sum_to_request_time(tmp_path, monkeypatch):
    monkeypatch.setenv("LADDERFORGE_THREADS", "1")
    requests = _small_requests(tmp_path)
    tracer = tr.Tracer()
    with tr.instrument(tracer):
        _drive(requests, str(tmp_path / "traced"), tracer)
    assert cli.run.__module__ == "ladderforge.cli" and not hasattr(cli.run, "__wrapped__")

    own = tr.self_times(tracer.spans)
    layers_seen = set()
    for rid, _, _ in requests:
        spans = [s for s in tracer.spans if s[tr.REQUEST] == rid]
        root = [s for s in spans if s[tr.NAME] == "bench.request"]
        assert len(root) == 1
        total = root[0][tr.END] - root[0][tr.START]
        assert sum(own[s[tr.SID]] for s in spans) == pytest.approx(total, rel=1e-9, abs=1e-9)
        assert all(own[s[tr.SID]] >= -1e-9 for s in spans)
        layers_seen |= {tr.layer_of(s[tr.NAME]) for s in spans}
    assert set(tr.LAYERS) <= layers_seen

    metrics = tr.layer_metrics(tracer.spans, tracer.counts, 1, 0.0)
    assert set(metrics) == {name for name, _, _ in tr.PER_LAYER}
    assert metrics["fock.matmul.calls"] > 0 and metrics["transforms.expm.calls"] > 0


def test_traced_and_untraced_reports_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.setenv("LADDERFORGE_THREADS", "1")
    requests = _small_requests(tmp_path)
    out = str(tmp_path / "out")      # reports embed the output path
    plain = _drive(requests, out)
    os.rename(out, tmp_path / "plain")
    with tr.instrument(tr.Tracer()) as tracer:
        traced = _drive(requests, out, tracer)
    os.rename(out, tmp_path / "traced")
    assert plain == traced
    compared = 0
    for rid, _, _ in requests:
        names = sorted(os.listdir(tmp_path / "plain" / rid))
        assert names == sorted(os.listdir(tmp_path / "traced" / rid))
        for name in names:
            a = (tmp_path / "plain" / rid / name).read_bytes()
            assert a == (tmp_path / "traced" / rid / name).read_bytes(), (rid, name)
            compared += 1
    assert compared >= len(requests)


def test_tail_leaves_ten_samples_beyond():
    xs = [float(i) for i in range(40)]
    value, pct = run.tail(xs)
    assert sum(x > value for x in xs) == 10 and pct == 75.0


def test_benchmark_json_names_every_metric():
    with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(x) for x in tr.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
