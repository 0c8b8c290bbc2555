import importlib.util
from pathlib import Path

SCENARIOS = {"reduce", "spectrum", "eigenstate", "chen", "solve-ladder", "verify-algebra",
             "catalogue-sweep"}


def test_report_digests_print_the_same_lines_from_run_to_run(capsys):
    path = Path(__file__).resolve().parents[1] / "tools" / "report_digests.py"
    spec = importlib.util.spec_from_file_location("report_digests", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    runs = []
    for _ in range(2):
        assert tool.main(["--seed", "1"]) == 0
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]
    assert {line.split()[2] for line in runs[0]} == SCENARIOS
    assert all(len(line.split()) == 5 for line in runs[0])
