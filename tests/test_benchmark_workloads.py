"""The benchmark's workloads drive the program through its public API and
time each bug by wrapping `localizer.predict`; a change to that API must
fail here, not only in a benchmark run. Each case runs one cycle of a small
copy of a benchmark workload and its correctness checks."""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
N_BUGS = 8


@pytest.mark.parametrize(
    "technique, cached, chain, dimension",
    [
        ("genloc", False, False, 64),
        ("vsm", False, False, 64),
        ("embedding_only", True, True, 128),
    ],
    ids=["genloc", "vsm", "embedding_only-chain"],
)
def test_workload_cycle_is_correct(monkeypatch, tmp_path, technique, cached, chain, dimension):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    workload = run.Workload(technique, cached, chain, 60, N_BUGS, 3, dimension=dimension)
    monkeypatch.setitem(run.WORKLOADS, "tiny", workload)
    monkeypatch.setattr(run, "RELOAD_SECONDS", 0)

    bench = run.Bench("tiny", 5, tmp_path)
    bench.warm_up()
    last = bench.cycle(0)

    assert run.check(bench, last) == []
    assert len(bench.predict_ms) == N_BUGS  # one predict call per bug and run
    assert [outcome.failures for outcome in bench.outcomes] == [[]]
