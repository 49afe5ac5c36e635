"""The benchmark under perfbench/ imports the package's public names and
replays the learner loop from `qsb_step`. A change that drops one of those
names, or that makes `run_qst_game` drift from `qsb_step` by a bit, fails
here, not only in the benchmark's traced mode."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_scaling_replica_matches_run_qst_game(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    assert "scaling-d64" in workloads.WORKLOADS
    params = {"seeds": [0], "rounds": 20, "dims": (2, 4)}
    _, facts, problems = tracing.trace_scaling(
        tracing.Tracer(), params, tmp_path / "cli", tmp_path / "replica")
    assert problems == []
    assert facts["dims"] == [2, 4]
