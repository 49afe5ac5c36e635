"""The benchmark under perfbench/ imports the package's public names,
replays the learner loop from `qsb_step` and measures its inputs through
`Dataset.matrices`. A change that drops one of those names, makes
`run_qst_game` drift from `qsb_step` by a bit, or changes what a `Dataset`
exposes to the benchmark fails here, not only in the benchmark run."""

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


def test_distinct_frac_of_the_3q_input_counts_its_elements(tmp_path, monkeypatch):
    """The benchmark's distinct fraction, taken over the record stack, equals
    the loaded dataset's element count over its record count."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    from qsoftbayes.serialize import load_dataset

    plan = workloads.prepare_ml_shots_3q(3, tmp_path)
    data = load_dataset(plan.params["input"])
    assert len(data) == plan.params["shots"]
    assert workloads.distinct_frac(data.matrices) == len(data.elements) / len(data)
