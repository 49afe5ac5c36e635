"""The benchmark under perfbench/ imports the package's public names,
replays the learner loop from `qsb_step`, unpacks `batch_ml_solve`'s
`(rho, f)` pair and measures its inputs through `Dataset.matrices`. A
change that drops one of those names, makes `run_qst_game` drift from
`qsb_step` by a bit, makes the oracle differ between the CLI and the
replica, or changes what a `Dataset` exposes to the benchmark fails here,
not only in the benchmark run."""

import contextlib
import io
from pathlib import Path

from qsoftbayes import cli

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


def test_traced_ml_replica_writes_the_cli_artifacts(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    cli_out = tmp_path / "cli"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["ml-run", "--qubits", "2", "--shots", "300", "--rounds", "64",
                         "--seeds", "0,1", "--data-seed", "0", "--out", str(cli_out)]) == 0
    replica_out = tmp_path / "replica"
    replica_out.mkdir()
    params = {"qubits": 2, "shots": 300, "rounds": 64, "seeds": [0, 1], "data_seed": 0}
    _, facts, problems = tracing.trace_ml(tracing.Tracer(), params, cli_out, replica_out)
    assert problems == []
    assert facts["cert_gap"] <= 1e-7


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
