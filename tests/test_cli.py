import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qsoftbayes import cli
from qsoftbayes.cli import (
    ConfigError,
    ExperimentConfig,
    MAX_DIM,
    MAX_QUBITS,
    ML_COLUMNS,
    OPS_COLUMNS,
    QST_COLUMNS,
    config_from_mapping,
    config_to_mapping,
    main,
    ml_error_bound,
    parse_config_file,
    validate_config,
    write_ops_report,
)
from qsoftbayes.ensembles import make_rng, random_density, uniform_returns
from qsoftbayes.linalg import validate_density
from qsoftbayes.portfolio import best_fixed_portfolio, ops_regret_bound, run_ops_game
from qsoftbayes.serialize import (
    load_dataset,
    load_matrix,
    load_payload,
    save_dataset,
    save_matrix,
    save_return_stream,
    write_csv,
)
from qsoftbayes.tomography import generate_dataset, pauli_basis_povms


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return header, rows


@pytest.fixture()
def run_cli(capsys):
    """main() with its progress/error chatter swallowed after the call."""

    def run(argv):
        code = main(argv)
        capsys.readouterr()
        return code

    return run


@pytest.fixture()
def dataset_file(tmp_path):
    """A 12-record dataset at D = 2, saved as a container file."""
    path = tmp_path / "data.json"
    save_dataset(path, generate_dataset(random_density(make_rng(1), 2), pauli_basis_povms(1),
                                        12, make_rng(1)))
    return path


# A small valid command line per mode, ml-run once with a generated and once
# with a file dataset; "{input}" stands for a dataset file.
RUNS = {
    "ops-game": ["ops-game", "--dim", "2", "--rounds", "4", "--seeds", "0,1"],
    "qst-game": ["qst-game", "--dim", "2", "--rounds", "4", "--povm", "random-rank1"],
    "ml-run": ["ml-run", "--qubits", "1", "--shots", "20", "--rounds", "8", "--seeds", "1,0",
               "--data-seed", "3", "--checkpoints", "2,8", "--eta", "0.25"],
    "ml-run-from-file": ["ml-run", "--dim", "2", "--povm", "from-file", "--input", "{input}",
                         "--rounds", "8"],
    "scaling-bench": ["scaling-bench", "--dim", "2,4", "--rounds", "4", "--seeds", "3"],
    "validate": ["validate", "{input}"],
}
# The flags each of those runs takes, as README's CLI table lists them.
GAME_FLAGS = {"dim", "qubits", "rounds", "eta", "seeds", "out", "config"}
TAKES = {
    "ops-game": GAME_FLAGS,
    "qst-game": GAME_FLAGS | {"povm"},
    "ml-run": GAME_FLAGS | {"povm", "checkpoints", "shots", "data-seed"},
    "ml-run-from-file": GAME_FLAGS | {"povm", "checkpoints", "input"},
    "scaling-bench": GAME_FLAGS,
    "validate": set(),
}
FLAG_VALUES = {"dim": "2", "qubits": "1", "rounds": "4", "eta": "0.5", "seeds": "0",
               "out": "{out}", "config": "{config}", "povm": "pauli-basis",
               "input": "{input}", "checkpoints": "2", "shots": "5", "data-seed": "1"}
# A config-file key that belongs to another mode (or another povm), per run,
# and a config file of another mode.
FOREIGN_FILE_KEYS = [("ops-game", "shots=5"), ("qst-game", "data-seed=1"),
                     ("ml-run", "input={input}"), ("ml-run-from-file", "shots=5"),
                     ("scaling-bench", "povm=pauli-basis"), ("ml-run", "mode=qst-game")]
FOREIGN_CASES = [
    pytest.param(name, [f"--{flag}", FLAG_VALUES[flag]], "", id=f"{name}--{flag}")
    for name, takes in TAKES.items() for flag in sorted(set(FLAG_VALUES) - takes)
] + [
    pytest.param(name, ["--config", "{config}"], text, id=f"{name}-file-{text.split('=')[0]}")
    for name, text in FOREIGN_FILE_KEYS
]


@pytest.mark.parametrize("name, extra, config_text", FOREIGN_CASES)
def test_a_flag_or_key_the_mode_does_not_take_is_refused(tmp_path, capsys, dataset_file,
                                                          name, extra, config_text):
    """Exit 2, one config error line and no output directory."""
    config = tmp_path / "run.cfg"
    config.write_text((config_text or "rounds=4\n").format(input=dataset_file))
    out = tmp_path / "run"
    paths = {"input": dataset_file, "config": config, "out": out}
    argv = [arg.format(**paths) for arg in RUNS[name] + extra]
    if name != "validate" and "--out" not in extra:
        argv += ["--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not out.exists()



@pytest.mark.parametrize("argv", [
    ["ops-game", "--dim", "2", "--seeds", "-1,2"],  # argparse reads -1,2 as a flag
    ["ops-game", "--dim", "2", "--rounds"],
    ["frobnicate"],
    [],
], ids=["value-like-a-flag", "flag-without-value", "unknown-mode", "no-mode"])
def test_an_argument_argparse_refuses_is_a_one_line_config_error(tmp_path, capsys,
                                                                 monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["-h"], ["ml-run", "-h"], ["validate", "--help"]])
def test_help_is_printed_and_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: qsb")


class TestConfigMapping:

    def test_qubits_expand_to_a_power_of_two(self):
        config = config_from_mapping({"mode": "ml-run", "qubits": "2"})
        assert config.dims == (4,)

    def test_dim_accepts_a_comma_list(self):
        config = config_from_mapping({"mode": "scaling-bench", "dim": "8,16,32"})
        assert config.dims == (8, 16, 32)

    @pytest.mark.parametrize("qubits", ["abc", "2.5"])
    def test_unparsable_qubits_are_a_config_error(self, qubits):
        with pytest.raises(ConfigError, match="qubits"):
            config_from_mapping({"mode": "ml-run", "qubits": qubits})

    @pytest.mark.parametrize("qubits", ["0", "-3", str(MAX_QUBITS + 1), "64"])
    def test_qubits_out_of_range_are_a_config_error(self, qubits):
        with pytest.raises(ConfigError, match="qubits must be in"):
            config_from_mapping({"mode": "ops-game", "qubits": qubits})

    def test_largest_dimension_is_accepted(self):
        assert config_from_mapping({"mode": "ops-game", "qubits": str(MAX_QUBITS)}).dims == (MAX_DIM,)
        config = ExperimentConfig(mode="ops-game", dims=(MAX_DIM,))
        assert validate_config(config) is config

    def test_dim_and_qubits_conflict(self):
        with pytest.raises(ConfigError, match="not both"):
            config_from_mapping({"mode": "ops-game", "dim": "2", "qubits": "1"})

    def test_unknown_keys_are_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_mapping({"mode": "ops-game", "dim": "2", "frobnicate": "1"})

    def test_missing_mode_is_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            config_from_mapping({"dim": "2"})

    def test_checkpoint_spellings(self):
        base = {"mode": "ml-run", "qubits": "1"}
        assert config_from_mapping({**base, "checkpoints": "auto"}).checkpoints is None
        assert config_from_mapping({**base, "checkpoints": ""}).checkpoints == ()
        assert config_from_mapping({**base, "checkpoints": "1,5,9"}).checkpoints == (1, 5, 9)

    def test_mapping_round_trip(self, tmp_path, run_cli, dataset_file):
        for eta in (None, 0.125):
            config = ExperimentConfig(
                mode="ml-run", dims=(4,), shots=77, rounds=321, eta=eta,
                seeds=(3, 1), checkpoints=(2, 9), out="somewhere", data_seed=5,
            )
            assert config_from_mapping(config_to_mapping(config)) == config
        validate = ExperimentConfig(mode="validate", input_path=str(dataset_file))
        assert config_to_mapping(validate) == {"mode": "validate", "input": str(dataset_file)}
        assert config_from_mapping(config_to_mapping(validate)) == validate
        # every mode's manifest echo reruns to the same artifacts
        for name, argv in RUNS.items():
            if name == "validate":
                continue
            first, again = tmp_path / f"{name}-first", tmp_path / f"{name}-again"
            argv = [arg.format(input=dataset_file) for arg in argv]
            assert run_cli(argv + ["--out", str(first)]) == 0, name
            echo = load_payload(first / "manifest.json")["config"]
            assert set(echo) == {"mode"} | TAKES[name] - {"qubits", "config"}, name
            assert run_cli([argv[0], "--config", str(first / "manifest.json"),
                            "--out", str(again)]) == 0, name
            assert load_payload(again / "manifest.json")["config"] == {**echo, "out": str(again)}
            assert stable_artifacts(first) == stable_artifacts(again), name


class TestValidateConfig:

    def cfg(self, **kwargs):
        return ExperimentConfig(**{"mode": "ops-game", "dims": (2,), **kwargs})

    def test_good_config_passes_through(self):
        assert validate_config(self.cfg()) is not None

    def test_rejections(self):
        bad = [
            self.cfg(mode="frisbee"),
            self.cfg(dims=()),
            self.cfg(dims=(1,)),
            self.cfg(dims=(2, 4)),  # one dim per run outside scaling-bench
            self.cfg(dims=(MAX_DIM + 1,)),
            self.cfg(dims=(2 ** 64,)),
            self.cfg(mode="scaling-bench", dims=(4, MAX_DIM + 1)),
            self.cfg(rounds=0),
            self.cfg(shots=0),
            self.cfg(seeds=()),
            self.cfg(seeds=(-1,)),
            self.cfg(seeds=(1, 1)),
            self.cfg(data_seed=-5),
            self.cfg(mode="scaling-bench", seeds=(1, 2)),
            self.cfg(eta=1.5),
            self.cfg(povm="telepathy"),
            self.cfg(povm="from-file"),  # no input path
            self.cfg(mode="ml-run", povm="random-rank1"),
            self.cfg(mode="ml-run", dims=(6,)),  # pauli-basis needs 2^q
            self.cfg(mode="qst-game", dims=(6,)),
            self.cfg(checkpoints=(0,)),
            self.cfg(checkpoints=(2000,)),
            ExperimentConfig(mode="validate"),  # no input file
        ]
        for config in bad:
            with pytest.raises(ConfigError):
                validate_config(config)


class TestParseConfigFile:

    def test_key_value_file_with_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\nmode = ops-game\n\ndim=2\nrounds = 15\n")
        assert parse_config_file(path) == {"mode": "ops-game", "dim": "2", "rounds": "15"}

    def test_malformed_line_reports_its_number(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("dim=2\nwhat is this\n")
        with pytest.raises(ConfigError, match=":2:"):
            parse_config_file(path)

    def test_manifest_json_yields_its_config_echo(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"kind": "manifest", "config": {"mode": "ops-game", "dim": "2"}}))
        assert parse_config_file(path) == {"mode": "ops-game", "dim": "2"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config_file(tmp_path / "nope.cfg")

    @pytest.mark.parametrize("text", ['{"config": [1]}', '{"config": "mode=ops-game"}'],
                             ids=["list", "string"])
    def test_json_config_that_is_not_an_object(self, tmp_path, text):
        path = tmp_path / "manifest.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match="object"):
            parse_config_file(path)

    @pytest.mark.parametrize("text", ["mode=ml-run\nqubits=abc\n", '{"config": [1]}'],
                             ids=["key-value", "json"])
    def test_bad_config_file_exits_2_with_one_line(self, tmp_path, capsys, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert main(["ml-run", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1


class TestOpsGameMode:

    def test_artifacts_and_regret_accounting(self, tmp_path, run_cli):
        out = tmp_path / "run"
        assert run_cli(["ops-game", "--dim", "3", "--rounds", "40",
                     "--seeds", "1,2", "--out", str(out)]) == 0
        manifest = load_payload(out / "manifest.json")
        assert manifest["config"]["mode"] == "ops-game"
        assert len(manifest["seed_summaries"]) == 2

        header, rows = read_csv(out / "ops_seed1.csv")
        assert header == OPS_COLUMNS
        assert len(rows) == 40
        for t, row in enumerate(rows, start=1):
            _, loss, cum, comp, regret, bound = row
            assert regret == pytest.approx(cum - comp, abs=1e-12)
            assert bound == ops_regret_bound(3, t)

        summary = manifest["seed_summaries"][0]
        assert summary["comparator_gap"] <= 1e-8
        assert summary["regret"] <= summary["regret_bound"]

    def test_report_equals_the_row_by_row_reference(self, tmp_path):
        returns = uniform_returns(make_rng(3), 500, 4)
        transcript = run_ops_game(returns)
        weights = best_fixed_portfolio(returns).weights
        write_ops_report(tmp_path / "ops.csv", transcript, returns, weights)
        cum = transcript.cumulative_losses
        comp_cum = np.cumsum(-np.log(returns @ weights))
        write_csv(tmp_path / "reference.csv", OPS_COLUMNS, [
            (t + 1, transcript.losses[t], cum[t], comp_cum[t],
             cum[t] - comp_cum[t], ops_regret_bound(4, t + 1))
            for t in range(500)
        ])
        assert (tmp_path / "ops.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_same_config_same_bytes(self, tmp_path, run_cli):
        args = ["ops-game", "--dim", "2", "--rounds", "25", "--seeds", "7"]
        assert run_cli(args + ["--out", str(tmp_path / "a")]) == 0
        assert run_cli(args + ["--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "ops_seed7.csv").read_bytes()
        b = (tmp_path / "b" / "ops_seed7.csv").read_bytes()
        assert a == b

    def test_rerun_from_manifest(self, tmp_path, run_cli):
        out = tmp_path / "first"
        assert run_cli(["ops-game", "--dim", "2", "--rounds", "20",
                     "--seeds", "4", "--out", str(out)]) == 0
        again = tmp_path / "second"
        assert run_cli(["ops-game", "--config", str(out / "manifest.json"),
                     "--out", str(again)]) == 0
        assert (out / "ops_seed4.csv").read_bytes() == (again / "ops_seed4.csv").read_bytes()

    def test_flags_override_config_file(self, tmp_path, run_cli):
        path = tmp_path / "run.cfg"
        path.write_text("dim=2\nrounds=30\nseeds=4\n")
        out = tmp_path / "run"
        assert run_cli(["ops-game", "--config", str(path), "--rounds", "5",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out / "ops_seed4.csv")
        assert len(rows) == 5


class TestQstGameMode:

    def test_artifacts(self, tmp_path, run_cli):
        out = tmp_path / "run"
        assert run_cli(["qst-game", "--dim", "2", "--rounds", "30", "--seeds", "5",
                     "--povm", "random-rank1", "--out", str(out)]) == 0

        header, rows = read_csv(out / "qst_seed5.csv")
        assert header == QST_COLUMNS
        assert len(rows) == 30
        traces = [row[3] for row in rows]
        assert traces[0] == 1.0
        assert all(b <= a + 1e-12 for a, b in zip(traces, traces[1:]))

        validate_density(load_matrix(out / "rho_bar_seed5.json"))
        sidecar = json.loads((out / "qst_seed5_times.json").read_text())
        assert len(sidecar["step_times_ns"]) == 30
        assert all(isinstance(x, int) and x >= 0 for x in sidecar["step_times_ns"])

        summary = load_payload(out / "manifest.json")["seed_summaries"][0]
        assert summary["step_ns_median"] > 0
        assert summary["final_true_trace"] <= 1.0 + 1e-9

    def test_from_file_stream(self, tmp_path, run_cli):
        rho = random_density(make_rng(1), 2)
        data = generate_dataset(rho, pauli_basis_povms(1), 25, make_rng(1))
        src = tmp_path / "stream.json"
        save_dataset(src, data)
        out = tmp_path / "run"
        assert run_cli(["qst-game", "--dim", "2", "--rounds", "25", "--povm", "from-file",
                     "--input", str(src), "--out", str(out)]) == 0
        _, rows = read_csv(out / "qst_seed0.csv")
        assert len(rows) == 25

    def test_from_file_stream_too_short(self, tmp_path, capsys):
        rho = random_density(make_rng(1), 2)
        data = generate_dataset(rho, pauli_basis_povms(1), 5, make_rng(1))
        src = tmp_path / "stream.json"
        save_dataset(src, data)
        code = main(["qst-game", "--dim", "2", "--rounds", "10", "--povm", "from-file",
                     "--input", str(src), "--out", str(tmp_path / "run")])
        assert code == 2
        assert "need 10" in capsys.readouterr().err

    def test_from_file_stream_of_another_dimension(self, tmp_path, capsys, dataset_file):
        out = tmp_path / "run"
        code = main(["qst-game", "--dim", "4", "--rounds", "10", "--povm", "from-file",
                     "--input", str(dataset_file), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == \
            f"config error: {dataset_file} has dimension 2, need 4\n"
        assert not list(out.iterdir())


class TestMlRunMode:

    def test_artifacts(self, tmp_path, run_cli):
        out = tmp_path / "run"
        assert run_cli(["ml-run", "--qubits", "1", "--shots", "200", "--rounds", "64",
                     "--seeds", "0,1", "--out", str(out)]) == 0

        data = load_dataset(out / "dataset.json")
        assert len(data) == 200
        assert data.has_provenance
        validate_density(load_matrix(out / "rho_hat_oracle.json"))

        manifest = load_payload(out / "manifest.json")
        f_star = manifest["oracle_objective"]
        assert manifest["error_bound"] == ml_error_bound(2, 64)

        header, rows = read_csv(out / "ml_seed0.csv")
        assert header == ML_COLUMNS
        assert [int(r[1]) for r in rows] == [1, 2, 4, 8, 16, 32, 64]
        for row in rows:
            assert row[3] == ml_error_bound(2, int(row[1]))
            assert row[4] == pytest.approx(row[2] - f_star, abs=1e-15)

        gaps = [s["final_gap"] for s in manifest["seed_summaries"]]
        assert manifest["mean_final_gap"] == pytest.approx(np.mean(gaps), abs=1e-15)
        for summary in manifest["seed_summaries"]:
            assert 0.0 < summary["final_true_trace"] <= 1.0
            assert 0.0 < summary["final_min_eig"] <= 0.5
        assert manifest["records"] == 200
        assert manifest["distinct_records"] == len(data.elements) <= 6
        assert manifest["oracle_cert_gap"] <= 1e-7
        phases = manifest["phase_seconds"]
        assert set(phases) == {"dataset", "save_dataset", "oracle", "learners", "write"}
        assert all(seconds >= 0.0 for seconds in phases.values())

    def test_empty_checkpoints_skip_evaluation(self, tmp_path, run_cli):
        out = tmp_path / "run"
        assert run_cli(["ml-run", "--qubits", "1", "--shots", "60", "--rounds", "16",
                     "--seeds", "0", "--checkpoints", "", "--out", str(out)]) == 0
        header, rows = read_csv(out / "ml_seed0.csv")
        assert header == ML_COLUMNS
        assert rows == []
        manifest = load_payload(out / "manifest.json")
        assert "mean_final_gap" not in manifest
        assert "final_gap" not in manifest["seed_summaries"][0]

    def test_data_seed_changes_the_dataset_but_not_the_format(self, tmp_path, run_cli):
        for tag, seed in (("a", "0"), ("b", "1")):
            assert run_cli(["ml-run", "--qubits", "1", "--shots", "30", "--rounds", "8",
                         "--seeds", "0", "--data-seed", seed,
                         "--out", str(tmp_path / tag)]) == 0
        a = load_dataset(tmp_path / "a" / "dataset.json")
        b = load_dataset(tmp_path / "b" / "dataset.json")
        assert not np.array_equal(a.matrices, b.matrices)

    def test_from_file_dataset(self, tmp_path, run_cli):
        rho = random_density(make_rng(2), 2)
        data = generate_dataset(rho, pauli_basis_povms(1), 40, make_rng(2))
        src = tmp_path / "data.json"
        save_dataset(src, data)
        out = tmp_path / "run"
        assert run_cli(["ml-run", "--dim", "2", "--povm", "from-file", "--input", str(src),
                     "--rounds", "16", "--seeds", "0", "--out", str(out)]) == 0
        stored = load_dataset(out / "dataset.json")
        assert np.array_equal(stored.matrices, data.matrices)

    def test_from_file_dataset_of_another_dimension(self, tmp_path, capsys, dataset_file):
        out = tmp_path / "run"
        code = main(["ml-run", "--qubits", "3", "--povm", "from-file", "--input",
                     str(dataset_file), "--rounds", "8", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == \
            f"config error: {dataset_file} has dimension 2, need 8\n"
        assert not list(out.iterdir())


class TestScalingBenchMode:

    def test_times_sidecar_and_no_csv(self, tmp_path, run_cli):
        out = tmp_path / "run"
        assert run_cli(["scaling-bench", "--dim", "2,4", "--rounds", "20",
                     "--seeds", "3", "--out", str(out)]) == 0
        report = json.loads((out / "scaling_times.json").read_text())
        assert [entry["dim"] for entry in report["table"]] == [2, 4]
        assert report["ratios"][0]["from_dim"] == 2
        assert report["ratios"][0]["to_dim"] == 4
        assert report["ratios"][0]["median_ratio"] > 0
        # timing data is wall-clock noise; it stays out of the stable artifacts
        assert list(out.glob("*.csv")) == []


# a per-record dataset file with two 1 x 1 records: dim, n, povm_indices
DATASET = (b'{"kind": "dataset", "dim": %s, "n": %s, "has_provenance": true,'
           b' "matrices": [[[1.0, 0.0]], [[1.0, 0.0]]], "povm_indices": %s, "outcome_indices": [0, 0]}')


class TestValidateMode:

    def test_matrix_report(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        save_matrix(path, random_density(make_rng(3), 2))
        assert main(["validate", str(path)]) == 0
        report = capsys.readouterr().out
        assert "kind: matrix" in report
        assert "valid density" in report
        assert "all checks passed" in report

    def test_dataset_report(self, tmp_path, capsys):
        rho = random_density(make_rng(4), 2)
        path = tmp_path / "d.json"
        data = generate_dataset(rho, pauli_basis_povms(1), 9, make_rng(4))
        save_dataset(path, data)
        assert main(["validate", str(path)]) == 0
        report = capsys.readouterr().out
        assert "form: elements+index" in report
        assert "records: 9" in report
        assert f"distinct: {len(data.elements)}" in report
        assert "all checks passed" in report

    def test_per_record_dataset_report(self, tmp_path, capsys):
        path = tmp_path / "d.json"
        path.write_bytes(DATASET % (b'1', b'2', b'[0, 3]'))
        assert main(["validate", str(path)]) == 0
        report = capsys.readouterr().out.splitlines()
        assert report[1:6] == ["kind: dataset", "form: per-record", "dim: 1", "records: 2",
                               "distinct: 1"]

    def test_return_stream_report(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        save_return_stream(path, np.full((4, 2), 0.5))
        assert main(["validate", str(path)]) == 0
        assert "rounds: 4" in capsys.readouterr().out

    def test_return_stream_names_its_first_failing_round(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        rows = np.full((4, 2), 0.5)
        rows[2] = [0.5, -0.5]
        rows[3] = 0.0
        save_return_stream(path, rows)
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == "error: round 3: return has negative entry -5.000e-01\n"

    def test_return_stream_with_a_json_nan_fails(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        path.write_text('{"kind": "return-stream", "rounds": 2, "dim": 2, "rows": [[0.5, 0.5], [NaN, 1]]}')
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == "error: round 2: return has a non-finite entry\n"

    def test_corrupt_file_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{{{{")
        assert main(["validate", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_indefinite_matrix_fails(self, tmp_path, run_cli):
        path = tmp_path / "m.json"
        save_matrix(path, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert run_cli(["validate", str(path)]) == 1

    def test_missing_argument(self, capsys):
        assert main(["validate"]) == 2
        assert "input file" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, content", [
        (["validate"], None),
        (["ml-run", "--dim", "2", "--povm", "from-file", "--input"], None),
        (["validate"], b'{"kind": "return-stream", "dim": 2, "rows": [[0.5, 0.5]]}'),
        (["validate"], b'{"kind": "return-stream", "rounds": 1, "rows": [[0.5, 0.5]]}'),
        (["validate"], b'{"kind": "return-stream", "rounds": 2, "dim": 2, "rows": [[0.5, 0.5], [0.5]]}'),
        (["validate"], b'{"kind": "return-stream", "rounds": 1, "dim": 2, "rows": [["0.5", 0.5]]}'),
        (["validate"], b'\xff\xfe{"kind": "matrix"}'),
        (["validate"], DATASET % (b'1', b'2', b'["x", "y"]')),
        (["validate"], DATASET % (b'1', b'2', b'[[1, 2]]')),
        (["validate"], DATASET % (b'1', b'2', b'[1.5, 0]')),
        (["validate"], DATASET % (b'true', b'2', b'[0, 0]')),
        (["validate"], DATASET % (b'1', b'true', b'[0, 0]')),
        (["validate"], DATASET % (b'10000000', b'2', b'[0, 0]')),
        (["validate"], b'{"kind": "dataset", "dim": 1, "n": 1, "elements": [[[1, 0]]], "index": [1]}'),
        (["validate"], b'{"kind": "dataset", "dim": 1, "n": 1, "elements": [[[1, 0]]], "index": [0],'
                       b' "matrices": [[[1, 0]]]}'),
        (["validate"], b'{"kind": "dataset", "dim": 1, "n": 1, "matrices": [[[1' + b'0' * 5000 + b', 0]]]}'),
        (["validate"], b'[' * 100000),
        (["validate"], b'{"kind": "matrix", "dim": 1, "entries": [[true, false]]}'),
        (["validate"], b'{"kind": "dataset", "dim": 1, "n": 1, "matrices": [[[true, false]]]}'),
        (["validate"], b'{"kind": "dataset", "dim": 1, "n": 1, "elements": [[[true, false]]], "index": [0]}'),
    ], ids=["argv0", "argv1", "no-rounds", "no-dim", "ragged-rows", "string-entry", "not-utf8",
            "provenance-strings", "provenance-2d", "provenance-float", "dim-bool", "n-bool",
            "dim-huge", "index-past-the-end", "both-forms", "int-over-digit-limit", "nested-too-deep",
            "matrix-bool-entry", "record-bool-entry", "element-bool-entry"])
    def test_missing_file_is_a_one_line_error(self, tmp_path, capsys, argv, content):
        """A missing or malformed input file ends in one error line, exit 1."""
        path = tmp_path / "input.json"
        if content is not None:
            path.write_bytes(content)
        out = ["--out", str(tmp_path / "run")] if argv[0] == "ml-run" else []
        assert main(argv + [str(path)] + out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        if content is None:
            assert "input.json" in err


class TestExitCodes:

    def test_missing_dimension(self, capsys):
        assert main(["ops-game"]) == 2
        assert "dimension" in capsys.readouterr().err

    def test_bad_eta(self, capsys):
        assert main(["ops-game", "--dim", "2", "--eta", "2.0"]) == 2
        capsys.readouterr()

    def test_conflicting_dimension_flags(self, capsys):
        assert main(["ops-game", "--dim", "2", "--qubits", "1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("flags", [["--qubits", "64"], ["--dim", str(MAX_DIM + 1)]])
    def test_huge_dimension_is_a_one_line_config_error(self, tmp_path, capsys, flags):
        assert main(["ops-game", *flags, "--rounds", "1", "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv", [
        ["ops-game", "--dim", "2", "--seeds", "-1"],
        ["ml-run", "--qubits", "1", "--data-seed", "-5"],
        ["ops-game", "--dim", "2", "--seeds="],
        ["ml-run", "--qubits", "1", "--seeds", "1,1"],
        ["scaling-bench", "--dim", "2", "--seeds", "1,2"],
    ], ids=["negative-seed", "negative-data-seed", "no-seed", "repeated-seed", "scaling-two-seeds"])
    def test_bad_seeds_are_a_one_line_config_error(self, tmp_path, capsys, argv):
        assert main(argv + ["--rounds", "2", "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    def test_out_of_memory_is_a_one_line_error(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 EiB for an array")

        monkeypatch.setattr(cli, "uniform_returns", exhausted)
        assert main(["ops-game", "--dim", "2", "--rounds", "5",
                     "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 8.00 EiB for an array\n"


def stable_artifacts(run_dir: Path) -> dict[str, bytes]:
    """Every artifact but the manifest and the wall-clock sidecars."""
    return {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())
            if p.name != "manifest.json" and not p.name.endswith("_times.json")}


def test_ml_run_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The oracle's, the comparator's and the likelihood's BLAS reductions give
    the same bits on one BLAS thread and on two, so every CSV and matrix
    artifact of ml-run and ops-game does."""
    src = str(Path(cli.__file__).resolve().parents[1])
    cases = {
        "ml-run": (["--qubits", "3", "--shots", "4000", "--rounds", "300", "--seeds", "0"],
                   {"ml_seed0.csv", "rho_hat_oracle.json", "rho_bar_seed0.json"}),
        "ops-game": (["--dim", "16", "--rounds", "5000", "--seeds", "0"], {"ops_seed0.csv"}),
    }
    for command, (args, expected) in cases.items():
        runs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"{command}-threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            subprocess.run([sys.executable, "-m", "qsoftbayes.cli", command, *args,
                            "--out", str(out)],
                           env=env, check=True, capture_output=True, timeout=300)
            runs[threads] = stable_artifacts(out)
        assert expected <= runs["1"].keys(), command
        assert runs["1"] == runs["2"], command
