import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from qsoftbayes import cli, ensembles, linalg, portfolio, qsb, tomography
from qsoftbayes.cli import (
    ConfigError,
    ExperimentConfig,
    MAX_DIM,
    MAX_QUBITS,
    MAX_ROUNDS,
    MAX_SHOTS,
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
from qsoftbayes.linalg import DomainError, ValidationError, validate_density
from qsoftbayes.portfolio import best_fixed_portfolio, ops_regret_bound, run_ops_game
from qsoftbayes.serialize import (
    format_cell,
    format_column,
    load_dataset,
    load_matrix,
    load_payload,
    save_dataset,
    save_matrix,
)
from qsoftbayes.tomography import Dataset, generate_dataset, pauli_basis_povms

from reference_records import pairs


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


# The manifest fields every run writes, then each run's own fields and the
# phases its `phase_seconds` times.
MANIFEST_KEYS = {"kind", "config", "config_sha256", "rng", "package_version", "numpy_version",
                 "threads", "peak_rss_mb", "mode", "elapsed_seconds", "wallclock_utc",
                 "phase_seconds"}
THREAD_KEYS = {"nproc", "affinity_cpus", "blas", "blas_version", "blas_threads_env",
               "blas_threads_queried"}
ML_MANIFEST = ({"oracle_objective", "oracle_cert_gap", "oracle_iterations", "oracle_restarts",
                "oracle_backtracks", "records",
                "distinct_records", "seed_summaries", "mean_final_gap", "error_bound",
                "learner_round_us", "learner_rounds"},
               {"imports", "dataset", "save_dataset", "oracle", "learners", "write"})
MODE_MANIFESTS = {
    "ops-game": ({"seed_summaries"}, {"imports", "returns", "game", "comparator", "write"}),
    "qst-game": ({"seed_summaries", "step_ns_median", "step_ns_mean", "step_ns_p90",
                  "learner_rounds"}, {"imports", "dataset", "game", "oracle", "write"}),
    "ml-run": ML_MANIFEST,
    "ml-run-from-file": ML_MANIFEST,
    "scaling-bench": ({"scaling"}, {"imports", "d2", "d4"}),
}


@pytest.mark.parametrize("name", sorted(MODE_MANIFESTS))
def test_each_mode_writes_its_manifest_keys_and_phases(tmp_path, run_cli, dataset_file, name):
    """Every run mode's manifest has the same shape: the shared fields with
    the thread setup, its own fields and the seconds of each of its phases."""
    out = tmp_path / "run"
    argv = [arg.format(input=dataset_file) for arg in RUNS[name]]
    assert run_cli(argv + ["--out", str(out)]) == 0
    manifest = load_payload(out / "manifest.json")
    fields, phases = MODE_MANIFESTS[name]
    assert set(manifest) == MANIFEST_KEYS | fields
    assert set(manifest["threads"]) == THREAD_KEYS
    assert manifest["threads"]["nproc"] == os.cpu_count()
    assert 0.0 < manifest["peak_rss_mb"] < 1024.0
    assert set(manifest["phase_seconds"]) == phases
    assert all(seconds >= 0.0 for seconds in manifest["phase_seconds"].values())
    # the oracle's certificate and counts: the run's, or each qst-game seed's
    oracles = (manifest["seed_summaries"] if name == "qst-game"
               else [manifest] if name.startswith("ml-run") else [])
    for record in oracles:
        assert record["oracle_cert_gap"] <= 1e-7
        for count in ("iterations", "restarts", "backtracks"):
            assert isinstance(record[f"oracle_{count}"], int) and record[f"oracle_{count}"] >= 0
    # the learners' cost per round, and each learner's exit state
    if name.startswith("ml-run"):
        rounds = int(manifest["config"]["rounds"])
        assert manifest["learner_round_us"] == manifest["phase_seconds"]["learners"] / rounds * 1e6
    # the rounds by block kind, of the run's one lockstep game
    kinds = [manifest["learner_rounds"]] if name.startswith(("ml-run", "qst-game")) else []
    for counts in kinds:
        assert set(counts) == {"rank_one", "general", "mixed"}
        assert sum(counts.values()) == int(manifest["config"]["rounds"])
    if name in ("qst-game", "ml-run", "ml-run-from-file"):
        for summary in manifest["seed_summaries"]:
            assert 0.0 < summary["final_min_eig"] < 1.0
            assert 0.0 < summary["final_true_trace"] <= 1.0


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
            self.cfg(mode="scaling-bench", dims=(16, 16)),  # a ratio from 16 to 16
            self.cfg(rounds=0),
            self.cfg(rounds=MAX_ROUNDS + 1),
            self.cfg(shots=0),
            self.cfg(mode="ml-run", dims=(4,), shots=MAX_SHOTS + 1),
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

    @pytest.mark.parametrize("content", [
        b"mode=ops-game\ndim=\xff\n",
        b'{"config": ' + b"[" * 10**5 + b"]" * 10**5 + b"}",
        b'{"config": {"mode": "ops-game", "rounds": ' + b"9" * 5000 + b"}}",
    ], ids=["not-utf-8", "nested-too-deep", "too-many-digits"])
    def test_an_unreadable_file_exits_2_with_one_line(self, tmp_path, capsys, content):
        path = tmp_path / "run.cfg"
        path.write_bytes(content)
        assert main(["ops-game", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: ") and err.count("\n") == 1
        assert not (tmp_path / "run").exists()

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
        comparator = best_fixed_portfolio(uniform_returns(make_rng(1), 40, 3))
        for count in ("iterations", "restarts", "backtracks"):
            assert summary[f"comparator_{count}"] == getattr(comparator, count)

    def test_report_equals_the_row_by_row_reference(self, tmp_path):
        """The report is `format_cell` of each round's values, the bound taken
        by one scalar `ops_regret_bound` call per round."""
        returns = uniform_returns(make_rng(3), 500, 4)
        transcript = run_ops_game(returns)
        weights = best_fixed_portfolio(returns).weights
        write_ops_report(tmp_path / "ops.csv", transcript.losses, returns, weights,
                         format_column(ops_regret_bound(4, np.arange(1, 501))))
        cum = transcript.cumulative_losses
        comp_cum = np.cumsum(-np.log(returns @ weights))
        lines = [",".join(OPS_COLUMNS)] + [
            ",".join(format_cell(v) for v in (t + 1, transcript.losses[t], cum[t], comp_cum[t],
                                              cum[t] - comp_cum[t], ops_regret_bound(4, t + 1)))
            for t in range(500)
        ]
        assert (tmp_path / "ops.csv").read_text() == "\n".join(lines) + "\n"

    def test_each_seed_writes_what_it_writes_alone(self, tmp_path, run_cli):
        """Seeds stepped in lockstep, each stream a view of one seed-major
        stack at an offset of T * D floats (odd here), give the bytes of
        single-seed runs."""
        args = ["ops-game", "--dim", "3", "--rounds", "301"]
        assert run_cli(args + ["--seeds", "0,1,2", "--out", str(tmp_path / "all")]) == 0
        for seed in (0, 1, 2):
            alone = tmp_path / f"seed{seed}"
            assert run_cli(args + ["--seeds", str(seed), "--out", str(alone)]) == 0
            name = f"ops_seed{seed}.csv"
            assert (tmp_path / "all" / name).read_bytes() == (alone / name).read_bytes()
            summaries = [load_payload(d / "manifest.json")["seed_summaries"]
                         for d in (tmp_path / "all", alone)]
            assert summaries[0][seed] == summaries[1][0]

    def test_the_bound_column_is_computed_once_per_run(self, tmp_path, run_cli, monkeypatch):
        """One vector `ops_regret_bound` call gives every seed's bound column
        and its manifest `regret_bound`."""
        calls = []
        bound = portfolio.ops_regret_bound
        monkeypatch.setattr(portfolio, "ops_regret_bound",
                            lambda dim, rounds: calls.append(np.ndim(rounds)) or bound(dim, rounds))
        out = tmp_path / "run"
        assert run_cli(["ops-game", "--dim", "3", "--rounds", "50", "--seeds", "0,1,2",
                        "--out", str(out)]) == 0
        assert calls == [1]
        for summary in load_payload(out / "manifest.json")["seed_summaries"]:
            assert summary["regret_bound"] == ops_regret_bound(3, 50)

    def test_each_stream_is_checked_once(self, tmp_path, run_cli, monkeypatch):
        checked = []
        check = portfolio.validate_return_stream
        monkeypatch.setattr(portfolio, "validate_return_stream",
                            lambda r: checked.append(r.shape) or check(r))
        assert run_cli(["ops-game", "--dim", "2", "--rounds", "7", "--seeds", "3,1",
                        "--out", str(tmp_path / "run")]) == 0
        assert checked == [(7, 2), (7, 2)]

    def test_manifest_records_phase_seconds(self, tmp_path, run_cli):
        out = tmp_path / "run"
        assert run_cli(["ops-game", "--dim", "2", "--rounds", "9", "--seeds", "0,1",
                        "--out", str(out)]) == 0
        phases = load_payload(out / "manifest.json")["phase_seconds"]
        assert set(phases) == {"imports", "returns", "game", "comparator", "write"}
        assert all(seconds >= 0.0 for seconds in phases.values())
        header, _ = read_csv(out / "ops_seed0.csv")
        assert header == OPS_COLUMNS

    def test_degenerate_payoff_names_the_seed_and_the_round(self, tmp_path, capsys, monkeypatch):
        """Seed 5's stream pays only on the first asset for 60 rounds, which
        drives the second asset's weight to 0 at eta = 0.999999, and then
        only on the second."""
        def returns(rng, rounds, dim, out):
            out[:] = 0.5
            if rng.bit_generator.seed_seq.entropy == 5:
                out[:, 1] = 0.0
                out[60:] = [0.0, 1.0]
            return out

        monkeypatch.setattr(ensembles, "uniform_returns", returns)
        out = tmp_path / "run"
        assert main(["ops-game", "--dim", "2", "--rounds", "80", "--seeds", "4,5",
                     "--eta", "0.999999", "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            "error: seed 5, round 61: degenerate return: <a, w> = 0.0\n"
        assert not out.exists()

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
        sidecar = json.loads((out / "qst_times.json").read_text())
        assert len(sidecar["step_times_ns"]) == 30
        assert all(isinstance(x, int) and x >= 0 for x in sidecar["step_times_ns"])

        manifest = load_payload(out / "manifest.json")
        assert manifest["step_ns_median"] > 0
        assert manifest["seed_summaries"][0]["final_true_trace"] <= 1.0 + 1e-9

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

    def test_from_file_plays_one_game_for_every_seed(self, tmp_path, run_cli, monkeypatch,
                                                     dataset_file):
        calls = {"_qst_game": 0, "_ml_oracle": 0}
        for module, name in ((qsb, "_qst_game"), (tomography, "_ml_oracle")):
            def counted(*args, name=name, fn=getattr(module, name), **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        out = tmp_path / "run"
        assert run_cli(["qst-game", "--dim", "2", "--rounds", "12", "--seeds", "0,1,2",
                        "--povm", "from-file", "--input", str(dataset_file),
                        "--out", str(out)]) == 0
        assert calls == {"_qst_game": 1, "_ml_oracle": 1}
        for name in ("qst_seed{}.csv", "rho_bar_seed{}.json"):
            assert len({(out / name.format(seed)).read_bytes() for seed in (0, 1, 2)}) == 1
        summaries = load_payload(out / "manifest.json")["seed_summaries"]
        assert [s["seed"] for s in summaries] == [0, 1, 2]
        assert len({s["regret"] for s in summaries}) == 1

    def test_generated_seeds_play_one_lockstep_game(self, tmp_path, run_cli, monkeypatch):
        """All seeds' streams are played in one `_qst_game` call, each named by
        its seed; each seed's stream has its own oracle, and the run's one
        sidecar holds the game's round times."""
        played, game = [], qsb._qst_game
        monkeypatch.setattr(qsb, "_qst_game", lambda *args: played.append(args[4:]) or game(*args))
        oracles, oracle = [], tomography._ml_oracle
        monkeypatch.setattr(tomography, "_ml_oracle",
                            lambda data, **kwargs: oracles.append(data) or oracle(data, **kwargs))
        out = tmp_path / "run"
        assert run_cli(["qst-game", "--dim", "2", "--rounds", "40", "--seeds", "0,1,2",
                        "--povm", "random-rank1", "--out", str(out)]) == 0
        assert played == [(["seed 0: ", "seed 1: ", "seed 2: "],)]
        assert len(oracles) == len({id(data) for data in oracles}) == 3
        assert sorted(p.name for p in out.glob("*_times.json")) == ["qst_times.json"]
        sidecar = json.loads((out / "qst_times.json").read_text())
        assert len(sidecar["step_times_ns"]) == 40

    @pytest.mark.parametrize("model", [["--dim", "4", "--povm", "random-rank1"],
                                       ["--qubits", "2", "--povm", "pauli-basis"]])
    def test_each_seed_writes_what_it_writes_alone(self, tmp_path, run_cli, model):
        """Three seeds in lockstep, played in blocks of 170 rounds, give the
        bytes and summaries of single-seed runs, played in blocks of 512."""
        assert linalg._block_len(4, 3) == 170 and linalg._block_len(4) == 512
        args = ["qst-game", *model, "--rounds", "600"]
        assert run_cli(args + ["--seeds", "0,1,2", "--out", str(tmp_path / "all")]) == 0
        for seed in (0, 1, 2):
            alone = tmp_path / f"seed{seed}"
            assert run_cli(args + ["--seeds", str(seed), "--out", str(alone)]) == 0
            for name in (f"qst_seed{seed}.csv", f"rho_bar_seed{seed}.json"):
                assert (tmp_path / "all" / name).read_bytes() == (alone / name).read_bytes()
            summaries = [load_payload(d / "manifest.json")["seed_summaries"]
                         for d in (tmp_path / "all", alone)]
            assert summaries[0][seed] == summaries[1][0]

    # passes the dataset check (min eigenvalue -5e-11), but at eta near 1 its
    # G = (1 - eta) I + (eta / c) A has a negative eigenvalue
    BAD = np.diag([-5e-11, 1.0]).astype(complex)

    def test_a_domain_error_names_the_first_failing_seed(self, tmp_path, capsys, monkeypatch):
        """Seeds 1 and 2 both fail at round 3; the error names seed 1, the
        first in the stack, and no directory is left."""
        def stream(rng, rounds, dim):
            records = np.array([np.eye(dim)] * rounds, dtype=complex)
            if rng.bit_generator.seed_seq.entropy in (1, 2):
                records[2] = self.BAD
            return records

        monkeypatch.setattr(ensembles, "rank1_observation_stream", stream)
        out = tmp_path / "run"
        assert main(["qst-game", "--dim", "2", "--rounds", "6", "--seeds", "0,1,2",
                     "--povm", "random-rank1", "--eta", "0.999999999999",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: round 3: seed 1: eigenvalue ")
        assert err.endswith(" of G is outside the domain of log\n")
        assert not out.exists()

    def test_a_from_file_domain_error_names_no_seed(self, tmp_path, capsys):
        """A from-file input is one stream for every seed, so its error names none."""
        records = np.array([np.eye(2)] * 6, dtype=complex)
        records[2] = self.BAD
        src = tmp_path / "stream.json"
        save_dataset(src, Dataset(matrices=records))
        assert main(["qst-game", "--dim", "2", "--rounds", "6", "--seeds", "0,1",
                     "--povm", "from-file", "--input", str(src), "--eta", "0.999999999999",
                     "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: round 3: eigenvalue ")
        assert err.endswith(" of G is outside the domain of log\n")

    def test_from_file_stream_too_short(self, tmp_path, capsys):
        rho = random_density(make_rng(1), 2)
        data = generate_dataset(rho, pauli_basis_povms(1), 5, make_rng(1))
        src = tmp_path / "stream.json"
        save_dataset(src, data)
        code = main(["qst-game", "--dim", "2", "--rounds", "10", "--povm", "from-file",
                     "--input", str(src), "--out", str(tmp_path / "run")])
        assert code == 2
        assert "need 10" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_from_file_stream_of_another_dimension(self, tmp_path, capsys, dataset_file):
        out = tmp_path / "run"
        code = main(["qst-game", "--dim", "4", "--rounds", "10", "--povm", "from-file",
                     "--input", str(dataset_file), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == \
            f"config error: {dataset_file} has dimension 2, need 4\n"
        assert not out.exists()


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
        assert set(phases) == {"imports", "dataset", "save_dataset", "oracle", "learners",
                               "write"}
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

    @pytest.mark.parametrize("provenance", [True, False], ids=["provenance", "no-provenance"])
    def test_from_file_dataset_is_stored_byte_for_byte(self, tmp_path, run_cli, provenance):
        """The stored dataset.json is the bytes of a from-file input that
        save_dataset wrote, provenance and the signs of zeros included."""
        data = generate_dataset(random_density(make_rng(2), 2), pauli_basis_povms(1), 40,
                                make_rng(2))
        if not provenance:
            data = Dataset(matrices=data.matrices)
        src = tmp_path / "data.json"
        save_dataset(src, data)
        out = tmp_path / "run"
        assert run_cli(["ml-run", "--dim", "2", "--povm", "from-file", "--input", str(src),
                        "--rounds", "16", "--seeds", "0", "--out", str(out)]) == 0
        assert (out / "dataset.json").read_bytes() == src.read_bytes()

    def test_from_file_dataset_keeps_signed_zeros_byte_for_byte(self, tmp_path, run_cli):
        """Records that differ only in the sign of a zero stay distinct elements."""
        zero = np.diag([1.0, 0.0]).astype(complex)
        signed = zero.copy()
        signed[0, 1] = signed[1, 0] = complex(-0.0, -0.0)
        src = tmp_path / "data.json"
        save_dataset(src, Dataset(matrices=np.array([zero, signed, np.diag([0.0, 1.0]), signed])))
        out = tmp_path / "run"
        assert run_cli(["ml-run", "--dim", "2", "--povm", "from-file", "--input", str(src),
                        "--rounds", "8", "--seeds", "0", "--out", str(out)]) == 0
        assert (out / "dataset.json").read_bytes() == src.read_bytes()
        assert len(load_dataset(out / "dataset.json").elements) == 3

    def test_from_file_dataset_of_another_dimension(self, tmp_path, capsys, dataset_file):
        out = tmp_path / "run"
        code = main(["ml-run", "--qubits", "3", "--povm", "from-file", "--input",
                     str(dataset_file), "--rounds", "8", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == \
            f"config error: {dataset_file} has dimension 2, need 8\n"
        assert not out.exists()


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
        assert report["draws_ahead"] is cli._draws_ahead()
        assert set(report["table"][0]) == {"dim", "rounds", "step_ns_median", "step_ns_mean",
                                           "step_ns_p90"}
        phases = load_payload(out / "manifest.json")["phase_seconds"]
        assert set(phases) == {"imports", "d2", "d4"}
        assert all(seconds >= 0.0 for seconds in phases.values())

    def test_draws_no_more_than_one_block_at_a_time(self, tmp_path, run_cli, monkeypatch):
        """Each dimension's stream is drawn a block of `_CHECK_BLOCK` entries
        at a time (512 rounds at D = 4, 2 at D = 64), never whole."""
        drawn = []
        draw = ensembles._psd_block

        def recorded(rng, rounds, dim):
            drawn.append((dim, rounds))
            return draw(rng, rounds, dim)

        monkeypatch.setattr(ensembles, "_psd_block", recorded)
        assert run_cli(["scaling-bench", "--dim", "4,64", "--rounds", "1025", "--seeds", "3",
                        "--out", str(tmp_path / "run")]) == 0
        for dim in (4, 64):
            counts = [rounds for d, rounds in drawn if d == dim]
            assert max(counts) <= linalg._block_len(dim)
            assert sum(counts) == 1025
        assert linalg._block_len(4) == 512 and linalg._block_len(64) == 2

    @pytest.mark.parametrize("ahead", [False, True])
    def test_decomposes_each_observation_once(self, tmp_path, run_cli, monkeypatch, ahead):
        """At D = 64 the 5 rounds are blocks of 2, 2 and 1. One stacked `eigh`
        per block both scales its draws and feeds the learner; each round adds
        one `eigh` of the (1, D, D) accumulator. No `eigvalsh` is called.
        Drawn ahead, the blocks' `eigh`s run on the drawing thread and the
        rounds' on the calling one; else all run on the calling thread, in turn."""
        calls = {"eigh": [], "eigvalsh": []}
        for name in calls:
            def counted(M, *args, name=name, fn=getattr(np.linalg, name), **kwargs):
                calls[name].append((threading.get_ident(), M.shape))
                return fn(M, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        monkeypatch.setattr(cli, "_draws_ahead", lambda: ahead)
        assert run_cli(["scaling-bench", "--dim", "64", "--rounds", "5", "--seeds", "3",
                        "--out", str(tmp_path / "run")]) == 0
        here = threading.get_ident()
        pair, one = (2, 64, 64), (1, 64, 64)
        drawing = [shape for ident, shape in calls["eigh"] if ident != here]
        learning = [shape for ident, shape in calls["eigh"] if ident == here]
        if ahead:
            assert drawing == [pair, pair, one]
            assert learning == [one] * 5
        else:
            assert drawing == []
            assert learning == [pair, one, one, pair, one, one, one, one]
        assert calls["eigvalsh"] == []

    @pytest.mark.parametrize("threads, cpus, ahead", [(1, 2, True), (2, 2, False),
                                                      (None, 2, False), (1, 1, False)])
    def test_draws_ahead_only_on_a_one_thread_openblas_with_a_second_cpu(
            self, monkeypatch, threads, cpus, ahead):
        from qsoftbayes import serialize

        monkeypatch.setattr(serialize, "_openblas_threads", lambda: threads)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert cli._draws_ahead() is ahead

    @pytest.mark.parametrize("dim, rounds", [(4, 1025), (64, 5)])
    def test_drawing_on_a_second_thread_keeps_the_games_bits(self, monkeypatch, dim, rounds):
        """The game equals, bit for bit, the same game drawing each block on the
        calling thread, also over a last block shorter than the rest, with the
        interpreter switching threads as often as it can."""
        assert rounds % linalg._block_len(dim) == 1
        played, game = [], qsb._qst_game
        monkeypatch.setattr(qsb, "_qst_game", lambda *args: played.append(game(*args)) or played[-1])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            cli._scaling_row(ExperimentConfig(mode="scaling-bench", dims=(dim,), rounds=rounds), 3,
                             dim, True)
        finally:
            sys.setswitchinterval(interval)
        rng = make_rng(3)

        def draw(start, stop):
            H, mu, U = ensembles._psd_block(rng, stop - start, dim)
            return qsb._records(H[:, None], mu[:, None], U[:, None])

        (alone,) = game(draw, rounds, dim, None)
        ((drawn_ahead,),) = played
        for name in ("losses", "true_traces", "min_eigs", "average_state"):
            assert getattr(drawn_ahead, name).tobytes() == getattr(alone, name).tobytes(), name

    def test_draws_each_block_once_in_order_and_ahead_of_the_learner(self, monkeypatch):
        """`_psd_block` is entered once per block, in block order, never while
        another draw runs, and block 2's draw runs while block 1 plays: it
        waits for the learner's first step, which waits for it to be entered.
        A draw made before or after block 1's rounds leaves one of the two
        waiting out its timeout."""
        dim, rounds = 64, 9
        stream = ensembles.psd_observation_stream(make_rng(3), rounds, dim)
        lock, running, most = threading.Lock(), [0], [0]
        drawn, second, stepped, overlapped = [], threading.Event(), threading.Event(), []
        draw = ensembles._psd_block

        def recorded(rng, n, d):
            with lock:
                running[0] += 1
                most[0] = max(most[0], running[0])
            if len(drawn) == 1:
                second.set()
                overlapped.append(stepped.wait(timeout=10))
            try:
                time.sleep(0.005)  # widen the window a second draw would enter
                block = draw(rng, n, d)
            finally:
                with lock:
                    running[0] -= 1
            drawn.append(block)
            return block

        waited, eigh = [], np.linalg.eigh

        def learner_eigh(M, *args, **kwargs):
            if threading.current_thread() is threading.main_thread() and not waited:
                waited.append(second.wait(timeout=10))
                stepped.set()
            return eigh(M, *args, **kwargs)

        served, game = [], qsb._qst_game

        def watched(draw_block, *args):
            def serve(start, stop):
                served.append((start, stop, draw_block(start, stop)))
                return served[-1][2]
            return game(serve, *args)

        monkeypatch.setattr(ensembles, "_psd_block", recorded)
        monkeypatch.setattr(np.linalg, "eigh", learner_eigh)
        monkeypatch.setattr(qsb, "_qst_game", watched)
        cli._scaling_row(ExperimentConfig(mode="scaling-bench", dims=(dim,), rounds=rounds), 3, dim,
                         True)
        assert waited == overlapped == [True]
        assert most == [1]
        assert [(start, stop) for start, stop, _ in served] == [(0, 2), (2, 4), (4, 6), (6, 8),
                                                                 (8, 9)]
        assert len(drawn) == len(served)
        for block, (start, stop, given) in zip(drawn, served):
            assert given.A.base is block[0]  # the drawn stack, given the learner axis
            assert given.A[:, 0].tobytes() == stream[start:stop].tobytes()

    def test_a_failed_draw_raises_when_its_block_comes_up(self, monkeypatch):
        """Block 2's draw fails at once on the drawing thread. Its error is
        raised here, message unchanged, after block 1's two rounds were
        played; no later block is drawn and no thread is left running."""
        drawn, draw = [], ensembles._psd_block

        def failing(rng, n, d):
            drawn.append(n)
            if len(drawn) == 2:
                raise ValidationError("draw 2: A is not positive semidefinite")
            return draw(rng, n, d)

        steps, eigh = [], np.linalg.eigh

        def learner_eigh(M, *args, **kwargs):
            if threading.current_thread() is threading.main_thread():
                steps.append(M.shape)
            return eigh(M, *args, **kwargs)

        monkeypatch.setattr(ensembles, "_psd_block", failing)
        monkeypatch.setattr(np.linalg, "eigh", learner_eigh)
        before = threading.active_count()
        with pytest.raises(ValidationError) as raised:
            cli._scaling_row(ExperimentConfig(mode="scaling-bench", dims=(64,), rounds=7), 3, 64,
                             True)
        assert str(raised.value) == "draw 2: A is not positive semidefinite"
        assert steps == [(1, 64, 64)] * 2
        assert drawn == [2, 2]
        assert threading.active_count() == before

    def test_a_learner_error_propagates_and_waits_for_the_draw(self, monkeypatch):
        """The learner's third step fails while block 3's draw is still
        running: its `DomainError` propagates, and the draw was joined."""
        draw, slow = ensembles._psd_block, threading.Event()

        def sleepy(rng, n, d):
            block = draw(rng, n, d)
            if slow.is_set():
                time.sleep(0.2)
            return block

        steps, eigh = [], np.linalg.eigh

        def learner_eigh(M, *args, **kwargs):
            if threading.current_thread() is threading.main_thread():
                steps.append(M.shape)
                if len(steps) == 2:
                    slow.set()
                if len(steps) == 3:
                    raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(M, *args, **kwargs)

        monkeypatch.setattr(ensembles, "_psd_block", sleepy)
        monkeypatch.setattr(np.linalg, "eigh", learner_eigh)
        before = threading.active_count()
        with pytest.raises(DomainError, match="^round 3: eigendecomposition failed: Eigenvalues did not"):
            cli._scaling_row(ExperimentConfig(mode="scaling-bench", dims=(64,), rounds=7), 3, 64,
                             True)
        assert threading.active_count() == before

    def test_a_repeated_dimension_is_refused(self, tmp_path, capsys):
        """A ratio "from 16 to 16" means nothing: one config error line and no directory."""
        out = tmp_path / "run"
        assert main(["scaling-bench", "--dim", "16,16", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: dimensions must be distinct, got (16, 16)\n"
        assert not out.exists()


# The wall-clock sidecars, and a run that writes each (test_serialize.py
# covers the CSV, container and manifest writers)
SIDECARS = {"qst_times.json": RUNS["qst-game"], "scaling_times.json": RUNS["scaling-bench"]}


@pytest.mark.parametrize("name", sorted(SIDECARS))
def test_a_failed_sidecar_write_leaves_the_earlier_file_and_no_part(tmp_path, monkeypatch,
                                                                    capsys, name):
    """A sidecar, like every artifact, is written under `.part` and renamed
    into place: when the rename fails, the earlier run's file keeps its
    bytes, and the run ends in one error line with no `.part` left behind."""
    out = tmp_path / "run"
    argv = SIDECARS[name] + ["--out", str(out)]
    assert main(argv) == 0
    before = out.joinpath(name).read_bytes()
    replace = Path.replace

    def failing(self, target):
        if Path(target).name == name:
            raise OSError(f"cannot rename onto {name}")
        return replace(self, target)

    monkeypatch.setattr(Path, "replace", failing)
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: cannot rename onto {name}\n"
    assert out.joinpath(name).read_bytes() == before
    assert list(out.glob("*.part")) == []


def test_the_manifest_peak_is_the_runs_own_after_exec(tmp_path):
    """`peak_rss_mb` is the process's own `VmHWM`, which `exec` resets: a run
    exec'd from a parent that touched 200 MiB reports its own smaller peak
    (`ru_maxrss` would keep the parent's)."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "run"
    argv = [sys.executable, "-m", "qsoftbayes.cli", *RUNS["ops-game"], "--out", str(out)]
    code = ("import os, sys; ballast = bytearray(b'x') * (200 << 20); "
            f"os.execv(sys.executable, {argv!r})")
    subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True,
                   timeout=120)
    assert 0.0 < load_payload(out / "manifest.json")["peak_rss_mb"] < 150.0


# a dataset file with two 1 x 1 records of one element: dim, n, povm_indices
DATASET = (b'{"kind": "dataset", "dim": %s, "n": %s, "has_provenance": true,'
           b' "elements": [[[1.0, 0.0]]], "index": [0, 0], "povm_indices": %s,'
           b' "outcome_indices": [0, 0]}')


class TestValidateMode:

    def test_matrix_report(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        save_matrix(path, random_density(make_rng(3), 2))
        assert main(["validate", str(path)]) == 0
        report = capsys.readouterr().out
        assert "kind: matrix" in report
        assert "valid density" in report
        assert "all checks passed" in report

    @pytest.mark.parametrize("diagonal, verdict", [((0.25, 0.75), "1 (valid density)"),
                                                    ((0.5, 0.75), "1.25 (not a density)")])
    def test_matrix_is_checked_in_one_stacked_pass(self, tmp_path, capsys, monkeypatch,
                                                   diagonal, verdict):
        checked = []
        check = linalg._hermitian_psd
        monkeypatch.setattr(linalg, "_hermitian_psd",
                            lambda M, *args: checked.append(M.shape) or check(M, *args))
        path = tmp_path / "m.json"
        save_matrix(path, np.diag(diagonal))
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"file: {path}", "kind: matrix", "dim: 2", "hermitian: ok", "psd: ok",
            f"trace: {verdict}", "all checks passed"]
        assert checked == [(1, 2, 2)]

    def test_dataset_report(self, tmp_path, capsys):
        rho = random_density(make_rng(4), 2)
        path = tmp_path / "d.json"
        data = generate_dataset(rho, pauli_basis_povms(1), 9, make_rng(4))
        save_dataset(path, data)
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"file: {path}", "kind: dataset", "dim: 2", "records: 9",
            f"distinct: {len(data.elements)}", "provenance: yes",
            "records hermitian, psd, nonzero: ok", "all checks passed"]

    def test_a_return_stream_is_an_unrecognized_kind(self, tmp_path, capsys):
        """No mode reads a return-stream container any more."""
        path = tmp_path / "r.json"
        path.write_text('{"kind": "return-stream", "rounds": 1, "dim": 2, "rows": [[0.5, 0.5]]}')
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr() == ("", "error: unrecognized container kind 'return-stream'\n")

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
        (["validate"], b'{"kind": "dataset", "dim": 1, "elements": [[[1.0, 0.0]]], "index": [0]}'),
        (["validate"], b'{"kind": "matrix", "entries": [[1.0, 0.0]]}'),
        (["validate"], b'{"kind": "dataset", "dim": 1, "n": 2, "index": [0, 1],'
                       b' "elements": [[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]}'),
        (["validate"], b'{"kind": "matrix", "dim": 1, "entries": [["0.5", 0.0]]}'),
        (["validate"], b'\xff\xfe{"kind": "matrix"}'),
        (["validate"], DATASET % (b'1', b'2', b'["x", "y"]')),
        (["validate"], DATASET % (b'1', b'2', b'[[1, 2]]')),
        (["validate"], DATASET % (b'1', b'2', b'[1.5, 0]')),
        (["validate"], DATASET % (b'true', b'2', b'[0, 0]')),
        (["validate"], DATASET % (b'1', b'true', b'[0, 0]')),
        (["validate"], DATASET % (b'10000000', b'2', b'[0, 0]')),
        (["validate"], b'{"kind": "dataset", "dim": 1, "n": 1, "elements": [[[1, 0]]], "index": [1]}'),
        (["validate"], b'{"kind": "dataset", "dim": 1, "n": 1, "index": [0],'
                       b' "elements": [[[1' + b'0' * 5000 + b', 0]]]}'),
        (["validate"], b'[' * 100000),
        (["validate"], b'{"kind": "matrix", "dim": 1, "entries": [[true, false]]}'),
        (["validate"], b'{"kind": "dataset", "dim": 1, "n": 2, "index": [0, 1],'
                       b' "elements": [[[1.0, 0.0]], [[1.0, false]]]}'),
        (["validate"], b'{"kind": "dataset", "dim": 1, "n": 1, "elements": [[[true, false]]], "index": [0]}'),
    ], ids=["argv0", "argv1", "no-n", "no-dim", "ragged-rows", "string-entry", "not-utf8",
            "provenance-strings", "provenance-2d", "provenance-float", "dim-bool", "n-bool",
            "dim-huge", "index-past-the-end", "int-over-digit-limit", "nested-too-deep",
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

    @pytest.mark.parametrize("argv", [["validate"],
                                      ["ml-run", "--dim", "2", "--povm", "from-file", "--input"],
                                      ["qst-game", "--dim", "2", "--povm", "from-file", "--input"]])
    def test_a_per_record_file_is_a_one_line_error(self, tmp_path, capsys, argv):
        """The per-record form that earlier versions wrote, one `matrices`
        block per record, is not read."""
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"kind": "dataset", "dim": 2, "n": 2, "has_provenance": False,
                                    "matrices": [pairs(np.eye(2))] * 2}))
        out = ["--out", str(tmp_path / "run")] if argv[0] != "validate" else []
        assert main(argv + [str(path)] + out) == 1
        assert capsys.readouterr() == ("", "error: container record is missing 'elements'\n")
        assert not (tmp_path / "run").exists()


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
        ["ops-game", "--dim", "4", "--rounds", "99999999999999999999"],
        ["qst-game", "--dim", "4", "--povm", "random-rank1", "--rounds", "99999999999999999999"],
        ["ml-run", "--qubits", "2", "--shots", "10", "--rounds", "99999999999999999999"],
        ["ml-run", "--qubits", "2", "--shots", "99999999999999999999", "--rounds", "2"],
        ["scaling-bench", "--dim", "4", "--rounds", str(MAX_ROUNDS + 1)],
    ], ids=["ops-game", "qst-game", "ml-run-rounds", "ml-run-shots", "scaling-bench"])
    def test_oversized_rounds_or_shots_are_a_one_line_config_error(self, tmp_path, capsys,
                                                                  argv):
        """Refused against MAX_ROUNDS and MAX_SHOTS before any directory is
        made, not by a traceback after the dataset was written."""
        out = tmp_path / "run"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert f"must be in [1, {MAX_ROUNDS}]" in err  # MAX_SHOTS is the same bound
        assert not out.exists()

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

    @pytest.mark.parametrize("mode", ["qst-game", "ml-run"])
    def test_pauli_basis_above_the_qubit_cap_is_a_one_line_config_error(self, tmp_path, capsys,
                                                                        monkeypatch, mode):
        monkeypatch.setattr(cli, "MAX_PAULI_QUBITS", 1)
        out = tmp_path / "run"
        assert main([mode, "--qubits", "2", "--rounds", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "config error: pauli-basis takes at most 1 qubits (D = 2), got D = 4\n"
        assert not out.exists()
        validate_config(ExperimentConfig(mode=mode, dims=(2,)))
        if mode == "qst-game":  # the cap is on the Pauli POVMs, not on the dimension
            validate_config(ExperimentConfig(mode=mode, dims=(4,), povm="random-rank1"))

    @pytest.mark.parametrize("mode", ["qst-game", "ml-run"])
    @pytest.mark.parametrize("content", [b"{{{{", b'{"kind": "matrix", "dim": 1, "entries": [[1, 0]]}'],
                             ids=["not-json", "not-a-dataset"])
    def test_a_bad_input_file_leaves_no_directory_the_run_made(self, tmp_path, capsys, mode,
                                                              content):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        out = tmp_path / "runs" / "run"
        assert main([mode, "--dim", "2", "--rounds", "2", "--povm", "from-file",
                     "--input", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "runs").exists()

    def test_a_failed_run_keeps_a_directory_that_existed(self, tmp_path, capsys, dataset_file):
        out = tmp_path / "run"
        out.mkdir()
        assert main(["qst-game", "--dim", "4", "--rounds", "2", "--povm", "from-file",
                     "--input", str(dataset_file), "--out", str(out)]) == 2
        capsys.readouterr()
        assert out.is_dir()

    def test_a_run_that_fails_after_an_artifact_keeps_it(self, tmp_path, capsys, monkeypatch):
        def diverged(*args, **kwargs):
            raise DomainError("round 1: seed 0: diverged")

        monkeypatch.setattr(tomography, "stochastic_qsb", diverged)
        out = tmp_path / "run"
        assert main(["ml-run", "--qubits", "1", "--shots", "10", "--rounds", "2",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: round 1: seed 0: diverged\n"
        assert [p.name for p in out.iterdir()] == ["dataset.json"]

    def test_out_of_memory_is_a_one_line_error(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 EiB for an array")

        monkeypatch.setattr(ensembles, "uniform_returns", exhausted)
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
