import hashlib
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from causalcdr import cli, data, evaluation, matrixio, model

BASE_CONFIG = """
dataset.kind=synthetic
synth.n_users=80
synth.n_source_items=120
synth.n_target_items=110
synth.k=4
synth.target_density=0.03
synth.source_density=0.05
synth.attribute_shift=1.0
synth.seed=11
split.kind=iid
split.seed=11
train.k=4
train.epochs=2
train.batch_size=64
eval.ks=5,10
seeds=1,2
"""


def write_config(tmp_path, text=BASE_CONFIG, **extra):
    lines = [text.strip()]
    for key, value in extra.items():
        lines.append(f"{key}={value}")
    path = tmp_path / "exp.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


def append(path, text):
    path.write_text(path.read_text() + text)


def write_metrics(seed_dir, metrics):
    seed_dir.mkdir(parents=True, exist_ok=True)
    rows = [f"iid,{key.replace('@', ',')},{value!r},0.0," for key, value in metrics.items()]
    (seed_dir / "metrics_seed.csv").write_text(
        "# config_hash=0\nsetting,metric,k,mean,std,degradation_pct\n" + "\n".join(rows) + "\n")


def report_runs(tmp_path):
    """Stored seed metrics of an ood_attribute run and of its paired iid run,
    which differ in their split kind and mixes only."""
    runs = tmp_path / "runs"
    iid = cli.load_config(write_config(tmp_path))
    ood_config = tmp_path / "ood.cfg"
    ood_config.write_text(BASE_CONFIG.replace(
        "split.kind=iid", "split.kind=ood_attribute\nsplit.train_mix=0.8,0.2\n"
                          "split.test_mix=0.2,0.8"))
    for name, config, hr in (("iid", iid, 0.5), ("ood", cli.load_config(ood_config), 0.4)):
        (runs / name).mkdir(parents=True)
        (runs / name / "config.txt").write_text(cli.config_canonical_text(config))
        for seed in config.seeds:
            write_metrics(runs / name / f"seed_{seed}",
                          {f"{m}@{k}": hr for m in ("HR", "NDCG") for k in (5, 10)})
    return ood_config, runs


class TestConfigParsing:
    def test_round_trip_values(self, tmp_path):
        path = write_config(tmp_path, sparsity="0.5")
        config = cli.load_config(path)
        assert config.synth.n_users == 80
        assert config.train.epochs == 2
        assert config.seeds == (1, 2)
        assert config.sparsity_fraction == 0.5
        assert config.eval_ks == (5, 10)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path)
        path.write_text(path.read_text() + "train.bogus=1\n")
        with pytest.raises(cli.ConfigError, match="bogus"):
            cli.load_config(path)

    def test_bad_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("train.epochs=2\nnot a pair\n")
        with pytest.raises(cli.ConfigError, match="line 2"):
            cli.load_config(path)

    def test_split_mix_pairs(self, tmp_path):
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace("split.kind=iid",
                                                 "split.kind=ood_attribute\n"
                                                 "split.train_ratio=0.8,0.2\n"
                                                 "split.test_ratio=0.2,0.8"))
        config = cli.load_config(path)
        assert config.split.kind == "ood_attribute"
        assert config.split.train_mix == (0.8, 0.2)
        assert config.split.test_mix == (0.2, 0.8)

    def test_empty_seeds_rejected(self, tmp_path):
        path = write_config(tmp_path)
        with pytest.raises(ValueError):
            cli.parse_config_text(path.read_text() + "sparsity=1.5\n")

    def test_hash_stable_and_content_sensitive(self, tmp_path):
        config_a = cli.load_config(write_config(tmp_path))
        config_b = cli.load_config(write_config(tmp_path))
        assert cli.config_hash(config_a) == cli.config_hash(config_b)
        config_b.train.epochs = 3
        assert cli.config_hash(config_a) != cli.config_hash(config_b)

    def test_hash_is_pinned(self, tmp_path):
        # artifacts embed this hash; a schema change must not move it
        config = cli.load_config(write_config(tmp_path))
        assert cli.config_hash(config) == "d084e906f3057aa6"

    def test_hash_covers_csv_contents(self, tmp_path):
        for name in ("source.csv", "target.csv"):
            (tmp_path / name).write_text("user,item,rating\n1,2,5\n3,4,5\n")
        path = write_config(tmp_path, "dataset.kind=csv",
                            **{"dataset.source_path": str(tmp_path / "source.csv"),
                               "dataset.target_path": str(tmp_path / "target.csv")})
        config = cli.load_config(path)
        before = cli.config_hash(config)
        with open(tmp_path / "target.csv", "r+b") as fh:
            fh.seek(len("user,item,rating\n1,2,"))
            fh.write(b"4")
        assert cli.config_canonical_text(cli.load_config(path)) == \
            cli.config_canonical_text(config)
        assert cli.config_hash(config) != before

    def test_readme_example_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        config = cli.parse_config_text(block)
        assert config.split.train_mix == (0.8, 0.2)
        assert config.train.lambda_reg == 1e-5
        assert config.out_dir == "runs/experiment"

    @pytest.mark.parametrize("line", [
        "graph_threshold=abc", "graph_threshold=0", "seeds=", "seeds=a",
        "sparsity=x", "eval.ks=x", "eval.ks=0", "synth.weight_matrix=foo",
        # a repeated cutoff, which would name one metric twice in every report
        "eval.ks=5,5,10", "eval.ks=10,5,10",
        "train.epochs=0", "train.learning_rate=-1", "train.ablation=bogus",
        "train.optimizer=adamw", "split.ratios=1,2",
        # synthetic shapes and split requests the generator or splitter cannot honor
        "synth.n_users=-5", "synth.target_density=1e999", "synth.target_density=nan",
        "split.kind=ood_degree", "synth.k=0", "synth.n_edges=100",
        "synth.degree_spread=0", "synth.target_density=0.9999999", "split.kind=bogus",
        "split.ratios=-1,1,1", "split.ratios=nan,1,1", "split.train_mix=0.5,0.7",
        # non-finite synthetic settings that would leave the data without positives
        "synth.attribute_shift=nan", "synth.noise_scale=inf",
        "synth.source_map_correlation=nan",
        # second spellings that are no longer keys
        "eval_ks=5", "sparsity_fraction=0.5",
        # dataset columns that cannot name a column, and a threshold that is not finite
        "dataset.user_column=", "dataset.item_column=",
        "dataset.positive_threshold=nan", "dataset.positive_threshold=inf",
        # a path the file system refuses to look up
        "dataset.kind=csv\ndataset.source_path=" + "x" * 300,
        # training values that fail at the first step, or quietly do nothing
        "train.k=0", "train.k=-2", "train.n_neg_per_positive=0", "train.patience=0",
        "train.patience=-1", "train.learning_rate=nan", "train.learning_rate=inf",
        "train.init_scale=nan", "train.init_scale=0", "train.grl_scale=-1",
        "train.grl_scale=nan", "train.lambda_domain=nan", "train.lambda_source=-0.5",
        "train.gamma_dag=inf", "train.gamma_sparsity=-1",
        # seeds numpy's generators refuse
        "split.seed=-3", "synth.seed=-1", "train.seed=-2", "seeds=1,-2",
    ], ids=lambda line: line[:40])
    def test_malformed_value_exits_1(self, tmp_path, capsys, line):
        path = write_config(tmp_path, out_dir=str(tmp_path / "run"))
        path.write_text(path.read_text() + line + "\n")
        assert cli.main(["prepare", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: line 18")
        assert not (tmp_path / "run").exists()


class TestPipeline:
    def test_run_experiment_writes_artifacts(self, tmp_path):
        config = cli.load_config(write_config(tmp_path))
        config.out_dir = str(tmp_path / "run")
        report = cli.run_experiment(config)
        out = Path(config.out_dir)
        assert (out / "status.txt").read_text() == "complete\n"
        assert (out / "metrics.csv").exists()
        assert (out / "metrics.md").exists()
        for seed in (1, 2):
            assert (out / f"seed_{seed}" / "checkpoint.nmc").exists()
            history = (out / f"seed_{seed}" / "history.csv").read_text()
            assert history.splitlines()[1].startswith("epoch,L_t,L_s,")
        assert set(report.mean) == {"HR@5", "HR@10", "NDCG@5", "NDCG@10"}
        # config.txt is a config: passed back, it gives the same hash
        assert cli.config_hash(cli.load_config(out / "config.txt")) == \
            cli.config_hash(config)

    def test_rerun_is_byte_identical(self, tmp_path):
        config = cli.load_config(write_config(tmp_path))
        config.out_dir = str(tmp_path / "run_a")
        cli.run_experiment(config)
        config.out_dir = str(tmp_path / "run_b")
        cli.run_experiment(config)
        for rel in ("metrics.csv", "seed_1/checkpoint.nmc", "seed_1/history.csv",
                    "seed_2/metrics_seed.csv"):
            a = (tmp_path / "run_a" / rel).read_bytes()
            b = (tmp_path / "run_b" / rel).read_bytes()
            assert a == b, rel

    def test_report_regeneration_matches(self, tmp_path):
        config = cli.load_config(write_config(tmp_path))
        config.out_dir = str(tmp_path / "run")
        cli.run_experiment(config)
        out = Path(config.out_dir)
        first = (out / "metrics.csv").read_bytes()
        runs = cli.load_seed_metrics(out, config.seeds)
        cli.write_report(config, runs, out)
        assert (out / "metrics.csv").read_bytes() == first

    def test_sparsity_subsamples_target_train_only(self, tmp_path):
        config = cli.load_config(write_config(tmp_path))
        dataset, _, full_split = cli.prepare(config, tmp_path / "full")
        config.sparsity_fraction = 0.5
        _, _, sparse_split = cli.prepare(config, tmp_path / "sparse")
        n_full = len(full_split.train[data.TARGET])
        n_sparse = len(sparse_split.train[data.TARGET])
        assert n_sparse == max(1, int(round(0.5 * n_full)))
        assert sparse_split.train[data.SOURCE] == full_split.train[data.SOURCE]
        assert sparse_split.test[data.TARGET] == full_split.test[data.TARGET]

    def test_failure_marks_stage(self, tmp_path):
        config = cli.load_config(write_config(tmp_path))
        config.out_dir = str(tmp_path / "runf")
        config.synth.target_density = 0.9  # infeasible: rejected by the generator
        with pytest.raises(cli.StageFailure) as err:
            cli.run_experiment(config)
        assert err.value.stage == "prepare"
        status = (tmp_path / "runf" / "status.txt").read_text()
        assert status.startswith("incomplete stage=prepare")


class TestCommands:
    def test_train_and_report_cli(self, tmp_path, capsys):
        path = write_config(tmp_path, out_dir=str(tmp_path / "run"))
        assert cli.main(["train", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "HR@10" in out
        assert cli.main(["report", "--config", str(path)]) == 0

    def test_gradcheck_pass_and_fail(self, capsys):
        assert cli.main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        # the reversed-path blocks are called out separately
        assert "shared_encoder" in out and "compensated" in out
        assert cli.main(["gradcheck", "--corrupt-block", "fusion_t"]) == 3
        assert "fusion_t" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, message", [
        (["--corrupt-block", "fusion_tt"], "argument --corrupt-block: invalid choice"),
        (["--grl-scale", "-1"], "argument --grl-scale: expected a finite number >= 0"),
        (["--grl-scale", "nan"], "argument --grl-scale: expected a finite number >= 0"),
        (["--grl-scale", "inf"], "argument --grl-scale: expected a finite number >= 0"),
        (["--grl-scale", "x"], "argument --grl-scale: invalid"),
        (["--seed", "-1"], "argument --seed: expected an integer >= 0, got '-1'"),
    ], ids=["block_typo", "negative_grl_scale", "nan_grl_scale", "inf_grl_scale",
            "grl_scale_not_a_number", "negative_seed"])
    def test_gradcheck_bad_flag_is_a_usage_error(self, capsys, monkeypatch, flags, message):
        def no_check(**kwargs):
            raise AssertionError("a bad flag must be rejected before the check runs")

        monkeypatch.setattr(cli.gradcheck, "run_gradient_check", no_check)
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["gradcheck", *flags])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_negative_seed_flag_is_a_usage_error(self, tmp_path, capsys, command):
        path = write_config(tmp_path, out_dir=str(tmp_path / "run"))
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, "--config", str(path), "--seed", "-1"])
        assert exit_info.value.code == 2
        assert "argument --seed: expected an integer >= 0, got '-1'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command, flags", [
        ("prepare", []), ("ablate", ["--mode", "no_causal"]), ("report", []), ("synth", [])])
    def test_seed_flag_is_refused_where_no_seed_is_read(self, tmp_path, capsys, command,
                                                        flags):
        path = write_config(tmp_path, out_dir=str(tmp_path / "run"), seeds="1")
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, "--config", str(path), *flags, "--seed", "7"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_empty_config_path_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["prepare", "--config", ""]) == 1
        assert capsys.readouterr().err.startswith("config error: cannot read config")
        assert list(tmp_path.iterdir()) == []

    def test_train_one_seed(self, tmp_path, capsys):
        path = write_config(tmp_path, out_dir=str(tmp_path / "run"))
        assert cli.main(["train", "--config", str(path), "--seed", "2"]) == 0
        run = tmp_path / "run"
        metrics = cli.load_seed_metrics(run, [2])[0]
        assert capsys.readouterr().out == "seed 2: " + " ".join(
            f"{key}={value:.4f}" for key, value in sorted(metrics.items())) + "\n"
        assert sorted(path.name for path in run.iterdir()) == ["seed_2", "splits"]
        assert sorted(path.name for path in (run / "seed_2").iterdir()) == [
            "checkpoint.nmc", "graph_edges.csv", "history.csv", "metrics_seed.csv"]

    @pytest.mark.parametrize("flags", [[], ["--seed", "1"]], ids=["all_seeds", "one_seed"])
    def test_train_refuses_a_split_without_test_lists(self, tmp_path, capsys, monkeypatch,
                                                      flags):
        calls = []
        monkeypatch.setattr(cli.training, "train", lambda *args: calls.append(args))
        path = write_config(tmp_path, out_dir=str(tmp_path / "run"),
                            **{"split.ratios": "1,0,0"})
        assert cli.main(["train", "--config", str(path), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime failure")
        assert "splits/candidates_test.csv holds no candidate lists" in err
        assert calls == [] and not list((tmp_path / "run").glob("seed_*"))

    def test_strict_causal_mask_run(self, tmp_path):
        path = write_config(tmp_path, out_dir=str(tmp_path / "strict"), seeds="1",
                            **{"train.strict_causal_mask": "true"})
        assert cli.main(["train", "--config", str(path)]) == 0
        seed_dir = tmp_path / "strict" / "seed_1"
        params = model.ModelParams.load(seed_dir / "checkpoint.nmc")
        assert params.strict_causal_mask is True
        k = params.dims.k
        adjacency = params.effective_adjacency_matrix()
        free = np.zeros(adjacency.shape, dtype=bool)
        free[:k, k:] = True  # attribute -> preference
        assert np.all(adjacency[~free] == 0.0) and np.any(adjacency[free] != 0.0)
        for line in (seed_dir / "graph_edges.csv").read_text().splitlines()[2:]:
            i, j = map(int, line.split(",")[:2])
            assert i < k <= j
        stored = (seed_dir / "metrics_seed.csv").read_bytes()
        (seed_dir / "metrics_seed.csv").unlink()
        assert cli.main(["evaluate", "--config", str(path)]) == 0
        assert (seed_dir / "metrics_seed.csv").read_bytes() == stored

    def test_prepare_prints_ingest_and_split_diagnostics(self, tmp_path, capsys):
        # user 9 rates only source items, user 8 only target items
        (tmp_path / "source.csv").write_text(
            "user,item,rating\n" + "".join(f"{u},{i},5\n" for u in range(8) for i in range(4))
            + "1,4,2\n9,0,5\n")
        (tmp_path / "target.csv").write_text(
            "user,item,rating\n" + "".join(f"{u},{15 * u + i},5\n" for u in range(8)
                                            for i in range(15)) + "8,0,5\n")
        path = write_config(tmp_path, "dataset.kind=csv", out_dir=str(tmp_path / "run"),
                            **{"dataset.source_path": str(tmp_path / "source.csv"),
                               "dataset.target_path": str(tmp_path / "target.csv"),
                               "split.ratios": "0.05,0.05,0.9"})
        config = cli.load_config(path)
        dataset, _ = cli.build_dataset(config)
        moves = data.generate_split(dataset, config.split).forced_train_moves
        assert moves > 0
        assert cli.main(["prepare", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"splits written to {tmp_path / 'run' / 'splits'}",
                         f"{tmp_path / 'source.csv'}: 33 positive rows, 1 users dropped; "
                         f"{tmp_path / 'target.csv'}: 121 positive rows, 1 users dropped; "
                         f"forced train moves: {moves}"]
        # a synthetic dataset reads no CSV file
        path = write_config(tmp_path, out_dir=str(tmp_path / "synth"))
        config = cli.load_config(path)
        moves = data.generate_split(cli.build_dataset(config)[0], config.split).forced_train_moves
        assert cli.main(["prepare", "--config", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [f"forced train moves: {moves}"]

    def test_undecodable_csv_exits_2(self, tmp_path, capsys):
        (tmp_path / "source.csv").write_bytes(b"user,item,rating\n1,\xe92,5\n")
        (tmp_path / "target.csv").write_bytes(b"user,item,rating\n1,2,5\n")
        path = write_config(tmp_path, "dataset.kind=csv", out_dir=str(tmp_path / "run"),
                            **{"dataset.source_path": str(tmp_path / "source.csv"),
                               "dataset.target_path": str(tmp_path / "target.csv")})
        assert cli.main(["prepare", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime failure") and "source.csv: cannot read CSV file" in err

    def test_attribute_with_three_labels_exits_2(self, tmp_path, capsys):
        for name in ("source", "target"):
            (tmp_path / f"{name}.csv").write_text(
                "user,item,rating,attribute\n1,1,5,a\n2,1,5,b\n3,1,5,c\n")
        path = write_config(tmp_path, "dataset.kind=csv\ndataset.attribute_column=attribute\n"
                            "split.kind=ood_attribute\n"
                            "split.train_mix=0.5,0.5\nsplit.test_mix=0.5,0.5",
                            out_dir=str(tmp_path / "run"),
                            **{"dataset.source_path": str(tmp_path / "source.csv"),
                               "dataset.target_path": str(tmp_path / "target.csv")})
        assert cli.main(["prepare", "--config", str(path)]) == 2
        assert ("dataset has no binary user attribute: expected 2 attribute labels, "
                "found 3: 'a', 'b', 'c'") in capsys.readouterr().err

    def test_ood_attribute_on_csv_needs_the_attribute_column(self, tmp_path, capsys):
        for name in ("source", "target"):
            (tmp_path / f"{name}.csv").write_text(
                "user,item,rating,attribute\n1,1,5,a\n2,1,5,b\n")
        path = write_config(tmp_path, "dataset.kind=csv\nsplit.kind=ood_attribute\n"
                            "split.train_mix=0.5,0.5\nsplit.test_mix=0.5,0.5",
                            out_dir=str(tmp_path / "run"),
                            **{"dataset.source_path": str(tmp_path / "source.csv"),
                               "dataset.target_path": str(tmp_path / "target.csv")})
        assert cli.main(["prepare", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            "config error: split.kind=ood_attribute on a csv dataset needs "
            "dataset.attribute_column, the user attribute column\n")
        assert not (tmp_path / "run").exists()
        # a top-level line that fails alone is still the one named
        append(path, "graph_threshold=0\n")
        with pytest.raises(cli.ConfigError,
                           match=r"^line 8: top level: graph_threshold must be positive$"):
            cli.load_config(path)

    def test_evaluate_without_checkpoint_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, out_dir=str(tmp_path / "noeval"))
        # evaluate reads the stored splits/ first and does not build them
        assert cli.main(["evaluate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "runtime failure" in err and "splits/train.csv: cannot read" in err
        assert not (tmp_path / "noeval").exists()
        assert cli.main(["prepare", "--config", str(path)]) == 0
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "runtime failure" in err and "checkpoint.nmc" in err

    def test_evaluate_truncated_checkpoint_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, out_dir=str(tmp_path / "cut"), seeds="1")
        assert cli.main(["train", "--config", str(path)]) == 0
        checkpoint = tmp_path / "cut" / "seed_1" / "checkpoint.nmc"
        checkpoint.write_bytes(checkpoint.read_bytes()[:-5])
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "runtime failure" in err and "truncated" in err

    def test_evaluate_checkpoint_missing_matrices_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, out_dir=str(tmp_path / "partial"), seeds="1")
        assert cli.main(["train", "--config", str(path)]) == 0
        checkpoint = tmp_path / "partial" / "seed_1" / "checkpoint.nmc"
        matrices, meta = matrixio.read_container(checkpoint)
        matrixio.write_container(checkpoint, {"adjacency": matrices["adjacency"]}, meta)
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "runtime failure" in err and "missing matrices" in err
        assert "user_map_t" in err

    def test_moved_csvs_keep_the_run_hash(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        (tmp_path / "data").mkdir()
        for name, n_items in (("source", 90), ("target", 200)):
            rows = [f"u{rng.integers(40)},{rng.integers(n_items)},{rng.integers(1, 6)}"
                    for _ in range(400)]
            (tmp_path / "data" / f"{name}.csv").write_text(
                "\n".join(["user,item,rating"] + rows) + "\n")

        def csv_config(directory):
            return write_config(tmp_path, "dataset.kind=csv\nsplit.seed=11\n"
                                "train.k=4\ntrain.epochs=1\nseeds=1",
                                out_dir=str(tmp_path / "run"),
                                **{"dataset.source_path": str(directory / "source.csv"),
                                   "dataset.target_path": str(directory / "target.csv")})

        path = csv_config(tmp_path / "data")
        assert cli.main(["train", "--config", str(path)]) == 0
        trained = cli.load_config(path)
        shutil.copytree(tmp_path / "data", tmp_path / "moved")
        path = csv_config(tmp_path / "moved")
        moved = cli.load_config(path)
        assert cli.config_canonical_text(moved) != cli.config_canonical_text(trained)
        assert cli.config_hash(moved) == cli.config_hash(trained)
        shutil.rmtree(tmp_path / "data")
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", str(path)]) == 0
        assert "HR@10" in capsys.readouterr().out
        target = tmp_path / "moved" / "target.csv"
        content = target.read_bytes()
        target.write_bytes(content[:-2] + bytes([content[-2] ^ 1]) + content[-1:])
        assert cli.main(["evaluate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime failure") and "splits/train.csv" in err

    def test_each_seed_stage_hashes_the_csvs_once(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(9)
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        for name, n_items in (("source", 90), ("target", 200)):
            rows = [f"u{rng.integers(40)},{rng.integers(n_items)},{rng.integers(1, 6)}"
                    for _ in range(400)]
            (data_dir / f"{name}.csv").write_text("\n".join(["user,item,rating"] + rows) + "\n")
        config = cli.load_config(write_config(
            tmp_path, "dataset.kind=csv\nsplit.seed=11\ntrain.k=4\ntrain.epochs=1\nseeds=1",
            **{"dataset.source_path": str(data_dir / "source.csv"),
               "dataset.target_path": str(data_dir / "target.csv")}))
        out = tmp_path / "run"
        dataset, _, split = cli.prepare(config, out)
        reads = []
        read_bytes = Path.read_bytes

        def spy(path):
            if path.parent == data_dir:
                reads.append(path.name)
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", spy)
        cli.train_seed(config, dataset, split, 1, out)
        assert sorted(reads) == ["source.csv", "target.csv"]
        reads.clear()
        cli.evaluate_seed(config, None, split, 1, out)
        assert sorted(reads) == ["source.csv", "target.csv"]

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense.key=1\n")
        assert cli.main(["train", "--config", str(bad)]) == 1

    def test_synth_command_writes_dataset(self, tmp_path):
        path = write_config(tmp_path, out_dir=str(tmp_path / "synthout"))
        assert cli.main(["synth", "--config", str(path)]) == 0
        out = tmp_path / "synthout"
        assert (out / "source.csv").exists()
        assert (out / "target.csv").exists()
        edges = (out / "true_edges.csv").read_text().splitlines()
        assert edges[0] == "i,j,weight"
        # round trip through ingestion
        ds = data.ingest_csv(out / "source.csv", out / "target.csv")
        assert ds.n_users > 0

    def test_synth_request_too_large_for_memory_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, text="synth.n_users=10\n"
                                           f"synth.n_source_items={2**40}\n"
                                           "synth.n_target_items=30\n"
                                           "synth.source_density=1e-9",
                            out_dir=str(tmp_path / "synthout"))
        assert cli.main(["synth", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: cannot allocate the source domain's "
                              f"10 x {2**40} affinity table: ")
        assert not (tmp_path / "synthout" / "source.csv").exists()

    def test_report_pairs_an_iid_run_that_differs_in_its_split_only(self, tmp_path,
                                                                     capsys):
        ood_config, runs = report_runs(tmp_path)
        assert cli.main(["report", "--config", str(ood_config), "--out", str(runs / "ood"),
                         "--iid-dir", str(runs / "iid")]) == 0
        rows = (runs / "ood" / "metrics.csv").read_text().splitlines()
        assert rows[2] == "ood_attribute,HR,10,0.400000,0.000000,20.00"
        assert "| ood_attribute | 0.4000 (-20.00%) |" in capsys.readouterr().out

    @pytest.mark.parametrize("damage, named", [
        (lambda runs: (runs / "ood" / "seed_2" / "metrics_seed.csv").unlink(),
         "ood/seed_2/metrics_seed.csv"),
        (lambda runs: append(runs / "ood" / "seed_1" / "metrics_seed.csv", "x,HR,10\n"),
         "ood/seed_1/metrics_seed.csv"),
        (lambda runs: append(runs / "ood" / "seed_2" / "metrics_seed.csv",
                             "ood_attribute,MRR,10,0.5,0.0,\n"),
         "ood/seed_2/metrics_seed.csv"),
        (lambda runs: [write_metrics(runs / "iid" / f"seed_{seed}", {"HR@10": 0.5})
                       for seed in (1, 2)],
         "iid/seed_1/metrics_seed.csv"),
        (lambda runs: (runs / "iid" / "config.txt").unlink(), "iid/config.txt"),
        (lambda runs: append(runs / "iid" / "config.txt", "graph_threshold=0.5\n"),
         "iid/config.txt differs from this run's config in graph_threshold"),
    ], ids=["missing_metrics", "malformed_row", "other_metric_set",
            "iid_other_metric_set", "iid_without_config", "iid_other_config"])
    def test_report_refuses_a_broken_run_with_exit_2(self, tmp_path, capsys, damage, named):
        ood_config, runs = report_runs(tmp_path)
        damage(runs)
        assert cli.main(["report", "--config", str(ood_config), "--out", str(runs / "ood"),
                         "--iid-dir", str(runs / "iid")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime failure") and named in err

    @pytest.mark.parametrize("mean", ["nan", "1e999", "-3.5", "1.5"])
    def test_report_refuses_a_stored_mean_outside_0_1(self, tmp_path, capsys, mean):
        ood_config, runs = report_runs(tmp_path)
        path = runs / "ood" / "seed_2" / "metrics_seed.csv"
        path.write_text(path.read_text().replace("HR,10,0.4,", f"HR,10,{mean},"))
        assert cli.main(["report", "--config", str(ood_config),
                         "--out", str(runs / "ood")]) == 2
        err = capsys.readouterr().err
        assert f"ood/seed_2/metrics_seed.csv line 4: mean {mean} of HR@10" in err
        assert not (runs / "ood" / "metrics.csv").exists()

    def test_report_refuses_a_repeated_metric_row(self, tmp_path, capsys):
        ood_config, runs = report_runs(tmp_path)
        append(runs / "ood" / "seed_1" / "metrics_seed.csv", "iid,HR,10,0.9,0.0,\n")
        assert cli.main(["report", "--config", str(ood_config),
                         "--out", str(runs / "ood")]) == 2
        err = capsys.readouterr().err
        assert "ood/seed_1/metrics_seed.csv line 7: HR@10 appears twice" in err
        assert not (runs / "ood" / "metrics.csv").exists()

    def test_ablate_command(self, tmp_path):
        path = write_config(tmp_path, out_dir=str(tmp_path / "runab"))
        assert cli.main(["ablate", "--config", str(path), "--mode",
                         "no_causal"]) == 0
        assert (tmp_path / "runab" / "ablate_no_causal" / "metrics.csv").exists()


def digests(directory):
    return {path.relative_to(directory): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.rglob("*")) if path.is_file()}


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A run directory that `train` wrote for BASE_CONFIG."""
    directory = tmp_path_factory.mktemp("trained")
    path = write_config(directory, out_dir=str(directory / "run"))
    assert cli.main(["train", "--config", str(path)]) == 0
    return directory / "run"


class TestEvaluateStoredRun:
    """`evaluate` re-scores the checkpoints against the stored splits/; it
    never rebuilds the split, and it refuses a run it cannot score."""

    @pytest.fixture
    def run(self, tmp_path, trained_run):
        shutil.copytree(trained_run, tmp_path / "run")
        return tmp_path / "run"

    def evaluate(self, tmp_path, run, text=BASE_CONFIG):
        path = write_config(tmp_path, text)
        return cli.main(["evaluate", "--config", str(path), "--out", str(run)])

    def test_evaluate_after_train_rewrites_nothing(self, tmp_path, run, monkeypatch,
                                                   capsys):
        before = digests(run)

        def no_dataset(config):
            raise AssertionError("evaluate must not build the dataset")

        monkeypatch.setattr(cli, "build_dataset", no_dataset)
        assert self.evaluate(tmp_path, run) == 0
        assert "HR@10" in capsys.readouterr().out
        assert digests(run) == before

    def test_changed_split_seed_exits_2(self, tmp_path, run, capsys):
        before = digests(run)
        text = BASE_CONFIG.replace("split.seed=11", "split.seed=12")
        assert self.evaluate(tmp_path, run, text) == 2
        err = capsys.readouterr().err
        ours = cli.config_hash(cli.parse_config_text(BASE_CONFIG))
        theirs = cli.config_hash(cli.parse_config_text(text))
        assert err.startswith("runtime failure") and "splits/train.csv" in err
        assert f"config_hash={ours}" in err and f"config_hash={theirs}" in err
        assert digests(run) == before

    def test_missing_splits_exits_2(self, tmp_path, run, capsys):
        shutil.rmtree(run / "splits")
        before = digests(run)
        assert self.evaluate(tmp_path, run) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime failure") and "splits/train.csv: cannot read" in err
        assert digests(run) == before

    def test_split_without_test_lists_exits_2(self, tmp_path, run, capsys):
        path = run / "splits" / "candidates_test.csv"
        path.write_text(path.read_text().splitlines()[0] + "\n")
        before = digests(run)
        assert self.evaluate(tmp_path, run) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime failure")
        assert "splits/candidates_test.csv holds no candidate lists" in err
        assert digests(run) == before

    @pytest.mark.parametrize("narrow, named", [
        ({"n_target_items": 50}, "target item id"), ({"n_users": 30}, "user id")],
        ids=["target_items", "users"])
    def test_checkpoint_narrower_than_the_split_exits_2(self, tmp_path, run, capsys,
                                                        narrow, named):
        dims = model.ModelDims(**{"k": 4, "n_users": 80, "n_source_items": 120,
                                  "n_target_items": 110, **narrow})
        checkpoint = run / "seed_1" / "checkpoint.nmc"
        model.ModelParams.init(dims, seed=3).save(checkpoint)
        before = digests(run)
        assert self.evaluate(tmp_path, run) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime failure") and str(checkpoint) in err
        assert named in err
        assert digests(run) == before

    def test_non_finite_checkpoint_exits_2(self, tmp_path, run, capsys):
        checkpoint = run / "seed_1" / "checkpoint.nmc"
        matrices, meta = matrixio.read_container(checkpoint)
        matrices["disc_h1"][1, 2] = np.nan
        matrixio.write_container(checkpoint, matrices, meta)
        before = digests(run)
        assert self.evaluate(tmp_path, run) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime failure") and str(checkpoint) in err
        assert "non-finite values in matrices disc_h1" in err
        assert digests(run) == before

    @pytest.mark.parametrize("edits", [
        # the domain-specific preference overflows
        {"user_att_t": 1e308, "user_map_t": 10.0},
        # logit 0 is -inf and logit 1 finite, so every score is a finite 1.0
        {"user_att_t": 1.0, "user_map_t": np.eye(4), "fusion_t": np.eye(4, 8),
         "adjacency": 0.0, "item_emb_t": 1.0,
         "predictor_t": np.array([[-1e308] * 4, [1.0] * 4])},
    ], ids=["preference", "logit"])
    def test_overflowing_checkpoint_exits_2(self, tmp_path, run, capsys, edits):
        checkpoint = run / "seed_1" / "checkpoint.nmc"
        matrices, meta = matrixio.read_container(checkpoint)
        for name, value in edits.items():
            matrices[name][...] = value
        matrixio.write_container(checkpoint, matrices, meta)
        before = digests(run)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)   # the one line is the report
            assert self.evaluate(tmp_path, run) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime failure") and str(checkpoint) in err
        assert err.endswith("produced a non-finite value\n")
        assert digests(run) == before

    def test_split_file_from_another_seed_exits_2(self, tmp_path, run, capsys):
        other = cli.parse_config_text(BASE_CONFIG.replace("split.seed=11", "split.seed=12"))
        cli.prepare(other, tmp_path / "other")
        shutil.copy(tmp_path / "other" / "splits" / "candidates_test.csv", run / "splits")
        before = digests(run)
        assert self.evaluate(tmp_path, run) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime failure")
        assert "splits/candidates_test.csv: header" in err and "differs" in err
        assert digests(run) == before


# ---------------------------------------------------------------------------
# stored-run fuzzing: one damaged file of a trained run, then evaluate or
# report; every outcome is a clean exit, never an uncaught exception

FUZZED_FILES = ("splits/train.csv", "splits/validation.csv", "splits/test.csv",
                "splits/candidates_test.csv", "splits/candidates_validation.csv",
                "seed_1/checkpoint.nmc", "seed_1/metrics_seed.csv", "config.txt")
FUZZ_TOKENS = [b"nan", b"1e999", b"-1", b"\x00", b"9" * 20, b"", b"0.5", b"#"]
RUN_EDITS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(1, 255)),
    st.tuples(st.just("cut"), st.integers(0, 10**6), st.just(0)),
    st.tuples(st.just("drop"), st.just(0), st.just(0)),
    st.tuples(st.just("field"), st.integers(0, 10**6), st.sampled_from(FUZZ_TOKENS)),
)


def damage(blob, edit):
    """blob after one edit; None deletes the file."""
    op, at, arg = edit
    if op == "drop":
        return None
    if op == "cut":
        return blob[:at % (len(blob) + 1)]
    if op == "flip":
        damaged = bytearray(blob)
        damaged[at % len(damaged)] ^= arg
        return bytes(damaged)
    lines = blob.split(b"\n")
    i = at % len(lines)
    fields = lines[i].split(b",")
    fields[at % len(fields)] = arg
    lines[i] = b",".join(fields)
    return b"\n".join(lines)


@pytest.fixture(scope="module")
def trained_run_files(trained_run):
    return {path.relative_to(trained_run): path.read_bytes()
            for path in trained_run.rglob("*") if path.is_file()}


class TestStoredRunFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(name=st.sampled_from(FUZZED_FILES), edit=RUN_EDITS,
           command=st.sampled_from(["evaluate", "report"]))
    def test_damaged_run_exits_0_or_2(self, tmp_path, capsys, trained_run_files, name,
                                      edit, command):
        run = Path(tempfile.mkdtemp(dir=tmp_path))
        for path, blob in trained_run_files.items():
            if path == Path(name):
                blob = damage(blob, edit)
                if blob is None:
                    continue
            (run / path).parent.mkdir(parents=True, exist_ok=True)
            (run / path).write_bytes(blob)
        config = write_config(run)
        extra = ["--seed", "1"] if command == "evaluate" else ["--iid-dir", str(run)]
        code = cli.main([command, "--config", str(config), "--out", str(run), *extra])
        err = capsys.readouterr().err
        assert code in (0, 2)
        assert code == 0 or err.startswith("runtime failure")


# ---------------------------------------------------------------------------
# CSV ingest fuzzing: a damaged source/target pair through `prepare` on each
# split kind; every outcome is a clean exit, never an uncaught exception

def csv_pair():
    """Source and target CSVs of 16 shared users that `prepare` splits on
    every kind: a third of the rows rate below the positive threshold, and
    the attribute alternates between two labels."""
    files = {}
    for name, stride in (("source", 3), ("target", 13)):
        rows = ["user,item,rating,attribute"]
        for user in range(16):
            for j in range(10 + user % 5):
                rows.append(f"{user},{user * stride + 5 * j},{3 + (user + j) % 3},"
                            f"{'ab'[user % 2]}")
        files[name] = ("\n".join(rows) + "\n").encode()
    return files


INGEST_SPLITS = {
    "iid": "split.kind=iid",
    "ood_degree": "split.kind=ood_degree\nsplit.train_mix=0.7,0.3\nsplit.test_mix=0.3,0.7",
    "ood_attribute": "split.kind=ood_attribute\nsplit.train_mix=0.7,0.3\n"
                     "split.test_mix=0.3,0.7\ndataset.attribute_column=attribute",
}
CSV_TOKENS = [b"nan", b"1e999", b"\x00", b"9" * 20, b"\xef\xbb\xbf", b'"']
CSV_EDITS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(1, 255)),
    st.tuples(st.just("cut"), st.integers(0, 10**6), st.just(0)),
    st.tuples(st.just("delete"), st.integers(0, 10**6), st.integers(1, 40)),
    st.tuples(st.just("field"), st.integers(0, 10**6), st.sampled_from(CSV_TOKENS)),
)


def damage_csv(blob, edit):
    """blob after one edit; a deletion removes up to arg bytes at a spot."""
    op, at, arg = edit
    if op == "delete":
        at %= len(blob) + 1
        return blob[:at] + blob[at + arg:]
    return damage(blob, edit)


class TestCsvIngestFuzz:
    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kind=st.sampled_from(sorted(INGEST_SPLITS)),
           edits=st.lists(st.tuples(st.sampled_from(["source", "target"]), CSV_EDITS),
                          min_size=1, max_size=2))
    @example(kind="ood_attribute", edits=[])
    def test_damaged_csv_pair_exits_0_or_2(self, tmp_path, capsys, kind, edits):
        run = Path(tempfile.mkdtemp(dir=tmp_path))
        files = csv_pair()
        for name, edit in edits:
            files[name] = damage_csv(files[name], edit)
        for name, blob in files.items():
            (run / f"{name}.csv").write_bytes(blob)
        config = write_config(run, "dataset.kind=csv\n" + INGEST_SPLITS[kind],
                              out_dir=str(run / "out"),
                              **{"dataset.source_path": str(run / "source.csv"),
                                 "dataset.target_path": str(run / "target.csv"),
                                 "split.ratios": "0.6,0.2,0.2"})
        code = cli.main(["prepare", "--config", str(config)])
        err = capsys.readouterr().err
        assert code in (0, 2)
        assert code == 0 or err.startswith("runtime failure")
        if not edits:
            assert code == 0


# ---------------------------------------------------------------------------
# parser fuzzing

CONFIG_KEYS = sorted(cli.CONFIG_SCHEMA) + ["split.train_ratio", "split.test_ratio"]
PLAUSIBLE_VALUES = ["0", "1", "2", "7", "0.5", "0.01", "1e-05", "true", "False",
                    "0.8,0.2", "0.8,0.1,0.1", "1,2", "5,10", "synthetic", "iid",
                    "ood_degree", "adam", "sgd", "full", "no_causal", "no_source",
                    "0.00001", "1e999", "runs/x", ""]
JUNK_VALUES = st.one_of(st.text(max_size=12),
                        st.floats(allow_nan=True, allow_infinity=True).map(str),
                        st.integers(-10**6, 10**6).map(str),
                        st.lists(st.integers(-3, 30).map(str), max_size=4).map(",".join))


def _lines(keys, values):
    return st.tuples(keys, values).map(lambda kv: f"{kv[0]}={kv[1]}")


ANY_LINE = st.one_of(
    _lines(st.sampled_from(CONFIG_KEYS),
           st.one_of(st.sampled_from(PLAUSIBLE_VALUES), JUNK_VALUES)),
    _lines(st.text(alphabet="abcdeinst._ ", max_size=14), st.sampled_from(PLAUSIBLE_VALUES)),
    st.sampled_from(["", "   ", "# comment", "#x=1", "noequals"]),
    st.text(max_size=20),
)


def _parses(text):
    try:
        cli.parse_config_text(text)
    except cli.ConfigError:
        return False
    return True


# lines that parse on their own, so most configs built from them parse
ACCEPTED_LINES = [f"{key}={value}" for key in CONFIG_KEYS for value in PLAUSIBLE_VALUES
                  if _parses(f"{key}={value}")]


class TestConfigFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(ANY_LINE, max_size=12).map("\n".join))
    def test_parses_or_raises_config_error(self, text):
        try:
            cli.parse_config_text(text)
        except cli.ConfigError:
            pass

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(st.lists(st.one_of(st.sampled_from(ACCEPTED_LINES), ANY_LINE),
                    max_size=8).map("\n".join))
    @example("split.test_mix=0.00001,0.99999")  # prints as 1e-05: a float without a '.'
    def test_canonical_text_is_a_fixed_point(self, text):
        try:
            config = cli.parse_config_text(text)
        except cli.ConfigError:
            assume(False)
        canonical = cli.config_canonical_text(config)
        assert cli.config_canonical_text(cli.parse_config_text(canonical)) == canonical
