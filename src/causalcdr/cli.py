"""Config-driven experiment runner.

Configs are flat key=value text with dotted section names and # comments:

    dataset.kind=synthetic
    synth.n_users=400
    split.kind=ood_attribute
    split.train_mix=0.8,0.2
    train.epochs=20
    seeds=1,2,3,4,5

Subcommands: prepare, train, evaluate, ablate, report, gradcheck, synth.
Exit codes: 0 success, 1 config error, 2 runtime failure, 3 acceptance
check failure.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import causal, data, evaluation, gradcheck, matrixio, model, training
from .data import TARGET


class ConfigError(ValueError):
    pass


@dataclass
class DatasetSection:
    kind: str = "synthetic"            # synthetic | csv
    source_path: str = ""
    target_path: str = ""
    user_column: str = "user"
    item_column: str = "item"
    rating_column: str = "rating"
    attribute_column: str = ""
    positive_threshold: float = 4.0


@dataclass
class ExperimentConfig:
    dataset: DatasetSection = field(default_factory=DatasetSection)
    synth: data.SynthConfig = field(default_factory=data.SynthConfig)
    split: data.SplitSpec = field(default_factory=data.SplitSpec)
    train: training.TrainConfig = field(default_factory=training.TrainConfig)
    eval_ks: tuple = (5, 10)
    seeds: tuple = (1, 2, 3, 4, 5)
    sparsity_fraction: float = 1.0
    graph_threshold: float = 0.3
    out_dir: str = "runs/experiment"

    def validate(self) -> None:
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        if not (0.0 < self.sparsity_fraction <= 1.0):
            raise ConfigError("sparsity_fraction must lie in (0, 1]")
        if self.dataset.kind not in ("synthetic", "csv"):
            raise ConfigError(f"unknown dataset.kind {self.dataset.kind!r}")
        if self.dataset.kind == "csv":
            for path in (self.dataset.source_path, self.dataset.target_path):
                if not path:
                    raise ConfigError("csv dataset needs source_path and target_path")
                if not Path(path).exists():
                    raise ConfigError(f"dataset file {path!r} does not exist")


_SECTION_TYPES = {
    "dataset": DatasetSection,
    "synth": data.SynthConfig,
    "split": data.SplitSpec,
    "train": training.TrainConfig,
}

_SPLIT_KEY_ALIASES = {"train_ratio": "train_mix", "test_ratio": "test_mix"}


def _coerce(value: str, target_type):
    if target_type is bool:
        if value.lower() in ("1", "true", "yes"):
            return True
        if value.lower() in ("0", "false", "no"):
            return False
        raise ConfigError(f"expected a boolean, got {value!r}")
    if target_type is int:
        return int(value)
    if target_type is float:
        return float(value)
    if target_type is str:
        return value
    if target_type is tuple:
        return tuple(float(x) if "." in x else int(x) for x in value.split(","))
    raise ConfigError(f"unsupported config value type {target_type}")


def parse_config_text(text: str) -> ExperimentConfig:
    config = ExperimentConfig()
    sections = {name: cls() for name, cls in _SECTION_TYPES.items()}
    top_fields = {f.name: f for f in fields(ExperimentConfig)}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if "." in key:
            section_name, _, field_name = key.partition(".")
            if section_name == "split":
                field_name = _SPLIT_KEY_ALIASES.get(field_name, field_name)
            if section_name == "eval" and field_name == "ks":
                config.eval_ks = tuple(int(x) for x in value.split(","))
                continue
            section = sections.get(section_name)
            if section is None:
                raise ConfigError(f"line {line_no}: unknown section {section_name!r}")
            section_fields = {f.name: f for f in fields(section)}
            if field_name not in section_fields:
                raise ConfigError(f"line {line_no}: unknown key {key!r}")
            current = getattr(section, field_name)
            target_type = type(current) if current is not None else str
            if section_name == "split" and field_name in ("train_mix", "test_mix"):
                target_type = tuple
            if section_name == "split" and field_name == "ratios":
                target_type = tuple
            try:
                setattr(section, field_name, _coerce(value, target_type))
            except (ValueError, ConfigError) as exc:
                raise ConfigError(f"line {line_no}: {exc}") from None
        else:
            if key == "seeds":
                config.seeds = tuple(int(x) for x in value.split(","))
            elif key == "sparsity":
                config.sparsity_fraction = float(value)
            elif key in top_fields:
                current = getattr(config, key)
                config.__setattr__(key, _coerce(value, type(current)))
            else:
                raise ConfigError(f"line {line_no}: unknown key {key!r}")

    config.dataset = sections["dataset"]
    config.synth = sections["synth"]
    config.split = sections["split"]
    config.train = sections["train"]
    config.validate()
    return config


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text)


def config_canonical_text(config: ExperimentConfig) -> str:
    lines = []
    for section_name in sorted(_SECTION_TYPES):
        section = getattr(config, section_name)
        for f in sorted(fields(section), key=lambda f: f.name):
            value = getattr(section, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            if value is None or isinstance(value, np.ndarray):
                continue
            lines.append(f"{section_name}.{f.name}={value}")
    lines.append("eval.ks=" + ",".join(str(k) for k in config.eval_ks))
    lines.append("seeds=" + ",".join(str(s) for s in config.seeds))
    lines.append(f"sparsity={config.sparsity_fraction}")
    lines.append(f"graph_threshold={config.graph_threshold}")
    return "\n".join(lines) + "\n"


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(config_canonical_text(config).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# pipeline stages

class StageFailure(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


def _meta(config: ExperimentConfig, seed=None) -> str:
    suffix = f" seed={seed}" if seed is not None else ""
    return f"config_hash={config_hash(config)}{suffix}"


def build_dataset(config: ExperimentConfig):
    if config.dataset.kind == "synthetic":
        return data.synth_generate(config.synth)
    schema = {"user": config.dataset.user_column,
              "item": config.dataset.item_column}
    if config.dataset.rating_column:
        schema["rating"] = config.dataset.rating_column
    if config.dataset.attribute_column:
        schema["attribute"] = config.dataset.attribute_column
    dataset = data.ingest_csv(config.dataset.source_path,
                              config.dataset.target_path,
                              schema=schema,
                              positive_threshold=config.dataset.positive_threshold)
    return dataset, None


def apply_sparsity(split: data.SplitResult, fraction: float,
                   seed: int) -> data.SplitResult:
    """Subsample the target training positives to the requested fraction
    (the sparsity sweep); everything else is untouched."""
    if fraction >= 1.0:
        return split
    rng = np.random.default_rng(seed)
    pool = sorted(split.train[TARGET])
    keep = rng.choice(len(pool), size=max(1, int(round(fraction * len(pool)))),
                      replace=False)
    train = dict(split.train)
    train[TARGET] = {pool[i] for i in sorted(keep)}
    return replace(split, train=train)


def prepare(config: ExperimentConfig, out: Path):
    dataset, truth = build_dataset(config)
    split = data.generate_split(dataset, config.split)
    split = apply_sparsity(split, config.sparsity_fraction, config.split.seed)
    data.save_split(split, out / "splits", extra_meta=_meta(config))
    return dataset, truth, split


def train_seed(config: ExperimentConfig, dataset, split, seed: int,
               out: Path) -> dict:
    seed_dir = out / f"seed_{seed}"
    seed_dir.mkdir(parents=True, exist_ok=True)
    train_config = replace(config.train, seed=seed)
    result = training.train(dataset, split, train_config)
    meta = _meta(config, seed)
    result.params.save(seed_dir / "checkpoint.nmc",
                       meta={"config_hash": config_hash(config), "seed": str(seed)})
    training.history_to_csv(result.history, seed_dir / "history.csv",
                            header_meta=meta)
    metrics = evaluation.evaluate(result.params, result.adjacency, split,
                                  ks=config.eval_ks)
    report = evaluation.aggregate_runs([metrics])
    evaluation.write_metrics_csv(report, config.split.kind,
                                 seed_dir / "metrics_seed.csv", header_meta=meta,
                                 value_format="{!r}")
    if result.adjacency is not None:
        causal.export_edge_list(result.adjacency, config.graph_threshold,
                                seed_dir / "graph_edges.csv", extra_meta=meta)
    return metrics


def evaluate_seed(config: ExperimentConfig, dataset, split, seed: int,
                  out: Path) -> dict:
    seed_dir = out / f"seed_{seed}"
    checkpoint = seed_dir / "checkpoint.nmc"
    if not checkpoint.is_file():
        raise StageFailure("evaluate", FileNotFoundError(
            f"no checkpoint {checkpoint}; train seed {seed} first"))
    params = model.ModelParams.load(checkpoint)
    adjacency = None
    if config.train.ablation != "no_causal":
        adjacency = params.effective_adjacency_matrix()
    metrics = evaluation.evaluate(params, adjacency, split, ks=config.eval_ks)
    report = evaluation.aggregate_runs([metrics])
    evaluation.write_metrics_csv(report, config.split.kind,
                                 seed_dir / "metrics_seed.csv",
                                 header_meta=_meta(config, seed),
                                 value_format="{!r}")
    return metrics


def write_report(config: ExperimentConfig, runs: list, out: Path,
                 iid_report: evaluation.MetricsReport | None = None) -> evaluation.MetricsReport:
    report = evaluation.aggregate_runs(runs)
    if iid_report is not None:
        report = evaluation.degradation_report(iid_report, report)
    evaluation.write_metrics_csv(report, config.split.kind, out / "metrics.csv",
                                 header_meta=_meta(config))
    markdown = evaluation.metrics_markdown({config.split.kind: report},
                                           ks=config.eval_ks)
    (out / "metrics.md").write_text(markdown + "\n", encoding="utf-8")
    return report


def load_seed_metrics(out: Path, seeds) -> list:
    runs = []
    for seed in seeds:
        path = out / f"seed_{seed}" / "metrics_seed.csv"
        run = {}
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.startswith("#") or line.startswith("setting,") or not line:
                continue
            _, metric, k, mean, _, _ = line.split(",")
            run[f"{metric}@{k}"] = float(mean)
        runs.append(run)
    return runs


def run_experiment(config: ExperimentConfig) -> evaluation.MetricsReport:
    """prepare -> (per seed) train -> evaluate -> aggregate -> report.

    Artifacts land under the output directory; a status file marks
    completion, or the failed stage plus cause."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(config_canonical_text(config), encoding="utf-8")
    status = out / "status.txt"
    stage = "prepare"
    try:
        dataset, _, split = prepare(config, out)
        stage = "train"
        runs = []
        for seed in config.seeds:
            runs.append(train_seed(config, dataset, split, seed, out))
        stage = "report"
        report = write_report(config, runs, out)
    except Exception as exc:
        status.write_text(f"incomplete stage={stage} error={exc}\n", encoding="utf-8")
        raise StageFailure(stage, exc) from exc
    status.write_text("complete\n", encoding="utf-8")
    return report


# ---------------------------------------------------------------------------
# entry points

def _cmd_prepare(args) -> int:
    config = _config_from_args(args)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    prepare(config, out)
    print(f"splits written to {out / 'splits'}")
    return 0


def _cmd_train(args) -> int:
    config = _config_from_args(args)
    out = Path(config.out_dir)
    if args.seed is not None:
        out.mkdir(parents=True, exist_ok=True)
        dataset, _, split = prepare(config, out)
        metrics = train_seed(config, dataset, split, args.seed, out)
        print(f"seed {args.seed}: " +
              " ".join(f"{k}={v:.4f}" for k, v in sorted(metrics.items())))
        return 0
    report = run_experiment(config)
    for key in sorted(report.mean):
        print(f"{key}: {report.mean[key]:.4f} (±{report.std[key]:.4f})")
    return 0


def _cmd_evaluate(args) -> int:
    config = _config_from_args(args)
    out = Path(config.out_dir)
    dataset, _, split = prepare(config, out)
    seeds = [args.seed] if args.seed is not None else config.seeds
    runs = [evaluate_seed(config, dataset, split, seed, out) for seed in seeds]
    report = evaluation.aggregate_runs(runs)
    for key in sorted(report.mean):
        print(f"{key}: {report.mean[key]:.4f} (±{report.std[key]:.4f})")
    return 0


def _cmd_ablate(args) -> int:
    config = _config_from_args(args)
    config.train = replace(config.train, ablation=args.mode)
    config.out_dir = str(Path(config.out_dir) / f"ablate_{args.mode}")
    report = run_experiment(config)
    for key in sorted(report.mean):
        print(f"{key}: {report.mean[key]:.4f} (±{report.std[key]:.4f})")
    return 0


def _cmd_report(args) -> int:
    config = _config_from_args(args)
    out = Path(config.out_dir)
    runs = load_seed_metrics(out, config.seeds)
    iid_report = None
    if args.iid_dir:
        iid_runs = load_seed_metrics(Path(args.iid_dir), config.seeds)
        iid_report = evaluation.aggregate_runs(iid_runs)
    report = write_report(config, runs, out, iid_report=iid_report)
    print((out / "metrics.md").read_text(encoding="utf-8"))
    return 0


def _cmd_gradcheck(args) -> int:
    report = gradcheck.run_gradient_check(seed=args.seed or 0,
                                          grl_scale=args.grl_scale,
                                          corrupt_block=args.corrupt_block)
    for name in sorted(report.per_block):
        marker = "" if report.per_block[name] < report.threshold else "  <-- FAIL"
        print(f"{name:20s} {report.per_block[name]:.3e}{marker}")
    reversed_note = ", ".join(gradcheck.REVERSED_BLOCKS)
    print(f"reversed-path blocks (checked against the compensated loss): {reversed_note}")
    print(f"max relative error: {report.max_relative_error:.3e} "
          f"(threshold {report.threshold:g})")
    if not report.passed:
        print("FAIL: " + ", ".join(report.failing_blocks()))
        return 3
    print("PASS")
    return 0


def _cmd_synth(args) -> int:
    config = _config_from_args(args)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataset, truth = data.synth_generate(config.synth)
    data.save_dataset_csv(dataset, out / "source.csv", out / "target.csv")
    if truth is not None:
        lines = ["i,j,weight"]
        for i, j in sorted(truth.edges):
            lines.append(f"{i},{j},{truth.weight_matrix[i, j - config.synth.k]:.12g}")
        (out / "true_edges.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"synthetic dataset written to {out}")
    return 0


def _config_from_args(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig()
    if getattr(args, "out", None):
        config.out_dir = args.out
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalcdr",
        description="cross-domain causal recommender experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        p.add_argument("--config", required=needs_config,
                       help="flat key=value config file")
        p.add_argument("--out", help="output directory override")
        p.add_argument("--seed", type=int, help="single-seed override")

    common(sub.add_parser("prepare", help="build dataset and splits"))
    common(sub.add_parser("train", help="train all seeds (or one with --seed)"))
    common(sub.add_parser("evaluate", help="re-score stored checkpoints"))
    ablate = sub.add_parser("ablate", help="run an ablation variant")
    common(ablate)
    ablate.add_argument("--mode", choices=("no_causal", "no_source"),
                        required=True)
    report = sub.add_parser("report", help="re-aggregate stored seed metrics")
    common(report)
    report.add_argument("--iid-dir", help="paired IID run for degradation")
    grad = sub.add_parser("gradcheck", help="finite-difference gradient check")
    grad.add_argument("--seed", type=int, default=0)
    grad.add_argument("--grl-scale", type=float, default=1.0)
    grad.add_argument("--corrupt-block", help="test hook: corrupt one block")
    common(sub.add_parser("synth", help="write a synthetic dataset to disk"))
    return parser


_COMMANDS = {
    "prepare": _cmd_prepare,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "ablate": _cmd_ablate,
    "report": _cmd_report,
    "gradcheck": _cmd_gradcheck,
    "synth": _cmd_synth,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except StageFailure as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    except (data.DataError, data.SplitError, training.TrainingError,
            matrixio.ContainerError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
