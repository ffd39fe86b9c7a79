"""Config-driven experiment runner.

Configs are flat key=value text with dotted section names and # comment lines:

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
import os
import sys
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from . import causal, data, diffcore as dc, evaluation, gradcheck, matrixio, model, training
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

    def __post_init__(self):
        if self.kind not in ("synthetic", "csv"):
            raise ConfigError(f"unknown dataset.kind {self.kind!r}")
        for name in ("user_column", "item_column"):
            if not getattr(self, name):
                raise ConfigError(f"dataset.{name} must name a column")
        if not np.isfinite(self.positive_threshold):
            raise ConfigError("dataset.positive_threshold must be finite, got "
                              f"{self.positive_threshold}")
        if self.kind == "csv":
            for path in (self.source_path, self.target_path):
                if not path:
                    raise ConfigError("csv dataset needs source_path and target_path")
                if not os.path.isfile(path):
                    raise ConfigError(f"dataset file {path!r} does not exist")


@dataclass
class ExperimentConfig:
    dataset: DatasetSection = field(default_factory=DatasetSection)
    synth: data.SynthConfig = field(default_factory=data.SynthConfig)
    split: data.SplitSpec = field(default_factory=data.SplitSpec)
    train: training.TrainConfig = field(default_factory=training.TrainConfig)
    eval_ks: tuple[int, ...] = field(default=(5, 10), metadata={"key": "eval.ks"})
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    sparsity_fraction: float = field(default=1.0, metadata={"key": "sparsity"})
    graph_threshold: float = 0.3
    # where the artifacts go, not what they hold, so the hash leaves it out
    out_dir: str = field(default="runs/experiment", metadata={"hashed": False})

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, got {min(self.seeds)}")
        if min(self.eval_ks, default=0) < 1:
            raise ConfigError("eval.ks must be a nonempty list of cutoffs >= 1")
        if len(set(self.eval_ks)) != len(self.eval_ks):
            raise ConfigError(f"eval.ks lists a cutoff twice: {self.eval_ks}")
        if not (0.0 < self.sparsity_fraction <= 1.0):
            raise ConfigError("sparsity_fraction must lie in (0, 1]")
        if not (self.graph_threshold > 0.0):
            raise ConfigError("graph_threshold must be positive")
        # last, so a failing top-level key is named before this rule
        if (self.dataset.kind == "csv" and self.split.kind == "ood_attribute"
                and not self.dataset.attribute_column):
            raise ConfigError("split.kind=ood_attribute on a csv dataset needs "
                              "dataset.attribute_column, the user attribute column")


_SECTION_TYPES = {name: hint for name, hint in get_type_hints(ExperimentConfig).items()
                  if is_dataclass(hint)}
_KEY_ALIASES = {"split.train_ratio": "split.train_mix",
                "split.test_ratio": "split.test_mix"}


def _to_bool(value: str) -> bool:
    if value.lower() not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected a boolean, got {value!r}")
    return value.lower() in ("1", "true", "yes")


# declared field type -> parser of its text; arrays cannot be set from text.
# A bare tuple holds numbers, each an int when it reads as one.
_COERCERS = {str: str, int: int, float: float, bool: _to_bool, np.ndarray: None,
             tuple: lambda value: tuple(int(x) if x.strip().lstrip("+-").isdigit()
                                        else float(x) for x in value.split(",")),
             tuple[int, ...]: lambda value: tuple(int(x) for x in value.split(","))}


def _build_schema() -> dict:
    """key -> (section or None, attribute, parser, hashed) in canonical order:
    the sections and their fields sorted, then the top-level keys."""
    entries = [(f"{name}.{f.name}", name, cls, f)
               for name, cls in sorted(_SECTION_TYPES.items())
               for f in sorted(fields(cls), key=lambda f: f.name)]
    entries += [(f.metadata.get("key", f.name), None, ExperimentConfig, f)
                for f in fields(ExperimentConfig) if f.name not in _SECTION_TYPES]
    hints = {cls: get_type_hints(cls) for cls in (*_SECTION_TYPES.values(), ExperimentConfig)}
    schema = {}
    for key, section, cls, f in entries:
        hint = hints[cls][f.name]
        coerce = _COERCERS[get_args(hint)[0] if type(None) in get_args(hint) else hint]
        if coerce is not None:
            schema[key] = (section, f.name, coerce, f.metadata.get("hashed", True))
    return schema


CONFIG_SCHEMA = _build_schema()


def _construct(cls, settings: dict, label: str, **sections):
    """cls(**values) from settings {attribute: (line, value)}, so its checks
    run; a failure names the lines whose value fails alone, else all of
    them, except that a rule across sections names its own keys."""
    try:
        return cls(**sections, **{a: value for a, (_, value) in settings.items()})
    except ValueError as exc:
        culprits = []
        for attribute, (line_no, value) in settings.items():
            try:
                cls(**{attribute: value})
            except ValueError:
                culprits.append(line_no)
        lines = sorted(culprits or ([] if sections else [n for n, _ in settings.values()]))
        where = f"line {', '.join(map(str, lines))}: {label}: " if lines else ""
        raise ConfigError(f"{where}{exc}") from None


def parse_config_text(text: str) -> ExperimentConfig:
    settings = {section: {} for section in (*_SECTION_TYPES, None)}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = _KEY_ALIASES.get(key.strip(), key.strip())
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        section, attribute, coerce, _ = CONFIG_SCHEMA[key]
        try:
            settings[section][attribute] = (line_no, coerce(value.strip()))
        except ValueError as exc:
            raise ConfigError(f"line {line_no}: {key}: {exc}") from None
    sections = {name: _construct(cls, settings[name], name)
                for name, cls in _SECTION_TYPES.items()}
    return _construct(ExperimentConfig, settings[None], "top level", **sections)


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text)


def config_canonical_text(config: ExperimentConfig) -> str:
    lines = []
    for key, (section, attribute, _, hashed) in CONFIG_SCHEMA.items():
        value = getattr(getattr(config, section) if section else config, attribute)
        if hashed and value is not None:
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"


def config_hash(config: ExperimentConfig) -> str:
    """Digest of the canonical text and, for a csv dataset, of the CSVs.

    A csv dataset is identified by the contents of its files, not by where
    they lie: its source_path and target_path lines are left out of the
    hashed text, so the same files in another directory give the same hash."""
    lines = config_canonical_text(config).splitlines(keepends=True)
    csv_files = []
    if config.dataset.kind == "csv":
        lines = [line for line in lines
                 if not line.startswith(("dataset.source_path=", "dataset.target_path="))]
        csv_files = [config.dataset.source_path, config.dataset.target_path]
    digest = hashlib.sha256("".join(lines).encode())
    for path in csv_files:
        digest.update(hashlib.sha256(Path(path).read_bytes()).digest())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# pipeline stages

class StageFailure(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


def _meta(digest: str, seed=None) -> str:
    """Header metadata naming a config by its config_hash digest."""
    suffix = f" seed={seed}" if seed is not None else ""
    return f"config_hash={digest}{suffix}"


def build_dataset(config: ExperimentConfig):
    if config.dataset.kind == "synthetic":
        return data.synth_generate(config.synth)
    section = config.dataset
    dataset = data.ingest_csv(section.source_path, section.target_path,
                              user_column=section.user_column,
                              item_column=section.item_column,
                              rating_column=section.rating_column,
                              attribute_column=section.attribute_column,
                              positive_threshold=section.positive_threshold)
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
    data.save_split(split, out / "splits", extra_meta=_meta(config_hash(config)))
    return dataset, truth, split


def _require_test_lists(split: data.SplitResult, out: Path) -> None:
    """Refuse a split that can score no model, before a seed is trained or loaded."""
    if not split.eval_candidates:
        raise data.SplitError(
            f"{out / 'splits' / 'candidates_test.csv'} holds no candidate lists")


def train_seed(config: ExperimentConfig, dataset, split, seed: int,
               out: Path) -> dict:
    _require_test_lists(split, out)
    seed_dir = out / f"seed_{seed}"
    seed_dir.mkdir(parents=True, exist_ok=True)
    train_config = replace(config.train, seed=seed)
    result = training.train(dataset, split, train_config)
    digest = config_hash(config)
    meta = _meta(digest, seed)
    result.params.save(seed_dir / "checkpoint.nmc",
                       meta={"config_hash": digest, "seed": str(seed)})
    training.history_to_csv(result.history, seed_dir / "history.csv",
                            header_meta=meta)
    metrics = _score_seed(config, result.params, result.adjacency, split, seed_dir, meta)
    if result.adjacency is not None:
        causal.export_edge_list(result.adjacency, config.graph_threshold,
                                seed_dir / "graph_edges.csv", extra_meta=meta)
    return metrics


def _score_seed(config: ExperimentConfig, params, adjacency, split,
                seed_dir: Path, meta: str) -> dict:
    """Test metrics of one seed's model, also written to its metrics_seed.csv."""
    metrics = evaluation.evaluate(params, adjacency, split, ks=config.eval_ks)
    evaluation.write_metrics_csv(evaluation.aggregate_runs([metrics]), config.split.kind,
                                 seed_dir / "metrics_seed.csv", header_meta=meta,
                                 value_format="{!r}")
    return metrics


def evaluate_seed(config: ExperimentConfig, dataset, split, seed: int,
                  out: Path) -> dict:
    """Re-score seed's stored checkpoint on split; dataset is not used."""
    _require_test_lists(split, out)
    seed_dir = out / f"seed_{seed}"
    checkpoint = seed_dir / "checkpoint.nmc"
    if not checkpoint.is_file():
        raise StageFailure("evaluate", FileNotFoundError(
            f"no checkpoint {checkpoint}; train seed {seed} first"))
    params = model.ModelParams.load(checkpoint)
    # an id beyond the checkpoint's tables would reach scoring as a ShapeError
    lists, dims = split.eval_candidates, params.dims
    for what, ids, size in (("user", lists.users, dims.n_users),
                            ("target item", lists.items, dims.n_target_items)):
        largest = np.max(ids, initial=-1)
        if largest >= size:
            raise StageFailure("evaluate", ValueError(
                f"{checkpoint} holds {size} {what}s, but the split's test lists "
                f"hold {what} id {largest}"))
    adjacency = (None if config.train.ablation == "no_causal"
                 else params.effective_adjacency_matrix())
    try:
        # the finite checks name an overflow; numpy need not warn of it too
        with np.errstate(over="ignore", invalid="ignore"):
            return _score_seed(config, params, adjacency, split, seed_dir,
                               _meta(config_hash(config), seed))
    except dc.NonFiniteError as exc:
        raise StageFailure("evaluate", ValueError(
            f"{checkpoint} cannot score the split's test lists: {exc}")) from None


def write_report(config: ExperimentConfig, runs: list, out: Path,
                 iid_report: evaluation.MetricsReport | None = None) -> evaluation.MetricsReport:
    report = evaluation.aggregate_runs(runs)
    if iid_report is not None:
        report = evaluation.degradation_report(iid_report, report)
    evaluation.write_metrics_csv(report, config.split.kind, out / "metrics.csv",
                                 header_meta=_meta(config_hash(config)))
    markdown = evaluation.metrics_markdown({config.split.kind: report},
                                           ks=config.eval_ks)
    (out / "metrics.md").write_text(markdown + "\n", encoding="utf-8")
    return report


def load_seed_metrics(out: Path, seeds) -> list:
    """{metric@k: mean} of each seed's metrics_seed.csv. A file that cannot
    be read, a malformed row, a repeated metric@k, or a mean that is not a
    finite number in [0, 1] is a StageFailure naming the file and line."""
    runs = []
    for seed in seeds:
        path = out / f"seed_{seed}" / "metrics_seed.csv"
        number = 0
        try:
            run = {}
            lines = path.read_text(encoding="utf-8").splitlines()
            for number, line in enumerate(lines, 1):
                if line.startswith("#") or line.startswith("setting,") or not line:
                    continue
                _, metric, k, mean, _, _ = line.split(",")
                key, value = f"{metric}@{k}", float(mean)
                if key in run:
                    raise ValueError(f"{key} appears twice")
                if not 0.0 <= value <= 1.0:  # also false for nan
                    raise ValueError(f"mean {mean} of {key} is not a finite number in [0, 1]")
                run[key] = value
        except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
            where = f"{path} line {number}" if number else str(path)
            raise StageFailure("report", ValueError(f"{where}: {exc}")) from None
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

def _print_report(report: evaluation.MetricsReport) -> None:
    for key in sorted(report.mean):
        print(f"{key}: {report.mean[key]:.4f} (±{report.std[key]:.4f})")


def _cmd_prepare(args) -> int:
    config = _config_from_args(args)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataset, _, split = prepare(config, out)
    print(f"splits written to {out / 'splits'}")
    stats, section = dataset.stats, config.dataset
    files = [] if stats is None else [
        f"{section.source_path}: {stats.source_rows} positive rows, "
        f"{stats.source_users_dropped} users dropped",
        f"{section.target_path}: {stats.target_rows} positive rows, "
        f"{stats.target_users_dropped} users dropped"]
    print("; ".join(files + [f"forced train moves: {split.forced_train_moves}"]))
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
    _print_report(run_experiment(config))
    return 0


def _cmd_evaluate(args) -> int:
    config = _config_from_args(args)
    out = Path(config.out_dir)
    split = data.load_split(out / "splits")
    stored, expected = split.meta.get("config_hash"), config_hash(config)
    if stored != expected:
        raise StageFailure("evaluate", ValueError(
            f"{out / 'splits' / 'train.csv'} was written for config_hash={stored}, "
            f"this config has config_hash={expected}; run prepare or train again"))
    seeds = [args.seed] if args.seed is not None else config.seeds
    runs = [evaluate_seed(config, None, split, seed, out) for seed in seeds]
    _print_report(evaluation.aggregate_runs(runs))
    return 0


def _cmd_ablate(args) -> int:
    config = _config_from_args(args)
    config.train = replace(config.train, ablation=args.mode)
    config.out_dir = str(Path(config.out_dir) / f"ablate_{args.mode}")
    _print_report(run_experiment(config))
    return 0


def _cmd_report(args) -> int:
    config = _config_from_args(args)
    out = Path(config.out_dir)
    directories = [out]
    if args.iid_dir:
        # the paired run may differ from this one in its split kind and mixes only
        directories.append(Path(args.iid_dir))
        path = directories[1] / "config.txt"
        try:
            theirs = set(path.read_text(encoding="utf-8").splitlines())
        except (OSError, ValueError) as exc:
            raise StageFailure("report", ValueError(f"{path}: {exc}")) from None
        ours = set(config_canonical_text(config).splitlines())
        differ = {line.partition("=")[0] for line in theirs ^ ours}
        differ -= {"split.kind", "split.train_mix", "split.test_mix"}
        if differ:
            raise StageFailure("report", ValueError(
                f"{path} differs from this run's config in {', '.join(sorted(differ))}"))
    expected = sorted(evaluation.metric_key(m, k) for m in ("hr", "ndcg")
                      for k in config.eval_ks)
    runs = []
    for directory in directories:
        runs.append(load_seed_metrics(directory, config.seeds))
        for seed, run in zip(config.seeds, runs[-1]):
            if sorted(run) != expected:
                raise StageFailure("report", ValueError(
                    f"{directory / f'seed_{seed}' / 'metrics_seed.csv'} holds "
                    f"metrics {sorted(run)}, expected {expected}"))
    iid_report = evaluation.aggregate_runs(runs[1]) if args.iid_dir else None
    report = write_report(config, runs[0], out, iid_report=iid_report)
    print((out / "metrics.md").read_text(encoding="utf-8"))
    return 0


def _cmd_gradcheck(args) -> int:
    report = gradcheck.run_gradient_check(seed=args.seed,
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
    lines = ["i,j,weight"]
    for i, j in sorted(truth.edges):
        lines.append(f"{i},{j},{truth.weight_matrix[i, j - config.synth.k]:.12g}")
    (out / "true_edges.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"synthetic dataset written to {out}")
    return 0


def _config_from_args(args) -> ExperimentConfig:
    config = load_config(args.config)
    if args.out:
        config.out_dir = args.out
    return config


def _seed(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _grl_scale(text: str) -> float:
    value = float(text)  # argparse reports a ValueError as an invalid value
    if not 0 <= value < np.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalcdr",
        description="cross-domain causal recommender experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="flat key=value config file")
        p.add_argument("--out", help="output directory override")
        return p

    common(sub.add_parser("prepare", help="build dataset and splits"))
    for command in (common(sub.add_parser("train", help="train all seeds (or one with --seed)")),
                    common(sub.add_parser("evaluate", help="re-score stored checkpoints"))):
        command.add_argument("--seed", type=_seed, help="single-seed override")
    ablate = common(sub.add_parser("ablate", help="run an ablation variant"))
    ablate.add_argument("--mode", choices=("no_causal", "no_source"),
                        required=True)
    report = common(sub.add_parser("report", help="re-aggregate stored seed metrics"))
    report.add_argument("--iid-dir", help="paired IID run for degradation")
    grad = sub.add_parser("gradcheck", help="finite-difference gradient check")
    grad.add_argument("--seed", type=_seed, default=0)
    grad.add_argument("--grl-scale", type=_grl_scale, default=model.LossConfig.grl_scale)
    grad.add_argument("--corrupt-block", choices=sorted(model.PARAM_SHAPES),
                      metavar="BLOCK", help="test hook: corrupt one parameter block's "
                                            "gradient; one of %(choices)s")
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
