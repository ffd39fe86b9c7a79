"""The benchmark's workloads: their inputs, one operation each, and the
checks every operation's outputs must pass.

Inputs are a pure function of (workload, workload seed, scale). On the
training workloads each operation of a run draws its own split and
training seed, and on `wide_train` its own synth seed, from the workload
seed. `ood_train` keeps the criterion-7 dataset itself (synth seed 7):
the size of an `ood_attribute` split follows how the positives fall
between the two attribute groups, and per-dataset sizes ranged over
1740-3280 optimizer steps per operation, which no run-level median could
absorb. The CSV exports and checkpoints of `csv_rescore` are generated
here, not by `causalcdr.data.synth_generate`, so a change to the
generator cannot change what that workload measures. make_inputs.py
writes the inputs in a fresh interpreter; run.py times that as the
benchmark's set-up.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from causalcdr import cli, evaluation, model  # noqa: E402

WORKLOADS = ("ood_train", "wide_train", "csv_rescore")
N_CHECKPOINTS = 5
TEST_KEYS = ("HR@10", "NDCG@10")

# Shapes. `full` is what BENCHMARK.json measures; `tiny` keeps the same
# code paths at a size the benchmark's own tests can run in seconds.
SHAPES = {
    "ood_train": {
        "full": dict(users=400, source_items=400, target_items=300,
                     source_density=0.05, target_density=0.03,
                     k=8, epochs=20, patience=8, synth_seed=7),
        "tiny": dict(users=80, source_items=150, target_items=130,
                     source_density=0.05, target_density=0.03,
                     k=4, epochs=2, patience=8, synth_seed=7),
    },
    "wide_train": {
        "full": dict(users=4000, source_items=3000, target_items=2000,
                     source_density=0.004, target_density=0.002,
                     k=16, epochs=1, patience=10),
        "tiny": dict(users=150, source_items=200, target_items=150,
                     source_density=0.03, target_density=0.02,
                     k=4, epochs=1, patience=10),
    },
    "csv_rescore": {
        "full": dict(users=4000, source_items=3000, target_items=2000,
                     source_density=0.004, target_density=0.002, k=16),
        "tiny": dict(users=150, source_items=200, target_items=150,
                     source_density=0.03, target_density=0.02, k=4),
    },
}


def derived_seed(seed: int, *stream: int) -> int:
    """Independent 31-bit seed for one consumer of the workload seed."""
    state = np.random.SeedSequence([seed, *stream]).generate_state(1)[0]
    return int(state) % (2**31 - 1) + 1


def op_seeds(workload: str, seed: int, scale: str, op_index: int) -> tuple:
    """(synth, split, training) seeds of the op_index-th operation."""
    synth_seed = SHAPES[workload][scale].get("synth_seed")
    if synth_seed is None:
        synth_seed = derived_seed(seed, 1, op_index)
    return synth_seed, derived_seed(seed, 2, op_index), derived_seed(seed, 3, op_index)


def config_text(workload: str, seed: int, scale: str, directory: Path) -> str:
    """The workload's config; on the training workloads it carries the
    seeds of operation 0, and Workload.run re-seeds it per operation."""
    shape = SHAPES[workload][scale]
    synth_seed, split_seed, _ = op_seeds(workload, seed, scale, 0)
    lines = [f"out_dir={directory / 'out'}", f"split.seed={split_seed}"]
    if workload == "csv_rescore":
        lines += [
            "dataset.kind=csv",
            f"dataset.source_path={directory / 'source.csv'}",
            f"dataset.target_path={directory / 'target.csv'}",
            "dataset.attribute_column=attribute",
            "split.kind=iid",
            f"train.k={shape['k']}",
            "seeds=" + ",".join(str(s) for s in range(1, N_CHECKPOINTS + 1)),
        ]
    else:
        lines += [
            f"synth.n_users={shape['users']}",
            f"synth.n_source_items={shape['source_items']}",
            f"synth.n_target_items={shape['target_items']}",
            f"synth.source_density={shape['source_density']}",
            f"synth.target_density={shape['target_density']}",
            f"synth.seed={synth_seed}",
            f"train.k={shape['k']}",
            f"train.epochs={shape['epochs']}",
            f"train.patience={shape['patience']}",
            "train.batch_size=64",
        ]
        if workload == "ood_train":
            lines += ["synth.attribute_shift=2.0", "synth.noise_scale=0.15",
                      "synth.source_map_correlation=0.8", "split.kind=ood_attribute",
                      "split.train_ratio=0.8,0.2", "split.test_ratio=0.2,0.8"]
        else:
            lines += ["split.kind=iid"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# csv_rescore inputs

def _domain_rows(rng, n_users: int, n_items: int, density: float):
    """(users, items, ratings) of one export. Every user and every item
    has a positive, so ingest keeps exactly n_users x n_items; a fifth as
    many extra rows rate below the positive threshold and are dropped."""
    n_pos = int(round(density * n_users * n_items))
    n_low = n_pos // 4
    base = np.arange(max(n_users, n_items))
    anchor = (base % n_users) * n_items + base % n_items
    cells = np.unique(rng.integers(0, n_users * n_items, size=2 * (n_pos + n_low)))
    cells = rng.permutation(np.setdiff1d(cells, anchor))[:n_pos + n_low - len(anchor)]
    cells = np.concatenate([anchor, cells])
    ratings = np.concatenate([rng.integers(4, 6, size=len(cells) - n_low),
                              rng.integers(1, 4, size=n_low)])
    order = rng.permutation(len(cells))
    return cells[order] // n_items, cells[order] % n_items, ratings[order]


def write_csv_exports(seed: int, scale: str, directory: Path) -> None:
    shape = SHAPES["csv_rescore"][scale]
    rng = np.random.default_rng(derived_seed(seed, 4))
    attribute = rng.integers(0, 2, size=shape["users"])
    for name, n_items, density in (
            ("source", shape["source_items"], shape["source_density"]),
            ("target", shape["target_items"], shape["target_density"])):
        users, items, ratings = _domain_rows(rng, shape["users"], n_items, density)
        labels = np.array(["f", "m"])[attribute[users]]
        lines = ["user,item,rating,attribute"]
        lines += [f"{u},{i},{r},{a}" for u, i, r, a in
                  zip(users.tolist(), items.tolist(), ratings.tolist(), labels.tolist())]
        (directory / f"{name}.csv").write_text("\n".join(lines) + "\n",
                                               encoding="utf-8")


def checkpoint_params(seed: int, scale: str, ckpt: int) -> model.ModelParams:
    """The ckpt-th stored checkpoint of csv_rescore, rebuilt in memory."""
    shape = SHAPES["csv_rescore"][scale]
    dims = model.ModelDims(k=shape["k"], n_users=shape["users"],
                           n_source_items=shape["source_items"],
                           n_target_items=shape["target_items"])
    rng = np.random.default_rng(derived_seed(seed, 5, ckpt))
    matrices = {name: rng.uniform(-0.5, 0.5, size=shape_fn(dims))
                for name, shape_fn in sorted(model.PARAM_SHAPES.items())}
    return model.ModelParams(dims=dims, matrices=matrices)


def generate_inputs(workload: str, seed: int, scale: str, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "config.cfg").write_text(
        config_text(workload, seed, scale, directory), encoding="utf-8")
    if workload != "csv_rescore":
        return
    write_csv_exports(seed, scale, directory)
    for ckpt in range(1, N_CHECKPOINTS + 1):
        seed_dir = directory / "out" / f"seed_{ckpt}"
        seed_dir.mkdir(parents=True, exist_ok=True)
        checkpoint_params(seed, scale, ckpt).save(seed_dir / "checkpoint.nmc",
                                                  meta={"seed": str(ckpt)})


# ---------------------------------------------------------------------------
# operations

class CheckFailure(Exception):
    """An operation's outputs are wrong."""


@dataclass
class OpResult:
    wall_s: float
    work: int             # optimizer steps, or candidate lists scored
    work_s: float         # wall time of the calls doing that work
    test: dict = field(default_factory=dict)   # TEST_KEYS -> value


def _check_metrics(metrics: dict, where: str) -> None:
    for key, value in metrics.items():
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            raise CheckFailure(f"{where}: {key}={value!r} is not a rate in [0, 1]")


def _require_files(seed_dir: Path, names) -> None:
    missing = [n for n in names if not (seed_dir / n).is_file()]
    if missing:
        raise CheckFailure(f"{seed_dir.name}: missing {', '.join(missing)}")


def _stored_metrics(out: Path, seed: int) -> dict:
    return cli.load_seed_metrics(out, [seed])[0]


def _rescore(params: model.ModelParams, config, split) -> dict:
    return evaluation.evaluate(params, params.effective_adjacency_matrix(),
                               split, ks=config.eval_ks)


class Workload:
    """One workload's inputs on disk plus its operation."""

    def __init__(self, name: str, seed: int, scale: str, directory: Path):
        self.name, self.seed, self.scale = name, seed, scale
        self.config = cli.load_config(directory / "config.cfg")
        self.out = Path(self.config.out_dir)

    def run(self, op_index: int) -> tuple[OpResult, object]:
        """Run operation op_index; returns its timing and a closure that
        checks its outputs. Nothing after the program's last call invokes
        the program, so a caller may stop tracing before the check."""
        if self.name == "csv_rescore":
            return self._rescore_op()
        synth_seed, split_seed, train_seed = op_seeds(self.name, self.seed,
                                                      self.scale, op_index)
        config = replace(self.config, synth=replace(self.config.synth, seed=synth_seed),
                         split=replace(self.config.split, seed=split_seed))
        return self._train_op(config, train_seed)

    def _train_op(self, config, seed: int):
        out = self.out
        t0 = time.perf_counter()
        out.mkdir(parents=True, exist_ok=True)
        dataset, _, split = cli.prepare(config, out)
        t1 = time.perf_counter()
        metrics = cli.train_seed(config, dataset, split, seed, out)
        t2 = time.perf_counter()
        seed_dir = out / f"seed_{seed}"
        steps = self._steps_from_artifacts(seed_dir)
        result = OpResult(wall_s=t2 - t0, work=steps, work_s=t2 - t1,
                          test={key: metrics[key] for key in TEST_KEYS})

        def check():
            _require_files(seed_dir, ("checkpoint.nmc", "history.csv",
                                      "metrics_seed.csv", "graph_edges.csv"))
            _check_metrics(metrics, f"seed {seed}")
            stored = _stored_metrics(out, seed)
            if stored != metrics:
                raise CheckFailure(f"seed {seed}: metrics_seed.csv {stored} "
                                   f"differs from the run's {metrics}")
            rescored = _rescore(model.ModelParams.load(seed_dir / "checkpoint.nmc"),
                                config, split)
            if rescored != stored:
                raise CheckFailure(f"seed {seed}: re-scoring the checkpoint gives "
                                   f"{rescored}, metrics_seed.csv has {stored}")

        return result, check

    def _steps_from_artifacts(self, seed_dir: Path) -> int:
        """Optimizer steps of a run: epochs in history.csv times the batches
        of one epoch's target examples (each training positive plus its
        sampled negatives; no user here has interacted with every item)."""
        history = (seed_dir / "history.csv").read_text(encoding="utf-8")
        epochs = sum(1 for line in history.splitlines()
                     if line[:1].isdigit())
        train_csv = (self.out / "splits" / "train.csv").read_text(encoding="utf-8")
        positives = sum(1 for line in train_csv.splitlines()
                        if line.startswith("target,"))
        examples = positives * (1 + self.config.train.n_neg_per_positive)
        return epochs * math.ceil(examples / self.config.train.batch_size)

    def _rescore_op(self):
        config, out = self.config, self.out
        t0 = time.perf_counter()
        dataset, _, split = cli.prepare(config, out)
        t1 = time.perf_counter()
        runs = {seed: cli.evaluate_seed(config, dataset, split, seed, out)
                for seed in config.seeds}
        t2 = time.perf_counter()
        lists = len(split.eval_candidates) * len(config.seeds)
        test = {key: float(np.mean([m[key] for m in runs.values()]))
                for key in TEST_KEYS}
        result = OpResult(wall_s=t2 - t0, work=lists, work_s=t2 - t1, test=test)

        def check():
            for seed, metrics in runs.items():
                _require_files(out / f"seed_{seed}", ("metrics_seed.csv",))
                _check_metrics(metrics, f"checkpoint {seed}")
                stored = _stored_metrics(out, seed)
                in_memory = _rescore(checkpoint_params(self.seed, self.scale, seed),
                                     config, split)
                if not (stored == metrics == in_memory):
                    raise CheckFailure(
                        f"checkpoint {seed}: evaluate gave {metrics}, "
                        f"metrics_seed.csv has {stored}, in-memory "
                        f"evaluation gives {in_memory}")

        return result, check
