"""Cross-domain implicit-feedback data: ingestion, IID/OOD splits,
negative sampling, leave-one-out evaluation candidates, and a synthetic
generator with a known attribute-to-preference causal structure.

All operations are pure functions of (inputs, seed); nothing here keeps
hidden random state.
"""

from __future__ import annotations

import csv
import hashlib
import math
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, compress
from pathlib import Path

import numpy as np

SOURCE = "source"
TARGET = "target"
DOMAINS = (SOURCE, TARGET)

N_EVAL_NEGATIVES = 99


class DataError(ValueError):
    """Malformed or unusable input data."""


class SplitError(ValueError):
    """A split request that cannot be honored on the given dataset."""


@dataclass
class IngestStats:
    source_users_dropped: int = 0
    target_users_dropped: int = 0
    source_rows: int = 0
    target_rows: int = 0


@dataclass
class CrossDomainDataset:
    """Shared-user dataset with dense indices and deduplicated positives."""

    n_users: int
    n_source_items: int
    n_target_items: int
    source_positives: set
    target_positives: set
    user_attribute: np.ndarray | None = None     # per-user label in {0, 1}
    attribute_names: tuple | None = None         # original label strings
    stats: IngestStats | None = None
    attribute_problem: str | None = None         # why a read attribute column gave none

    def positives(self, domain: str) -> set:
        self._check_domain(domain)
        return self.source_positives if domain == SOURCE else self.target_positives

    def n_items(self, domain: str) -> int:
        self._check_domain(domain)
        return self.n_source_items if domain == SOURCE else self.n_target_items

    def user_items(self, domain: str) -> dict:
        """Per-user set of positive items in one domain (cached)."""
        key = "_items_" + domain
        cached = getattr(self, key, None)
        if cached is None:
            cached = {}
            for u, i in self.positives(domain):
                cached.setdefault(u, set()).add(i)
            setattr(self, key, cached)
        return cached

    def target_degrees(self) -> np.ndarray:
        users = np.fromiter((u for u, _ in self.target_positives), dtype=np.int64,
                            count=len(self.target_positives))
        return np.bincount(users, minlength=self.n_users).astype(np.int64, copy=False)

    @staticmethod
    def _check_domain(domain: str) -> None:
        if domain not in DOMAINS:
            raise ValueError(f"unknown domain {domain!r}")


@dataclass
class CandidateLists:
    """Test (or validation) positives, one list per row, each with its 99
    sampled negatives.

    Row r of `items` is the positive held out for `users[r]`, then its 99
    negatives in drawn order. Beyond column 0 the order carries no
    meaning: candidates that score alike are ordered by
    tiebreak_key(tiebreak_seed, user, item).
    """

    users: np.ndarray       # (L,) intp
    items: np.ndarray       # (L, 1 + N_EVAL_NEGATIVES) intp
    tiebreak_seed: int

    def __len__(self):
        return len(self.users)


@dataclass
class SplitResult:
    train: dict
    validation: dict
    test: dict
    eval_candidates: CandidateLists
    val_candidates: CandidateLists
    seed: int
    tiebreak_seed: int
    forced_train_moves: int = 0
    meta: dict = field(default_factory=dict)  # header fields after the seeds (extra_meta)

    def part(self, name: str) -> dict:
        return {"train": self.train, "validation": self.validation,
                "test": self.test}[name]


@dataclass
class SplitSpec:
    """Declarative split request, resolved by generate_split(); SplitError
    on a request that no dataset could honor."""

    kind: str = "iid"                      # iid | ood_degree | ood_attribute
    ratios: tuple = (0.8, 0.1, 0.1)
    train_mix: tuple | None = None         # (first-type share, second-type share)
    test_mix: tuple | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("iid", "ood_degree", "ood_attribute"):
            raise SplitError(f"unknown split kind {self.kind!r}")
        if self.seed < 0:
            raise SplitError(f"seed must be >= 0, got {self.seed}")
        ratios = np.asarray(self.ratios, dtype=np.float64)
        if ratios.shape != (3,) or np.any(ratios < 0) or not 0 < ratios.sum() < np.inf:
            raise SplitError("ratios must be three finite nonnegative shares (train, "
                             f"validation, test) with a positive sum, got {self.ratios}")
        for name, mix in (("train_mix", self.train_mix), ("test_mix", self.test_mix)):
            if mix is None:
                if self.kind != "iid":
                    raise SplitError(f"a {self.kind} split needs train_mix and test_mix")
                continue
            shares = np.asarray(mix, dtype=np.float64)
            if shares.shape != (2,) or np.any(shares < 0) or not np.isclose(shares.sum(), 1.0):
                raise SplitError(f"{name} must be a finite nonnegative pair summing "
                                 f"to 1, got {mix}")


# ---------------------------------------------------------------------------
# ingestion

def _sort_key(key: str):
    """Integer keys first, in numeric order; keys that parse to the same
    integer ("7", "07") and all other keys in string order."""
    try:
        return (0, int(key), key)
    except ValueError:
        return (1, 0, key)


def _kept(path, line_no: int, text, threshold: float) -> bool:
    """Whether a row rated `text` is a positive; DataError on a rating
    that is missing, not a number or not finite."""
    try:
        rating = float(text)
    except (TypeError, ValueError):
        raise DataError(f"{path}: bad rating at line {line_no}") from None
    if not math.isfinite(rating):
        raise DataError(f"{path}: non-finite rating {text!r} at line {line_no}")
    return not rating < threshold


def _read_rows(path, user_column: str, item_column: str, rating_column: str,
               attribute_column: str, threshold: float) -> tuple:
    """(user keys, item keys, attributes) of one domain's positive rows, in
    file order. An attribute is None where its cell is empty or missing,
    and every attribute is None when the file has no attribute column.

    Columns are found by position in the header; a repeated name means its
    last column. Blank lines are skipped, a short row reads None in the
    columns it lacks, and errors name the file line on which the row
    starts.
    """
    users, items, attributes = [], [], []
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet exports write
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file")
            position = {name: j for j, name in enumerate(header)}
            for col in (user_column, item_column) + ((rating_column,) if rating_column else ()):
                if col not in position:
                    raise DataError(f"{path}: missing column {col!r}")
            u, i = position[user_column], position[item_column]
            r = position[rating_column] if rating_column else None
            # the attribute is optional per file
            a = position.get(attribute_column) if attribute_column else None
            width = 1 + max(j for j in (u, i, r, a) if j is not None)
            kept = {}  # rating text -> whether the row is a positive
            end = reader.line_num
            for row in reader:
                line_no, end = end + 1, reader.line_num
                if len(row) < width:
                    if not row:
                        continue
                    row += [None] * (width - len(row))
                user, item = row[u], row[i]
                if not user or not item:
                    raise DataError(f"{path}: malformed row at line {line_no}")
                if r is not None:
                    keep = kept.get(row[r])
                    if keep is None:
                        keep = kept[row[r]] = _kept(path, line_no, row[r], threshold)
                    if not keep:
                        continue
                users.append(user)
                items.append(item)
                attributes.append((row[a] or None) if a is not None else None)
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read CSV file: {exc}") from None
    return users, items, attributes


def ingest_csv(source_path, target_path, *, user_column: str = "user",
               item_column: str = "item", rating_column: str = "rating",
               attribute_column: str = "attribute",
               positive_threshold: float = 4.0) -> CrossDomainDataset:
    """Build the shared-user dataset from two comma-separated files with a
    header row (see _read_rows for how rows are read).

    Rows with rating >= positive_threshold become positives (all rows when
    rating_column is ""; no attribute when attribute_column is "" or absent
    from a file). Users are restricted to the intersection of the two files'
    user keys; indices are dense and sorted numerically when every key
    parses as an integer. The user attribute is kept only when every shared
    user has one of exactly two labels; otherwise attribute_problem says
    why it was not.
    """
    if not math.isfinite(positive_threshold):
        raise DataError(f"positive_threshold must be finite, got {positive_threshold}")
    columns = (user_column, item_column, rating_column, attribute_column)
    raw = {}
    attrs: dict[str, str] = {}
    for domain, path in ((SOURCE, source_path), (TARGET, target_path)):
        users, items, attributes = _read_rows(path, *columns, positive_threshold)
        for user, attribute in zip(users, attributes):
            if attribute is not None and attrs.setdefault(user, attribute) != attribute:
                raise DataError(f"user {user!r} has conflicting attribute labels")
        raw[domain] = users, items

    source_users = set(raw[SOURCE][0])
    target_users = set(raw[TARGET][0])
    shared = source_users & target_users
    if not shared:
        raise DataError("no users shared between the source and target files")

    user_keys = sorted(shared, key=_sort_key)
    user_index = {u: i for i, u in enumerate(user_keys)}
    stats = IngestStats(
        source_users_dropped=len(source_users - shared),
        target_users_dropped=len(target_users - shared),
        source_rows=len(raw[SOURCE][0]),
        target_rows=len(raw[TARGET][0]),
    )

    n_items = {}
    positives = {}
    for domain, domain_users in ((SOURCE, source_users), (TARGET, target_users)):
        users, items = raw[domain]
        if len(domain_users) > len(shared):
            rows = list(map(shared.__contains__, users))
            users, items = list(compress(users, rows)), list(compress(items, rows))
        keys = sorted(set(items), key=_sort_key)
        index = {key: j for j, key in enumerate(keys)}
        n_items[domain] = len(keys)
        # each tuple holds the one int object of its user's and item's index
        positives[domain] = set(zip(map(user_index.__getitem__, users),
                                    map(index.__getitem__, items)))

    attribute = None
    names = None
    problem = None
    if attrs:
        labels = sorted({attrs[u] for u in user_keys if u in attrs})
        unlabelled = next((u for u in user_keys if u not in attrs), None)
        if unlabelled is not None:
            problem = f"user {unlabelled!r} has no attribute label"
        elif len(labels) != 2:
            shown = ", ".join(map(repr, labels[:5])) + (", ..." if len(labels) > 5 else "")
            problem = f"expected 2 attribute labels, found {len(labels)}: {shown}"
        else:
            names = (labels[0], labels[1])
            attribute = np.array([labels.index(attrs[u]) for u in user_keys],
                                 dtype=np.int8)

    return CrossDomainDataset(
        n_users=len(user_keys),
        n_source_items=n_items[SOURCE],
        n_target_items=n_items[TARGET],
        source_positives=positives[SOURCE],
        target_positives=positives[TARGET],
        user_attribute=attribute,
        attribute_names=names,
        stats=stats,
        attribute_problem=problem,
    )


def save_dataset_csv(dataset: CrossDomainDataset, source_path, target_path) -> None:
    """Canonical on-disk form: user,item,rating[,attribute] with dense
    indices as keys and rating 5 for every positive."""
    has_attr = dataset.user_attribute is not None
    for domain, path in ((SOURCE, source_path), (TARGET, target_path)):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["user", "item", "rating"] + (["attribute"] if has_attr else []))
            for u, i in sorted(dataset.positives(domain)):
                row = [u, i, 5]
                if has_attr:
                    label = int(dataset.user_attribute[u])
                    name = dataset.attribute_names[label] if dataset.attribute_names else label
                    row.append(name)
                writer.writerow(row)


# ---------------------------------------------------------------------------
# splitting

def _apportion(n: int, ratios) -> tuple:
    """Largest-remainder integer split of n by the normalized ratios."""
    ratios = np.asarray(ratios, dtype=np.float64)
    shares = ratios / ratios.sum()
    raw = shares * n
    counts = np.floor(raw).astype(int)
    order = np.argsort(-(raw - counts), kind="stable")
    for idx in order[: n - counts.sum()]:
        counts[idx] += 1
    return tuple(int(c) for c in counts)


def _pair_order(pairs: list) -> np.ndarray:
    """The permutation that sorts distinct (user, item) index pairs as
    sorted() would, found by np.lexsort instead of tuple comparisons."""
    flat = np.fromiter(chain.from_iterable(pairs), dtype=np.intp, count=2 * len(pairs))
    return np.lexsort((flat[1::2], flat[::2]))


def _partition_domain(positives, ratios, rng) -> tuple:
    pool = list(positives)
    # shuffling sorted(pool)'s positions draws what shuffling that list would
    order = _pair_order(pool)
    rng.shuffle(order)
    pool = list(map(pool.__getitem__, order.tolist()))
    n_train, n_val, n_test = _apportion(len(pool), ratios)
    train = set(pool[:n_train])
    val = set(pool[n_train:n_train + n_val])
    test = set(pool[n_train + n_val:])
    return train, val, test


def _ensure_test_users_trained(train: set, val: set, test: set, rng,
                               types=None) -> int:
    """Every user with a held-out target positive keeps at least one
    training positive; violators swap with a donor so the part sizes stay
    exact. When a type array is given, donors of the promoted user's type
    are preferred so biased mixtures stay put. Users whose entire history
    landed outside train fall back to train-only when no donor exists.
    """
    moves = 0
    train_per_user = {}
    for u, _ in train:
        train_per_user[u] = train_per_user.get(u, 0) + 1

    # Donors are the train pairs of users with two or more of them, sorted,
    # overall and per type. A promoted user goes from zero to one pair, so
    # the lists only shrink: by each demoted pair, and by a user's last pair
    # once its count drops to one. Kept current, they equal the lists a
    # fresh sort would give at every draw.
    donors = sorted(p for p in train if train_per_user[p[0]] >= 2)
    if types is not None:
        by_type: dict = {}
        for p in donors:
            by_type.setdefault(types[p[0]], []).append(p)

    def drop(pair) -> None:
        same_type = [by_type[types[pair[0]]]] if types is not None else []
        for pairs in (donors, *same_type):
            del pairs[bisect_left(pairs, pair)]

    for part in (val, test):
        # a demoted pair's user keeps a train pair, so this index of the
        # violators' held pairs stays exact while they are promoted
        held: dict = {}
        for p in sorted(part):
            if train_per_user.get(p[0], 0) == 0:
                held.setdefault(p[0], []).append(p)
        for u, user_held in held.items():
            promote = user_held[rng.integers(len(user_held))]
            pool = donors
            if types is not None:
                pool = by_type.get(types[u]) or donors
            part.discard(promote)
            train.add(promote)
            train_per_user[u] = 1
            moves += 1
            if pool:
                demote = pool[rng.integers(len(pool))]
                train.discard(demote)
                part.add(demote)
                d = demote[0]
                train_per_user[d] -= 1
                drop(demote)
                if train_per_user[d] == 1:
                    drop(donors[bisect_left(donors, (d,))])
    return moves


def _user_types_by_degree(dataset: CrossDomainDataset) -> np.ndarray:
    """1 for users strictly above the median target degree, else 0, so
    ood_degree mix pairs read (high, low)."""
    degrees = dataset.target_degrees()
    median = float(np.median(degrees))
    return (degrees > median).astype(np.int8)


def _user_types_by_attribute(dataset: CrossDomainDataset) -> np.ndarray:
    """1 for users with the first label of the binary attribute, else 0, so
    ood_attribute mix pairs read (first, second label) in sorted order."""
    if dataset.attribute_problem:
        raise SplitError(f"dataset has no binary user attribute: "
                         f"{dataset.attribute_problem}")
    if dataset.user_attribute is None:
        raise SplitError("dataset has no user attribute column")
    labels = np.unique(dataset.user_attribute)
    if len(labels) != 2:
        raise SplitError(f"attribute must be binary, found {len(labels)} labels")
    return (dataset.user_attribute == labels[0]).astype(np.int8)


def _split_biased(dataset, types, spec: SplitSpec, rng) -> tuple:
    """(parts, forced moves) of a target split biased by types[u] in {0, 1}:
    the train and test parts hold type-1 interactions at the spec's mix
    shares, and validation mirrors train. The corpus is subsampled to the
    largest size at which both mixtures are feasible."""
    ratios, train_mix, test_mix = spec.ratios, spec.train_mix, spec.test_mix

    pools = {1: sorted(p for p in dataset.target_positives if types[p[0]] == 1),
             0: sorted(p for p in dataset.target_positives if types[p[0]] == 0)}
    for pool in pools.values():
        rng.shuffle(pool)

    r_train, r_val, r_test = np.asarray(ratios, dtype=np.float64) / np.sum(ratios)
    # validation mirrors the training mixture; per-type demand per interaction
    demand = {
        1: (r_train + r_val) * train_mix[0] + r_test * test_mix[0],
        0: (r_train + r_val) * train_mix[1] + r_test * test_mix[1],
    }
    limits = []
    for t in (1, 0):
        if demand[t] == 0:
            continue
        limits.append(len(pools[t]) / demand[t])
        if not pools[t]:
            raise SplitError(
                f"requested mixture needs type-{t} interactions but none exist; "
                f"achievable maximum share for that type is 0")
    n_used = int(min(limits)) if limits else 0
    if n_used == 0:
        raise SplitError("no interactions satisfy the requested mixture")

    def plan(n: int):
        """Per-(part, type) take counts, or None if a pool is overdrawn."""
        sizes = _apportion(n, ratios)
        takes = [_apportion(size, mix) for size, mix in
                 zip(sizes, (train_mix, train_mix, test_mix))]
        for t, idx in ((1, 0), (0, 1)):
            if sum(take[idx] for take in takes) > len(pools[t]):
                return None
        return takes

    # largest-remainder rounding can overdraw a pool by a part or two
    takes = plan(n_used)
    while takes is None and n_used > 0:
        n_used -= 1
        takes = plan(n_used)
    if takes is None:
        raise SplitError("no interactions satisfy the requested mixture")

    train, val, test = set(), set(), set()
    cursor = {1: 0, 0: 0}
    for part, (take_first, take_second) in zip((train, val, test), takes):
        for t, take in ((1, take_first), (0, take_second)):
            part.update(pools[t][cursor[t]:cursor[t] + take])
            cursor[t] += take

    src_train, src_val, src_test = _partition_domain(
        dataset.source_positives, ratios, rng)
    parts = ({SOURCE: src_train, TARGET: train},
             {SOURCE: src_val, TARGET: val},
             {SOURCE: src_test, TARGET: test})
    moves = _ensure_test_users_trained(parts[0][TARGET], parts[1][TARGET],
                                       parts[2][TARGET], rng, types=types)
    return parts, moves


def generate_split(dataset: CrossDomainDataset, spec: SplitSpec) -> SplitResult:
    """Split the dataset as the spec requests. iid partitions each domain
    at random; the ood kinds bias the target split by user degree or by the
    binary user attribute. Target test users always keep a training
    positive."""
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "iid":
        train, val, test = {}, {}, {}
        for domain in DOMAINS:
            train[domain], val[domain], test[domain] = _partition_domain(
                dataset.positives(domain), spec.ratios, rng)
        moves = _ensure_test_users_trained(train[TARGET], val[TARGET], test[TARGET], rng)
    else:
        by = _user_types_by_degree if spec.kind == "ood_degree" else _user_types_by_attribute
        (train, val, test), moves = _split_biased(dataset, by(dataset), spec, rng)
    tiebreak_seed = int(rng.integers(0, 2**31 - 1))
    return SplitResult(train=train, validation=val, test=test,
                       eval_candidates=build_eval_candidates(
                           dataset, sorted(test[TARGET]), seed=tiebreak_seed),
                       val_candidates=build_eval_candidates(
                           dataset, sorted(val[TARGET]), seed=tiebreak_seed),
                       seed=spec.seed, tiebreak_seed=tiebreak_seed,
                       forced_train_moves=moves)


def realized_mixture(positives, types) -> float:
    """Share of interactions whose user is type 1."""
    if not positives:
        return 0.0
    return sum(1 for u, _ in positives if types[u] == 1) / len(positives)


# ---------------------------------------------------------------------------
# sampling

@dataclass
class TrainingExamples:
    users: np.ndarray
    items: np.ndarray
    labels: np.ndarray
    skipped_saturated_users: int = 0

    def __len__(self):
        return len(self.users)


@dataclass
class PositiveGroups:
    """A split's training positives of one domain grouped by user, in
    (user, item) order, with the example layout they fix: everything of
    sample_train_negatives that no seed changes. A training run builds it
    once (group_train_positives) and passes it to every epoch's sampler.
    The example arrays are read-only, so the epochs can share them."""

    domain: str
    quotas: list        # (items the user knows, negative slots) per unsaturated user
    skipped: int        # positives of users who know every item
    users: np.ndarray   # per example
    labels: np.ndarray  # per example: 1.0 for a positive, 0.0 for a negative
    positive_slots: np.ndarray
    positive_items: np.ndarray


def group_train_positives(dataset: CrossDomainDataset, split: SplitResult,
                          domain: str, n_neg_per_positive: int) -> PositiveGroups:
    """Each positive is followed by its user's quota of negative slots:
    n_neg_per_positive, or none for a user who knows every item."""
    if n_neg_per_positive < 1:
        raise ValueError("n_neg_per_positive must be >= 1")
    n_items = dataset.n_items(domain)
    user_items = dataset.user_items(domain)
    by_user: dict[int, list] = {}
    for u, i in sorted(split.train[domain]):
        by_user.setdefault(u, []).append(i)
    per_user = [0 if len(user_items.get(u, ())) >= n_items else n_neg_per_positive
                for u in by_user]
    quotas = [(user_items.get(u, set()), len(positives) * per)
              for (u, positives), per in zip(by_user.items(), per_user) if per]
    skipped = sum(len(p) for p, per in zip(by_user.values(), per_user) if per == 0)

    n_positives = [len(positives) for positives in by_user.values()]
    run = 1 + np.repeat(np.array(per_user, dtype=np.intp), n_positives)
    starts = np.cumsum(run) - run
    users = np.repeat(np.repeat(np.array(list(by_user), dtype=np.intp), n_positives), run)
    labels = np.zeros(len(users))
    labels[starts] = 1.0
    positive_items = np.array([i for positives in by_user.values() for i in positives],
                              dtype=np.intp)
    for array in (users, labels):
        array.flags.writeable = False
    return PositiveGroups(domain, quotas, skipped, users, labels, starts, positive_items)


def sample_train_negatives(dataset: CrossDomainDataset, groups: PositiveGroups,
                           seed: int) -> TrainingExamples:
    """Pair every training positive of groups.domain with the
    n_neg_per_positive uniform negatives its grouping was built for, each
    an item the user has never interacted with in that domain.

    Positives are taken in (user, item) order and every negative slot is
    filled by rejection from one uniform stream: a draw the user knows is
    discarded and the next draw is tried. The stream is read in blocks of
    rng.integers(n_items, size=unfilled slots). Every slot needs at least
    one more draw, so a block never runs past the draws that one call per
    draw would consume, and the examples equal that loop's.

    groups is group_train_positives of the split, built once for many
    seeds; the examples' users and labels are its read-only arrays.
    """
    rng = np.random.default_rng(seed)
    n_items = dataset.n_items(groups.domain)
    unfilled = sum(need for _, need in groups.quotas)
    negatives: list = []
    block: list = []
    at = 0
    for known, need in groups.quotas:
        while need:
            if at == len(block):
                block, at = rng.integers(n_items, size=unfilled).tolist(), 0
            drawn = block[at:at + need]
            at += len(drawn)
            kept = [j for j in drawn if j not in known]
            negatives += kept
            need -= len(kept)
            unfilled -= len(kept)

    # each positive followed by its negatives, in the order drawn
    items = np.empty(len(groups.users), dtype=np.intp)
    items[groups.positive_slots] = groups.positive_items
    items[groups.labels == 0.0] = negatives
    return TrainingExamples(groups.users, items, groups.labels,
                            skipped_saturated_users=groups.skipped)


CANDIDATE_BLOCK_LISTS = 64


def tiebreak_key(seed: int, user: int, item: int) -> tuple:
    """Where item ranks among user's candidates that score alike, smaller
    first: the first 8 bytes, read big-endian, of
    sha1(f"{seed}:{user}:{item}"), then the item id."""
    digest = hashlib.sha1(b"%d:%d:%d" % (seed, user, item)).digest()
    return int.from_bytes(digest[:8], "big"), item


def _add_id_text(table: dict, rows: list, form) -> None:
    """Add form % id to table for each id in rows (lists of ints) that it
    lacks, so a table grows with the ids present, not with the largest."""
    ids = set(chain.from_iterable(rows)).difference(table)
    table.update(zip(ids, map(form.__mod__, ids)))


def build_eval_candidates(dataset: CrossDomainDataset, test_positives,
                          seed: int) -> CandidateLists:
    """99 uniform never-interacted negatives per test positive; each row
    holds the positive, then its negatives in the order they were drawn.
    seed drives the draws and is the lists' tiebreak_seed.
    """
    rng = np.random.default_rng(seed)
    user_items = dataset.user_items(TARGET)
    n_items = dataset.n_target_items
    pairs = sorted(test_positives)
    items = np.empty((len(pairs), 1 + N_EVAL_NEGATIVES), dtype=np.intp)
    mask = np.ones(n_items, dtype=bool)
    for r, (u, pos) in enumerate(pairs):
        known = list(user_items.get(u, ()))
        mask[known] = False
        eligible = np.flatnonzero(mask)
        mask[known] = True
        if len(eligible) < N_EVAL_NEGATIVES:
            raise SplitError(
                f"user {u} has only {len(eligible)} eligible negatives; "
                f"{N_EVAL_NEGATIVES} required")
        items[r, 0] = pos
        items[r, 1:] = rng.choice(eligible, size=N_EVAL_NEGATIVES, replace=False)
    return CandidateLists(users=np.array([u for u, _ in pairs], dtype=np.intp),
                          items=items, tiebreak_seed=seed)


# ---------------------------------------------------------------------------
# synthetic data with known causal structure

@dataclass
class SynthConfig:
    """Synthetic dataset request, drawn by synth_generate(); DataError on a
    request that the generator cannot honor."""

    n_users: int = 500
    n_source_items: int = 400
    n_target_items: int = 300
    k: int = 4
    target_density: float = 0.02
    source_density: float = 0.04
    n_edges: int = 8
    weight_matrix: np.ndarray | None = None   # target map; n_edges still shapes the source map
    noise_scale: float = 0.1
    attribute_shift: float = 0.0              # subpopulation mean shift
    source_map_correlation: float = 0.7
    degree_spread: float = 0.4                # exponent tempering activity skew
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        for name in ("n_users", "n_source_items", "n_target_items", "k"):
            if not 1 <= getattr(self, name) <= np.iinfo(np.intp).max:
                raise DataError(f"{name} must lie in [1, {np.iinfo(np.intp).max}], "
                                f"got {getattr(self, name)}")
        k = self.k
        # checked with a weight_matrix too: the source map is always random
        if not k <= self.n_edges <= k * k:
            raise DataError(f"n_edges must lie in [{k}, {k * k}], got {self.n_edges}")
        if self.weight_matrix is not None and np.shape(self.weight_matrix) != (k, k):
            raise DataError(f"weight matrix must be {k}x{k}, "
                            f"got {np.shape(self.weight_matrix)}")
        # a NaN or an infinity here leaves the affinity tables without positives
        for name in ("attribute_shift", "noise_scale", "source_map_correlation"):
            if not math.isfinite(getattr(self, name)):
                raise DataError(f"{name} must be finite, got {getattr(self, name)}")
        if self.weight_matrix is not None:
            try:
                finite = np.isfinite(np.asarray(self.weight_matrix, dtype=np.float64)).all()
            except (TypeError, ValueError):
                finite = False
            if not finite:
                raise DataError("weight matrix entries must be finite numbers")
        if not 0 < self.degree_spread < np.inf:
            raise DataError(f"degree_spread must be positive and finite, got "
                            f"{self.degree_spread}")
        for name, items in (("target_density", self.n_target_items),
                            ("source_density", self.n_source_items)):
            density, cells = getattr(self, name), self.n_users * items
            if not (0 < density < 1 and 1 <= _positive_count(density, cells) < cells):
                raise DataError(f"{name} {density} infeasible for {cells} cells")


@dataclass
class GroundTruth:
    weight_matrix: np.ndarray
    edges: set                     # (attribute node, preference node) pairs
    attributes: np.ndarray         # n_users x k
    target_preferences: np.ndarray
    source_preferences: np.ndarray
    labels: np.ndarray

    def samples(self, domain: str = TARGET) -> np.ndarray:
        """2k x n_users column batch of attribute || preference vectors."""
        prefs = self.target_preferences if domain == TARGET else self.source_preferences
        return np.vstack([self.attributes.T, prefs.T])


def _random_weight_matrix(k: int, n_edges: int, rng) -> np.ndarray:
    """Sparse attribute->preference map. Every preference dimension gets at
    least one parent (a parentless preference would contradict the model's
    not-a-root prior and turn that dimension into pure noise)."""
    b = np.zeros((k, k))
    cells = [int(rng.integers(k)) * k + j for j in range(k)]  # one per column
    remaining = sorted(set(range(k * k)) - set(cells))
    extra = rng.choice(remaining, size=n_edges - k, replace=False)
    cells = np.array(cells + [int(c) for c in extra])
    magnitudes = rng.uniform(0.7, 1.5, size=n_edges)
    signs = rng.choice([-1.0, 1.0], size=n_edges)
    b.flat[cells] = magnitudes * signs
    return b


def _temper_norms(prefs: np.ndarray, spread: float) -> np.ndarray:
    """Rescale rows so their norms become norm**spread: keeps per-user
    activity monotone in preference strength while softening the tail so
    low-activity users still hold a usable share of interactions."""
    norms = np.linalg.norm(prefs, axis=1, keepdims=True)
    safe = np.where(norms > 1e-12, norms, 1.0)
    return prefs * safe ** (spread - 1.0)


def _positive_count(density: float, cells: int) -> int:
    """Number of positives a density asks for among cells user-item pairs."""
    return int(round(density * cells))


POSITIVE_BLOCK_CELLS = 1 << 20


def _top_positions(values: np.ndarray, count: int) -> np.ndarray:
    """Ascending positions of the first `count` values of a stable
    descending sort: every value above the cut-off (the count-th largest
    value), then the values at it in position order."""
    if values.size <= count:
        return np.arange(values.size)
    cutoff = np.partition(values, values.size - count)[values.size - count]
    top = values > cutoff
    ties = np.flatnonzero(values == cutoff)
    top[ties[:count - np.count_nonzero(top)]] = True
    return np.flatnonzero(top)


def _top_cells(affinity: np.ndarray, density: float) -> np.ndarray:
    """Flat indices of the `count` highest-affinity cells, ties taken in
    flat-index order: the first `count` of a stable descending sort, in
    that sort's order.

    The table is read in blocks of POSITIVE_BLOCK_CELLS cells (at least
    `count`), so no copy or mask of the whole table is made. A stable sort
    ranks finite cells by (-value, flat index), a total order, and a cell
    among the first `count` of the whole table is among the first `count`
    of any part that holds it. So the candidates, kept in flat-index
    order, are cut to their own first `count` after each block, and the
    last cut is the answer.
    """
    count = _positive_count(density, affinity.size)
    flat = affinity.ravel()
    step = max(POSITIVE_BLOCK_CELLS, count)
    top = np.empty(0, dtype=np.intp)
    for start in range(0, flat.size, step):
        top = np.concatenate([top, start + _top_positions(flat[start:start + step], count)])
        top = top[_top_positions(flat[top], count)]
    return top[np.argsort(-flat[top], kind="stable")]


@contextmanager
def _allocating(what: str):
    """Raise an allocation refusal while building `what` as a DataError."""
    try:
        yield
    except MemoryError as exc:
        raise DataError(f"cannot allocate {what}: {exc}") from None


def synth_generate(config: SynthConfig) -> tuple[CrossDomainDataset, GroundTruth]:
    """Draw attributes, generate preferences through a sparse linear map,
    and emit positives where preference-item affinity clears the global
    quantile implied by the requested density.

    The ground truth records the map's support as directed edges from
    attribute node i to preference node k + j.
    """
    rng = np.random.default_rng(config.seed)
    m, k = config.n_users, config.k

    with _allocating(f"the {m} x {k} user attribute and preference tables"):
        labels = rng.integers(0, 2, size=m).astype(np.int8)
        attributes = rng.normal(size=(m, k))
        if config.attribute_shift:
            attributes[labels == 1, 0] += config.attribute_shift

        if config.weight_matrix is not None:
            b = np.asarray(config.weight_matrix, dtype=np.float64)
        else:
            b = _random_weight_matrix(k, config.n_edges, rng)

        noise_t = rng.normal(size=(m, k)) * config.noise_scale
        target_prefs = attributes @ b + noise_t

        corr = config.source_map_correlation
        c = corr * b + (1.0 - corr) * _random_weight_matrix(k, config.n_edges, rng)
        noise_s = rng.normal(size=(m, k)) * config.noise_scale
        source_prefs = attributes @ c + noise_s

    domains = ((TARGET, target_prefs, config.n_target_items, config.target_density),
               (SOURCE, source_prefs, config.n_source_items, config.source_density))
    items = {}
    for domain, _, n_items, _ in domains:
        with _allocating(f"the {domain} domain's {m} x {n_items} affinity table"):
            items[domain] = rng.normal(size=(n_items, k))
    positives = {}
    for domain, prefs, n_items, density in domains:
        with _allocating(f"the {domain} domain's {m} x {n_items} affinity table"):
            # the table is gone once _top_cells returns, before the set is built
            top = _top_cells(_temper_norms(prefs, config.degree_spread) @ items[domain].T,
                             density)
            rows, cols = np.unravel_index(top, (m, n_items))
            positives[domain] = set(zip(rows.tolist(), cols.tolist()))

    dataset = CrossDomainDataset(
        n_users=m,
        n_source_items=config.n_source_items,
        n_target_items=config.n_target_items,
        source_positives=positives[SOURCE],
        target_positives=positives[TARGET],
        user_attribute=labels,
        attribute_names=("0", "1"),
    )
    truth = GroundTruth(
        weight_matrix=b,
        edges={(int(i), int(k + j)) for i, j in zip(*np.nonzero(b))},
        attributes=attributes,
        target_preferences=target_prefs,
        source_preferences=source_prefs,
        labels=labels,
    )
    return dataset, truth


# ---------------------------------------------------------------------------
# serialization

def save_split(split: SplitResult, directory, extra_meta: str = "") -> None:
    """One file per part with lines domain,user,item,label plus candidate
    files for validation and test, one line user,positive,negatives... per
    list: the user, then the list's row."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    header = f"# seed={split.seed} tiebreak_seed={split.tiebreak_seed}"
    if extra_meta:
        header += f" {extra_meta}"
    for name in ("train", "validation", "test"):
        with open(directory / f"{name}.csv", "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            fh.write("domain,user,item,label\n")
            part = split.part(name)
            for domain in DOMAINS:
                pairs = list(part[domain])
                for u, i in map(pairs.__getitem__, _pair_order(pairs).tolist()):
                    fh.write(f"{domain},{u},{i},1\n")
    for name, lists in (("candidates_test", split.eval_candidates),
                        ("candidates_validation", split.val_candidates)):
        text = {}
        with open(directory / f"{name}.csv", "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for start in range(0, len(lists), CANDIDATE_BLOCK_LISTS):
                stop = start + CANDIDATE_BLOCK_LISTS
                rows = lists.items[start:stop].tolist()
                _add_id_text(text, rows, "%d")
                for user, row in zip(lists.users[start:stop].tolist(), rows):
                    fh.write(f"{user}," + ",".join(map(text.__getitem__, row)) + "\n")


_MAX_ID = np.iinfo(np.intp).max


def _split_ints(path, line_no: int, fields) -> list:
    try:
        values = list(map(int, fields))
    except ValueError:
        values = [-1]
    if min(values) < 0 or max(values) > _MAX_ID:
        raise DataError(f"{path}: line {line_no}: expected integer user and "
                        f"item ids in [0, {_MAX_ID}], got {','.join(fields)!r}")
    return values


def _split_header(path, line: str) -> tuple:
    """(seed, tiebreak_seed, other fields) of a split file's first line,
    '# seed=... tiebreak_seed=...' plus save_split's extra_meta."""
    try:
        if not line.startswith("#"):
            raise ValueError
        fields = dict(kv.split("=") for kv in line[1:].split())
        return int(fields.pop("seed")), int(fields.pop("tiebreak_seed")), fields
    except (ValueError, KeyError):
        raise DataError(f"{path}: line 1: malformed header {line!r}") from None


def _split_lines(path) -> list:
    """The stripped lines of one split file; line n is item n - 1."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read split file: {exc}") from None
    return list(map(str.strip, text.split("\n")))


def _part_rows(path, lines) -> dict:
    """{domain: set of (user, item)} of a train, validation or test file;
    DataError on its first bad line."""
    part = {SOURCE: set(), TARGET: set()}
    for line_no, line in enumerate(lines[1:], start=2):
        if not line or line.startswith("domain,"):
            continue
        row = line.split(",")
        if len(row) != 4 or row[0] not in part or row[3] != "1":
            raise DataError(f"{path}: line {line_no}: expected "
                            f"domain,user,item,label with domain source "
                            f"or target and label 1, got {line!r}")
        part[row[0]].add(tuple(_split_ints(path, line_no, row[1:3])))
    return part


def _candidate_rows(path, rows) -> tuple:
    """(users (L,), items (L, 1 + N_EVAL_NEGATIVES)) of a candidate file's
    (line number, line) rows; DataError on its first bad row."""
    values = []
    for line_no, line in rows:
        ids = _split_ints(path, line_no, line.split(","))
        if len(ids) != 2 + N_EVAL_NEGATIVES:
            raise DataError(f"{path}: line {line_no} has {len(ids[2:])} "
                            f"negatives, expected {N_EVAL_NEGATIVES}")
        values.append(ids)
    values = np.array(values, dtype=np.intp).reshape(len(values), 2 + N_EVAL_NEGATIVES)
    return values[:, 0].copy(), values[:, 1:].copy()


def load_split(directory) -> SplitResult:
    """Read what save_split wrote; DataError names the file, and the line
    of any row that does not parse. All five files must open with the
    same header line."""
    directory = Path(directory)
    lines, first = {}, None
    for name in ("train", "validation", "test", "candidates_test",
                 "candidates_validation"):
        path = directory / f"{name}.csv"
        lines[name] = _split_lines(path)
        header = lines[name][0]
        seed, tiebreak_seed, meta = _split_header(path, header)
        first = first or header
        if header != first:
            raise DataError(f"{path}: header {header!r} differs from "
                            f"{directory / 'train.csv'}'s {first!r}")

    parts = {name: _part_rows(directory / f"{name}.csv", lines[name])
             for name in ("train", "validation", "test")}

    candidates = {}
    for name in ("candidates_test", "candidates_validation"):
        path = directory / f"{name}.csv"
        numbered = [(line_no, line) for line_no, line
                    in enumerate(lines[name][1:], start=2) if line]
        users, items = _candidate_rows(path, numbered)
        # sorted rows hold a repeated item in adjacent columns
        ordered = np.sort(items, axis=1)
        repeats = np.flatnonzero(np.any(ordered[:, 1:] == ordered[:, :-1], axis=1))
        if len(repeats):
            row = ordered[repeats[0]]
            raise DataError(f"{path}: line {numbered[repeats[0]][0]}: item "
                            f"{row[np.argmax(row[1:] == row[:-1])]} is listed twice")
        candidates[name] = CandidateLists(users=users, items=items,
                                          tiebreak_seed=tiebreak_seed)

    return SplitResult(train=parts["train"], validation=parts["validation"],
                       test=parts["test"],
                       eval_candidates=candidates["candidates_test"],
                       val_candidates=candidates["candidates_validation"],
                       seed=seed, tiebreak_seed=tiebreak_seed, meta=meta)
