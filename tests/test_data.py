import csv
import hashlib
import math
import re
import shutil
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from causalcdr import data, evaluation
from causalcdr.data import SOURCE, TARGET


def write_csv(path, rows, header="user,item,rating"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


@pytest.fixture
def synth_dataset():
    dataset, _ = data.synth_generate(data.SynthConfig(
        n_users=120, n_source_items=150, n_target_items=140,
        target_density=0.03, source_density=0.04, seed=5))
    return dataset


class TestIngest:
    def test_threshold_and_intersection(self, tmp_path):
        src = tmp_path / "src.csv"
        tgt = tmp_path / "tgt.csv"
        write_csv(src, ["a,x,5", "a,y,3", "b,x,4"])
        write_csv(tgt, ["a,p,4", "a,q,5"])
        ds = data.ingest_csv(src, tgt)
        # user b appears only in the source: dropped
        assert ds.n_users == 1
        assert ds.stats.source_users_dropped == 1
        # rating 3 under threshold 4 excluded
        assert ds.source_positives == {(0, 0)}
        assert ds.target_positives == {(0, 0), (0, 1)}

    def test_no_rating_column_means_all_positive(self, tmp_path):
        src = tmp_path / "src.csv"
        tgt = tmp_path / "tgt.csv"
        write_csv(src, ["a,x", "a,y"], header="user,item")
        write_csv(tgt, ["a,p"], header="user,item")
        ds = data.ingest_csv(src, tgt, rating_column="")
        assert len(ds.source_positives) == 2

    def test_missing_column_named(self, tmp_path):
        src = tmp_path / "src.csv"
        tgt = tmp_path / "tgt.csv"
        write_csv(src, ["a,x,5"], header="uid,item,rating")
        write_csv(tgt, ["a,p,5"])
        with pytest.raises(data.DataError, match="'user'"):
            data.ingest_csv(src, tgt)

    def test_malformed_row_reports_line(self, tmp_path):
        src = tmp_path / "src.csv"
        tgt = tmp_path / "tgt.csv"
        write_csv(src, ["a,x,5", "a,y,bad"])
        write_csv(tgt, ["a,p,5"])
        with pytest.raises(data.DataError, match="line 3"):
            data.ingest_csv(src, tgt)

    @pytest.mark.parametrize("rating", ["nan", "NaN", "inf", "-inf"])
    def test_non_finite_rating_rejected(self, tmp_path, rating):
        # nan < threshold is never true, so a nan rating would pass as a positive
        src = tmp_path / "src.csv"
        tgt = tmp_path / "tgt.csv"
        write_csv(src, ["a,x,5", f"a,y,{rating}"])
        write_csv(tgt, ["a,p,5"])
        with pytest.raises(data.DataError, match=r"src\.csv: non-finite rating .* line 3"):
            data.ingest_csv(src, tgt)

    @pytest.mark.parametrize("damage", ["latin1_byte", "missing_file"])
    def test_unreadable_file_named(self, tmp_path, damage):
        src = tmp_path / "src.csv"
        tgt = tmp_path / "tgt.csv"
        write_csv(src, ["a,x,5", "a,y,5"])
        write_csv(tgt, ["a,p,5"])
        if damage == "latin1_byte":
            src.write_bytes(src.read_bytes().replace(b"y", b"\xe9"))
        else:
            src.unlink()
        with pytest.raises(data.DataError, match=r"src\.csv: cannot read CSV file"):
            data.ingest_csv(src, tgt)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_threshold_rejected(self, tmp_path, threshold):
        # at nan, rating < threshold is never true and every row would be a positive
        src = tmp_path / "src.csv"
        tgt = tmp_path / "tgt.csv"
        write_csv(src, ["a,x,1", "a,y,5"])
        write_csv(tgt, ["a,p,5"])
        with pytest.raises(data.DataError, match="positive_threshold must be finite"):
            data.ingest_csv(src, tgt, positive_threshold=threshold)

    def test_empty_intersection_rejected(self, tmp_path):
        src = tmp_path / "src.csv"
        tgt = tmp_path / "tgt.csv"
        write_csv(src, ["a,x,5"])
        write_csv(tgt, ["b,p,5"])
        with pytest.raises(data.DataError, match="shared"):
            data.ingest_csv(src, tgt)

    def test_attribute_round_trip(self, tmp_path):
        src = tmp_path / "src.csv"
        tgt = tmp_path / "tgt.csv"
        write_csv(src, ["a,x,5,F", "b,x,5,M"], header="user,item,rating,attribute")
        write_csv(tgt, ["a,p,5,F", "b,q,5,M"], header="user,item,rating,attribute")
        ds = data.ingest_csv(src, tgt)
        assert ds.attribute_names == ("F", "M")
        assert list(ds.user_attribute) == [0, 1]

    def test_byte_order_mark_is_dropped(self, tmp_path):
        paths = random_csv_pair(tmp_path)
        want = data.ingest_csv(*paths)
        for path in paths:
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        got = data.ingest_csv(*paths)
        assert_same_dataset(got, want)
        assert got.attribute_problem == want.attribute_problem

    @pytest.mark.parametrize("label, problem", [
        ("X", "expected 2 attribute labels, found 3: 'F', 'M', 'X'"),
        ("", "user '11' has no attribute label"),
    ], ids=["three_labels", "user_without_label"])
    def test_unusable_attribute_is_named(self, tmp_path, label, problem):
        labels = ["F"] * 6 + ["M"] * 5 + [label]   # user 11's label
        # 150 target items, so every user keeps 99 eligible negatives
        rows = {"src": [f"{u},{i},5" for u in range(12) for i in range(5)],
                "tgt": [f"{i % 12},{i},5" for i in range(150)]}
        for name, body in rows.items():
            write_csv(tmp_path / f"bare_{name}.csv", body)
            write_csv(tmp_path / f"{name}.csv",
                      [f"{row},{labels[int(row.split(',')[0])]}" for row in body],
                      header="user,item,rating,attribute")
        ds = data.ingest_csv(tmp_path / "src.csv", tmp_path / "tgt.csv")
        assert ds.user_attribute is None and ds.attribute_problem == problem
        with pytest.raises(data.SplitError, match="dataset has no binary user attribute: "
                                                  + re.escape(problem) + "$"):
            data.generate_split(ds, data.SplitSpec(
                "ood_attribute", train_mix=(0.5, 0.5), test_mix=(0.5, 0.5)))
        # an iid split does not read the attribute
        bare = data.ingest_csv(tmp_path / "bare_src.csv", tmp_path / "bare_tgt.csv")
        for dataset, directory in ((ds, "labelled"), (bare, "bare")):
            data.save_split(data.generate_split(dataset, data.SplitSpec(seed=3)),
                            tmp_path / directory)
        for name in SPLIT_FILES:
            assert ((tmp_path / "labelled" / name).read_bytes()
                    == (tmp_path / "bare" / name).read_bytes())

    def test_conflicting_attribute_rejected(self, tmp_path):
        src = tmp_path / "src.csv"
        tgt = tmp_path / "tgt.csv"
        write_csv(src, ["a,x,5,F"], header="user,item,rating,attribute")
        write_csv(tgt, ["a,p,5,M"], header="user,item,rating,attribute")
        with pytest.raises(data.DataError, match="conflicting"):
            data.ingest_csv(src, tgt)

    @pytest.mark.parametrize("rows, line_no", [
        # two blank lines before the bad row: the physical line, not the row count
        (["a,x,5", "", "", "a,y,bad"], 5),
        # a quoted item key spanning lines 2-3
        (['a,"x', 'y",5', "a,z,bad"], 4),
        # the bad row itself spans lines 3-4; the line it starts on
        (["a,x,5", 'a,"p', 'q",bad'], 3),
    ], ids=["blank_lines", "quoted_newline_before", "quoted_newline_in_row"])
    def test_errors_name_the_file_line(self, tmp_path, rows, line_no):
        src = tmp_path / "src.csv"
        tgt = tmp_path / "tgt.csv"
        write_csv(src, rows)
        write_csv(tgt, ["a,p,5"])
        with pytest.raises(data.DataError, match=rf"src\.csv: bad rating at line {line_no}$"):
            data.ingest_csv(src, tgt)

    def test_csv_parser_error_is_a_data_error(self, tmp_path):
        src = tmp_path / "src.csv"
        tgt = tmp_path / "tgt.csv"
        write_csv(src, ["a,x,5", "a," + "y" * 200_000 + ",5"])
        write_csv(tgt, ["a,p,5"])
        with pytest.raises(data.DataError, match=r"src\.csv: line 3: field larger"):
            data.ingest_csv(src, tgt)

    def test_integer_keys_that_tie_order_by_text(self, tmp_path):
        # "7", "07", "007" and " 7" are the same integer; their order must
        # not depend on the set iteration order of one process
        src = tmp_path / "src.csv"
        tgt = tmp_path / "tgt.csv"
        keys = ["7", "07", "u", "007", " 7"]
        write_csv(src, [f"{key},x{j},5" for j, key in enumerate(keys)])
        write_csv(tgt, [f"{key},p,5" for key in keys])
        ds = data.ingest_csv(src, tgt)
        # users " 7", "007", "07", "7", "u"; items x0..x4
        order = [" 7", "007", "07", "7", "u"]
        assert ds.source_positives == {(order.index(key), j) for j, key in enumerate(keys)}

    def test_reingest_is_idempotent(self, tmp_path, synth_dataset):
        # first ingest may drop users absent from one domain; from then on
        # the canonical form must be a fixed point
        raw_src, raw_tgt = tmp_path / "s0.csv", tmp_path / "t0.csv"
        data.save_dataset_csv(synth_dataset, raw_src, raw_tgt)
        first = data.ingest_csv(raw_src, raw_tgt)
        src1, tgt1 = tmp_path / "s1.csv", tmp_path / "t1.csv"
        data.save_dataset_csv(first, src1, tgt1)
        second = data.ingest_csv(src1, tgt1)
        src2, tgt2 = tmp_path / "s2.csv", tmp_path / "t2.csv"
        data.save_dataset_csv(second, src2, tgt2)
        assert src1.read_text() == src2.read_text()
        assert tgt1.read_text() == tgt2.read_text()
        assert second.source_positives == first.source_positives
        assert second.target_positives == first.target_positives


class TestSplitIid:
    def test_ratio_within_one(self, synth_dataset):
        split = data.generate_split(synth_dataset, data.SplitSpec(seed=1))
        for domain in (SOURCE, TARGET):
            total = len(synth_dataset.positives(domain))
            expected = data._apportion(total, (0.8, 0.1, 0.1))
            got = (len(split.train[domain]), len(split.validation[domain]),
                   len(split.test[domain]))
            for g, e in zip(got, expected):
                assert abs(g - e) <= 1

    def test_parts_disjoint_and_complete(self, synth_dataset):
        split = data.generate_split(synth_dataset, data.SplitSpec(seed=2))
        for domain in (SOURCE, TARGET):
            train, val, test = (split.train[domain], split.validation[domain],
                                split.test[domain])
            assert not (train & val) and not (train & test) and not (val & test)
            assert train | val | test == synth_dataset.positives(domain)

    def test_same_seed_identical(self, synth_dataset):
        a = data.generate_split(synth_dataset, data.SplitSpec(seed=3))
        b = data.generate_split(synth_dataset, data.SplitSpec(seed=3))
        assert a.train == b.train and a.test == b.test
        assert np.array_equal(a.eval_candidates.items, b.eval_candidates.items)

    def test_test_users_keep_a_training_positive(self, synth_dataset):
        split = data.generate_split(synth_dataset, data.SplitSpec(seed=4))
        train_users = {u for u, _ in split.train[TARGET]}
        for u, _ in split.test[TARGET]:
            assert u in train_users

    def test_degenerate_all_train(self, synth_dataset):
        split = data.generate_split(synth_dataset, data.SplitSpec(
            ratios=(1.0, 0.0, 0.0), seed=5))
        assert split.test[TARGET] == set()
        assert len(split.eval_candidates) == 0


class TestSplitOod:
    def test_degree_mixture_within_two_points(self, synth_dataset):
        split = data.generate_split(synth_dataset, data.SplitSpec(
            "ood_degree", train_mix=(0.4, 0.6), test_mix=(0.7, 0.3), seed=6))
        types = data._user_types_by_degree(synth_dataset)
        assert data.realized_mixture(split.train[TARGET], types) == pytest.approx(0.4, abs=0.02)
        assert data.realized_mixture(split.test[TARGET], types) == pytest.approx(0.7, abs=0.02)

    def test_uniform_degree_rejects_biased_request(self):
        positives = {(u, i) for u in range(10) for i in range(3)}
        ds = data.CrossDomainDataset(
            n_users=10, n_source_items=5, n_target_items=120,
            source_positives={(u, 0) for u in range(10)},
            target_positives=positives)
        with pytest.raises(data.SplitError):
            data.generate_split(ds, data.SplitSpec(
                "ood_degree", train_mix=(0.4, 0.6), test_mix=(0.7, 0.3), seed=0))
        split = data.generate_split(ds, data.SplitSpec(
            "ood_degree", train_mix=(0.0, 1.0), test_mix=(0.0, 1.0), seed=0))
        assert len(split.train[TARGET]) > 0

    def test_attribute_mixture_within_two_points(self, synth_dataset):
        split = data.generate_split(synth_dataset, data.SplitSpec(
            "ood_attribute", train_mix=(0.8, 0.2), test_mix=(0.2, 0.8), seed=7))
        types = (synth_dataset.user_attribute == 0).astype(int)
        assert data.realized_mixture(split.train[TARGET], types) == pytest.approx(0.8, abs=0.02)
        assert data.realized_mixture(split.test[TARGET], types) == pytest.approx(0.2, abs=0.02)

    def test_attribute_absent_rejected(self, synth_dataset):
        ds = data.CrossDomainDataset(
            n_users=synth_dataset.n_users,
            n_source_items=synth_dataset.n_source_items,
            n_target_items=synth_dataset.n_target_items,
            source_positives=synth_dataset.source_positives,
            target_positives=synth_dataset.target_positives)
        with pytest.raises(data.SplitError, match="attribute"):
            data.generate_split(ds, data.SplitSpec(
                "ood_attribute", train_mix=(0.5, 0.5), test_mix=(0.5, 0.5), seed=0))

    def test_no_shift_control_allowed(self, synth_dataset):
        split = data.generate_split(synth_dataset, data.SplitSpec(
            "ood_attribute", train_mix=(0.5, 0.5), test_mix=(0.5, 0.5), seed=8))
        types = (synth_dataset.user_attribute == 0).astype(int)
        train_mix = data.realized_mixture(split.train[TARGET], types)
        test_mix = data.realized_mixture(split.test[TARGET], types)
        assert train_mix == pytest.approx(test_mix, abs=0.02)


def kwargs_id(kwargs):
    return ",".join(f"{key}={np.shape(value) if key == 'weight_matrix' else str(value)[:12]}"
                    for key, value in kwargs.items())


class TestRequestsCheckThemselves:
    @pytest.mark.parametrize("kwargs", [
        {"ratios": (1, 2)}, {"ratios": (-1, 1, 1)}, {"ratios": (float("nan"), 1, 1)},
        {"ratios": (float("inf"), 1, 1)}, {"ratios": (0, 0, 0)}, {"kind": "bogus"},
        {"train_mix": (0.5, 0.7)}, {"test_mix": (float("nan"), 1.0)},
        {"test_mix": (-0.5, 1.5)}, {"kind": "ood_degree"},
        {"kind": "ood_attribute", "train_mix": (0.5, 0.5)},
    ], ids=kwargs_id)
    def test_split_spec_rejects(self, kwargs):
        with pytest.raises(data.SplitError):
            data.SplitSpec(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"k": 0}, {"n_users": -5}, {"n_source_items": 0}, {"n_target_items": 0},
        {"n_users": 10**400},
        {"n_edges": 3}, {"n_edges": 17}, {"k": 2}, {"weight_matrix": np.eye(3)},
        {"weight_matrix": np.eye(4), "n_edges": 20}, {"degree_spread": 0.0},
        {"degree_spread": float("nan")}, {"target_density": float("nan")},
        {"target_density": 1e999}, {"source_density": 0.9999999},
        {"target_density": 1e-9},
        {"attribute_shift": float("nan")}, {"attribute_shift": float("inf")},
        {"noise_scale": float("nan")}, {"noise_scale": float("inf")},
        {"source_map_correlation": float("nan")},
        {"source_map_correlation": -float("inf")},
        {"weight_matrix": np.diag([1.0, 1.0, float("nan"), 1.0])},
        {"weight_matrix": np.diag([1.0, float("inf"), 1.0, 1.0]), "seed": 1},
        {"weight_matrix": [["a"] * 4] * 4, "n_edges": 9},
    ], ids=kwargs_id)
    def test_synth_config_rejects(self, kwargs):
        with pytest.raises(data.DataError):
            data.SynthConfig(**kwargs)

    def test_no_split_functions_besides_generate_split(self):
        assert [name for name in dir(data) if name.startswith("split")] == []


class TestSampling:
    def test_negative_count_and_exclusion(self, synth_dataset):
        split = data.generate_split(synth_dataset, data.SplitSpec(seed=9))
        groups = data.group_train_positives(synth_dataset, split, TARGET, 4)
        examples = data.sample_train_negatives(synth_dataset, groups, seed=10)
        n_pos = len(split.train[TARGET])
        assert len(examples) == 5 * n_pos
        assert int(examples.labels.sum()) == n_pos
        user_items = synth_dataset.user_items(TARGET)
        for u, i, y in zip(examples.users, examples.items, examples.labels):
            if y == 0:
                assert int(i) not in user_items.get(int(u), set())

    def test_same_seed_identical(self, synth_dataset):
        split = data.generate_split(synth_dataset, data.SplitSpec(seed=9))
        groups = data.group_train_positives(synth_dataset, split, TARGET, 4)
        a = data.sample_train_negatives(synth_dataset, groups, seed=11)
        b = data.sample_train_negatives(synth_dataset, groups, seed=11)
        assert np.array_equal(a.items, b.items)

    def test_candidate_lists_complete(self, synth_dataset):
        split = data.generate_split(synth_dataset, data.SplitSpec(seed=12))
        user_items = synth_dataset.user_items(TARGET)
        lists = split.eval_candidates
        assert lists.items.shape == (len(split.test[TARGET]), 100)
        held = []
        for user, items in zip(lists.users.tolist(), lists.items.tolist()):
            assert len(set(items)) == 100
            positive = items.pop(0)
            held.append((user, positive))
            assert all(j not in user_items[user] for j in items)
        assert held == sorted(split.test[TARGET])

    def test_saturated_user_gets_no_negatives(self):
        # one user positive on every target item: recorded, not an error
        ds = data.CrossDomainDataset(
            n_users=2, n_source_items=5, n_target_items=6,
            source_positives={(0, 0), (1, 1)},
            target_positives={(0, i) for i in range(6)} | {(1, 0)})
        split = data.SplitResult(
            train={data.SOURCE: {(0, 0), (1, 1)},
                   data.TARGET: {(0, i) for i in range(6)} | {(1, 0)}},
            validation={data.SOURCE: set(), data.TARGET: set()},
            test={data.SOURCE: set(), data.TARGET: set()},
            eval_candidates=[], val_candidates=[], seed=0, tiebreak_seed=0)
        groups = data.group_train_positives(ds, split, data.TARGET, 4)
        examples = data.sample_train_negatives(ds, groups, seed=0)
        assert examples.skipped_saturated_users == 6  # every positive of user 0
        negatives = [(u, i) for u, i, y in
                     zip(examples.users, examples.items, examples.labels) if y == 0]
        assert all(u == 1 for u, _ in negatives)

    def test_empty_training_part(self, synth_dataset):
        split = data.generate_split(synth_dataset, data.SplitSpec(seed=9))
        split.train[TARGET] = set()
        groups = data.group_train_positives(synth_dataset, split, TARGET, 4)
        examples = data.sample_train_negatives(synth_dataset, groups, seed=0)
        assert len(examples) == 0
        assert examples.users.dtype == np.intp and examples.items.dtype == np.intp
        assert examples.labels.dtype == np.float64

    def test_too_few_negatives_rejected(self):
        ds = data.CrossDomainDataset(
            n_users=1, n_source_items=5, n_target_items=120,
            source_positives={(0, 0)},
            target_positives={(0, i) for i in range(70)})
        with pytest.raises(data.SplitError, match="eligible"):
            data.build_eval_candidates(ds, [(0, 0)], seed=0)


def scalar_draw_sampler(dataset, split, domain, n_neg_per_positive, seed):
    """Reference: one rng.integers call per draw, rejection per positive."""
    rng = np.random.default_rng(seed)
    n_items = dataset.n_items(domain)
    user_items = dataset.user_items(domain)
    users, items, labels = [], [], []
    skipped = 0
    for u, i in sorted(split.train[domain]):
        users.append(u)
        items.append(i)
        labels.append(1.0)
        known = user_items.get(u, set())
        if len(known) >= n_items:
            skipped += 1
            continue
        drawn = 0
        while drawn < n_neg_per_positive:
            j = int(rng.integers(n_items))
            if j in known:
                continue
            users.append(u)
            items.append(j)
            labels.append(0.0)
            drawn += 1
    return data.TrainingExamples(np.array(users, dtype=np.intp),
                                 np.array(items, dtype=np.intp),
                                 np.array(labels, dtype=np.float64),
                                 skipped_saturated_users=skipped)


def assert_same_examples(got, want):
    for field in ("users", "items", "labels"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    assert got.skipped_saturated_users == want.skipped_saturated_users


class TestGroupedPositives:
    @pytest.mark.parametrize("domain", [SOURCE, TARGET])
    def test_one_grouping_serves_every_seed(self, synth_dataset, domain):
        split = data.generate_split(synth_dataset, data.SplitSpec(seed=9))
        groups = data.group_train_positives(synth_dataset, split, domain, 3)
        for seed in (0, 5, 11):
            assert_same_examples(
                data.sample_train_negatives(synth_dataset, groups, seed),
                scalar_draw_sampler(synth_dataset, split, domain, 3, seed))

    def test_shared_arrays_are_read_only(self, synth_dataset):
        split = data.generate_split(synth_dataset, data.SplitSpec(seed=9))
        groups = data.group_train_positives(synth_dataset, split, TARGET, 2)
        examples = data.sample_train_negatives(synth_dataset, groups, seed=0)
        for array in (examples.users, examples.labels):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_bad_negative_count_rejected(self, synth_dataset):
        split = data.generate_split(synth_dataset, data.SplitSpec(seed=9))
        with pytest.raises(ValueError, match="n_neg_per_positive must be >= 1"):
            data.group_train_positives(synth_dataset, split, TARGET, 0)


class TestBlockSamplerMatchesScalarDraws:
    """The block sampler must consume the generator's stream exactly as one
    scalar draw per call does. If a numpy release maps array draws to the
    stream differently, these fail."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 17, 123])
    @pytest.mark.parametrize("domain", [SOURCE, TARGET])
    def test_synthetic_split(self, synth_dataset, seed, domain):
        split = data.generate_split(synth_dataset, data.SplitSpec(seed=9))
        for n_neg in (1, 4):
            groups = data.group_train_positives(synth_dataset, split, domain, n_neg)
            assert_same_examples(
                data.sample_train_negatives(synth_dataset, groups, seed),
                scalar_draw_sampler(synth_dataset, split, domain, n_neg, seed))

    @pytest.mark.parametrize("seed", range(6))
    def test_saturated_and_nearly_saturated_users(self, seed, monkeypatch):
        # user 0 knows every target item (skipped), user 1 knows all but two,
        # so most of its draws are rejected and the stream is read in many
        # blocks; users 2 and 3 are ordinary
        n_items = 40
        target = ({(0, i) for i in range(n_items)} | {(1, i) for i in range(2, n_items)}
                  | {(2, 5), (2, 9), (3, 1)})
        ds = data.CrossDomainDataset(
            n_users=4, n_source_items=5, n_target_items=n_items,
            source_positives={(u, 0) for u in range(4)}, target_positives=target)
        split = data.SplitResult(
            train={data.SOURCE: set(ds.source_positives), data.TARGET: set(target)},
            validation={data.SOURCE: set(), data.TARGET: set()},
            test={data.SOURCE: set(), data.TARGET: set()},
            eval_candidates=[], val_candidates=[], seed=0, tiebreak_seed=0)
        real_default_rng = np.random.default_rng
        generators = []

        class CountingGenerator:
            """Records the size of every integers() call."""

            def __init__(self, seed):
                self.rng = real_default_rng(seed)
                self.sizes = []
                generators.append(self)

            def integers(self, *args, **kwargs):
                out = self.rng.integers(*args, **kwargs)
                self.sizes.append(np.size(out))
                return out

        monkeypatch.setattr(data.np.random, "default_rng", CountingGenerator)
        want = scalar_draw_sampler(ds, split, TARGET, 3, seed)
        got = data.sample_train_negatives(
            ds, data.group_train_positives(ds, split, TARGET, 3), seed)
        monkeypatch.undo()
        assert_same_examples(got, want)
        assert got.skipped_saturated_users == n_items
        scalar, block = generators
        assert len(block.sizes) > 2                 # refilled more than once
        assert sum(block.sizes) == len(scalar.sizes)  # no draw past the loop's


class TestSynth:
    def test_identity_map_diagonal_graph(self):
        cfg = data.SynthConfig(n_users=60, n_source_items=80, n_target_items=70,
                               k=4, weight_matrix=np.eye(4), noise_scale=0.0,
                               target_density=0.05, source_density=0.05, seed=1)
        _, truth = data.synth_generate(cfg)
        assert truth.edges == {(i, 4 + i) for i in range(4)}
        assert np.allclose(truth.target_preferences, truth.attributes)

    def test_positive_count_near_density(self):
        cfg = data.SynthConfig(n_users=500, n_source_items=400, n_target_items=300,
                               target_density=0.01, seed=2)
        ds, _ = data.synth_generate(cfg)
        assert len(ds.target_positives) == pytest.approx(1500, rel=0.1)

    def test_same_seed_reproduces(self):
        cfg = data.SynthConfig(seed=3, n_users=80, n_source_items=90,
                               n_target_items=85)
        ds1, t1 = data.synth_generate(cfg)
        ds2, t2 = data.synth_generate(cfg)
        assert ds1.target_positives == ds2.target_positives
        assert np.array_equal(t1.weight_matrix, t2.weight_matrix)
        assert np.array_equal(t1.attributes, t2.attributes)

    def test_infeasible_density_rejected(self):
        with pytest.raises(data.DataError, match="density"):
            data.synth_generate(data.SynthConfig(n_users=10, n_target_items=10,
                                                 target_density=1e-5))

    @pytest.mark.parametrize("shape, refused", [
        # the item draw is refused
        (dict(n_users=10, n_source_items=2**40, n_target_items=30, source_density=1e-9),
         f"the source domain's 10 x {2**40} affinity table"),
        # the items fit and the table is refused
        (dict(n_users=2**20, n_target_items=2**20, k=1, n_edges=1),
         f"the target domain's {2**20} x {2**20} affinity table"),
        (dict(n_users=2**40, n_source_items=2, n_target_items=2),
         f"the {2**40} x 4 user attribute and preference tables"),
    ])
    def test_allocation_refusal_is_a_data_error(self, shape, refused):
        config = data.SynthConfig(**shape)
        with pytest.raises(data.DataError, match=f"^cannot allocate {refused}: "):
            data.synth_generate(config)

    def test_blocks_do_not_change_the_dataset(self, monkeypatch):
        want, _ = data.synth_generate(GOLDEN_SYNTH)
        # 64-cell blocks against one block per table
        assert GOLDEN_SYNTH.n_users * GOLDEN_SYNTH.n_source_items < data.POSITIVE_BLOCK_CELLS
        monkeypatch.setattr(data, "POSITIVE_BLOCK_CELLS", 64)
        got, _ = data.synth_generate(GOLDEN_SYNTH)
        for domain in data.DOMAINS:
            assert list(got.positives(domain)) == list(want.positives(domain))

    def test_peak_memory_is_one_table_and_blocks(self, monkeypatch):
        # the 9.6 MB source table plus block-sized work: a copy of the table,
        # or its positive set built while it lives, goes past 1.5 tables
        monkeypatch.setattr(data, "POSITIVE_BLOCK_CELLS", 1 << 16)
        config = data.SynthConfig(n_users=600, n_source_items=2000, seed=0)
        tracemalloc.start()
        try:
            data.synth_generate(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * (600 * 2000 * 8)

    def test_positive_rate_monotone_in_preference_norm(self):
        cfg = data.SynthConfig(n_users=300, n_source_items=200, n_target_items=250,
                               k=4, noise_scale=0.0, attribute_shift=0.0,
                               target_density=0.03, seed=4)
        ds, truth = data.synth_generate(cfg)
        norms = np.linalg.norm(truth.target_preferences, axis=1)
        degrees = ds.target_degrees()
        order = np.argsort(norms)
        quartiles = np.array_split(order, 4)
        means = [degrees[q].mean() for q in quartiles]
        assert means[0] < means[1] < means[2] < means[3]


def assert_same_lists(got, want):
    for name in ("users", "items"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.intp and np.array_equal(a, b), name


# scorers that tie the positive with many of its negatives; "mixed" ties
# only on even users, so a block holds rows with and without ties
TIE_SCORERS = {
    "constant": lambda users, items: np.zeros(items.shape),
    "mod3": lambda users, items: (items % 3).astype(float),
    "per_user_mod": lambda users, items: (
        (items + users[:, None]) % (users[:, None] % 5 + 2)).astype(float),
    "mixed": lambda users, items: np.where(users[:, None] % 2 == 0, items % 2,
                                           items).astype(float),
}
RANK_KS = (1, 5, 10, 100)


SPLIT_FILES = ("train.csv", "validation.csv", "test.csv", "candidates_test.csv",
               "candidates_validation.csv")


class TestSplitSerialization:
    def test_round_trip(self, tmp_path, synth_dataset):
        split = data.generate_split(synth_dataset, data.SplitSpec(seed=13))
        data.save_split(split, tmp_path / "split")
        loaded = data.load_split(tmp_path / "split")
        assert loaded.train == split.train
        assert loaded.validation == split.validation
        assert loaded.test == split.test
        assert loaded.tiebreak_seed == split.tiebreak_seed
        for name in ("eval_candidates", "val_candidates"):
            assert_same_lists(getattr(loaded, name), getattr(split, name))

    def test_hashed_and_permuted_rows_load_and_score_alike(self, tmp_path, synth_dataset):
        # files written in the SHA-1 tie-break order that save_split once
        # used, or with negatives in any order, score like the drawn order
        split = data.generate_split(synth_dataset, data.SplitSpec(seed=13))
        data.save_split(split, tmp_path / "drawn")
        rng = np.random.default_rng(0)
        orders = {"hashed": lambda user, row: sha1_order(split.tiebreak_seed, user, row),
                  "permuted": lambda user, row: rng.permutation(row).tolist()}
        for kind, order in orders.items():
            shutil.copytree(tmp_path / "drawn", tmp_path / kind)
            for name in SPLIT_FILES[3:]:
                path = tmp_path / kind / name
                header, *rows = path.read_text().splitlines()
                for r, row in enumerate(rows):
                    user, positive, *negatives = map(int, row.split(","))
                    rows[r] = ",".join(map(str, [user, positive, *order(user, negatives)]))
                path.write_text("\n".join([header, *rows]) + "\n")
        drawn = data.load_split(tmp_path / "drawn")
        for name in ("eval_candidates", "val_candidates"):
            assert_same_lists(getattr(drawn, name), getattr(split, name))
        for kind in orders:
            loaded = data.load_split(tmp_path / kind)
            for name in ("eval_candidates", "val_candidates"):
                got, want = getattr(loaded, name), getattr(drawn, name)
                assert not np.array_equal(got.items, want.items)
                assert np.array_equal(got.users, want.users)
                assert got.tiebreak_seed == want.tiebreak_seed
                assert np.array_equal(np.sort(got.items, axis=1), np.sort(want.items, axis=1))
                assert np.array_equal(got.items[:, 0], want.items[:, 0])
                for scorer in TIE_SCORERS.values():
                    assert (evaluation.evaluate_candidates(got, scorer, RANK_KS)
                            == evaluation.evaluate_candidates(want, scorer, RANK_KS))

    @pytest.mark.parametrize("name, line_no, edit, message", [
        ("train.csv", 3, lambda row: row[:2], "line 3: expected domain,user,item,label"),
        ("validation.csv", 3, lambda row: ["other"] + row[1:],
         "line 3: expected domain,user,item,label"),
        ("test.csv", 3, lambda row: [row[0], "x" + row[1]] + row[2:],
         "line 3: expected integer"),
        ("train.csv", 3, lambda row: row[:2] + ["1.5"] + row[3:], "line 3: expected integer"),
        ("candidates_test.csv", 2, lambda row: row[:5] + ["x119"] + row[6:],
         "line 2: expected integer"),
        ("candidates_validation.csv", 2, lambda row: [""] + row[1:],
         "line 2: expected integer"),
        ("test.csv", 1, lambda row: ["# seed=x tiebreak_seed=3"], "line 1: malformed header"),
        ("train.csv", 1, lambda row: ["# tiebreak_seed=3 note"], "line 1: malformed header"),
        ("train.csv", 3, lambda row: [row[0], "-1"] + row[2:], "line 3: expected integer"),
        ("candidates_test.csv", 2, lambda row: row[:5] + ["9" * 20] + row[6:],
         "line 2: expected integer"),
        ("candidates_validation.csv", 1, lambda row: ["1", "2"], "line 1: malformed header"),
        ("validation.csv", 1, lambda row: ["seed=1 tiebreak_seed=2"], "line 1: malformed header"),
        ("candidates_test.csv", 2, lambda row: row[:2] + [row[1]] + row[3:],
         r"line 2: item \d+ is listed twice"),
        ("candidates_validation.csv", 3, lambda row: row[:3] + [row[2]] + row[4:],
         r"line 3: item \d+ is listed twice"),
        ("train.csv", 3, lambda row: row[:3] + ["banana"],
         "line 3: expected domain,user,item,label with domain source or target and label 1"),
    ], ids=["short_row", "unknown_domain", "user_not_int", "item_not_int",
            "negative_not_int", "candidate_user_empty", "seed_not_int",
            "header_without_seed", "user_below_zero", "negative_beyond_intp",
            "candidates_without_header", "header_without_hash_mark",
            "negative_equals_positive", "negative_listed_twice", "label_not_1"])
    def test_malformed_row_names_file_and_line(self, tmp_path, synth_dataset,
                                               name, line_no, edit, message):
        split = data.generate_split(synth_dataset, data.SplitSpec(seed=14))
        data.save_split(split, tmp_path / "split")
        path = tmp_path / "split" / name
        lines = path.read_text().splitlines()
        lines[line_no - 1] = ",".join(edit(lines[line_no - 1].split(",")))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(data.DataError, match=f"{name}: {message}"):
            data.load_split(tmp_path / "split")

    @pytest.mark.parametrize("name, column, value", [
        ("candidates_test.csv", 0, "-1"), ("candidates_validation.csv", 1, "-3"),
        ("candidates_test.csv", 100, "-0x1"), ("validation.csv", 2, "+-1"),
    ])
    def test_id_below_zero_names_the_line(self, tmp_path, synth_dataset, name, column,
                                          value):
        # an id below zero, however spelled, is an id error on its own line
        data.save_split(data.generate_split(synth_dataset, data.SplitSpec(seed=14)),
                        tmp_path / "split")
        path = tmp_path / "split" / name
        lines = path.read_text().splitlines()
        line_no = 3 if name == "validation.csv" else 2
        row = lines[line_no - 1].split(",")
        row[column] = value
        lines[line_no - 1] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(data.DataError, match=f"{name}: line {line_no}: expected integer"):
            data.load_split(tmp_path / "split")

    @pytest.mark.parametrize("name, edits, message", [
        ("candidates_test.csv", {2: lambda row: [row[0], "-1"] + row[2:],
                                 4: lambda row: row[:-1]}, "line 2: expected integer"),
        ("candidates_test.csv", {2: lambda row: row[:-1],
                                 4: lambda row: [row[0], "-1"] + row[2:]},
         "line 2 has 98 negatives"),
        ("train.csv", {3: lambda row: ["other"] + row[1:],
                       5: lambda row: [row[0], "x"] + row[2:]},
         "line 3: expected domain,user,item,label"),
        ("train.csv", {3: lambda row: [row[0], "x"] + row[2:],
                       5: lambda row: ["other"] + row[1:]}, "line 3: expected integer"),
        # one line with both faults: the id error wins
        ("candidates_validation.csv", {3: lambda row: [row[0], "x"] + row[2:-1]},
         "line 3: expected integer"),
    ], ids=["candidate_id_before_short_row", "candidate_short_row_before_id",
            "part_domain_before_id", "part_id_before_domain", "candidate_id_and_count"])
    def test_first_bad_line_is_named(self, tmp_path, synth_dataset, name, edits, message):
        data.save_split(data.generate_split(synth_dataset, data.SplitSpec(seed=14)),
                        tmp_path / "split")
        path = tmp_path / "split" / name
        lines = path.read_text().splitlines()
        for line_no, edit in edits.items():
            lines[line_no - 1] = ",".join(edit(lines[line_no - 1].split(",")))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(data.DataError, match=f"{name}: {message}"):
            data.load_split(tmp_path / "split")

    def test_round_trip_keeps_extra_meta(self, tmp_path, synth_dataset):
        split = data.generate_split(synth_dataset, data.SplitSpec(seed=13))
        data.save_split(split, tmp_path / "split", extra_meta="config_hash=ab12 note=x")
        loaded = data.load_split(tmp_path / "split")
        assert (loaded.seed, loaded.tiebreak_seed) == (split.seed, split.tiebreak_seed)
        assert loaded.meta == {"config_hash": "ab12", "note": "x"}

    @pytest.mark.parametrize("name", SPLIT_FILES[1:])
    def test_file_from_another_split_rejected(self, tmp_path, synth_dataset, name):
        # a candidate file drawn with another seed would be ordered with the
        # wrong tie-break seed
        for seed in (11, 12):
            data.save_split(data.generate_split(synth_dataset, data.SplitSpec(seed=seed)),
                            tmp_path / f"split_{seed}")
        (tmp_path / "split_11" / name).write_bytes((tmp_path / "split_12" / name).read_bytes())
        with pytest.raises(data.DataError, match=f"split_11/{name}: header "
                                                 r"'# seed=12 tiebreak_seed=\d+' differs"):
            data.load_split(tmp_path / "split_11")

    @pytest.mark.parametrize("drop", [1, -1])
    def test_candidate_row_with_wrong_negative_count_rejected(self, tmp_path,
                                                              synth_dataset, drop):
        split = data.generate_split(synth_dataset, data.SplitSpec(seed=14))
        data.save_split(split, tmp_path / "split")
        path = tmp_path / "split" / "candidates_validation.csv"
        lines = path.read_text().splitlines()
        row = lines[2].split(",")
        lines[2] = ",".join(row[:-1] if drop == 1 else row + [row[-1]])
        path.write_text("\n".join(lines) + "\n")
        negatives = data.N_EVAL_NEGATIVES - drop
        with pytest.raises(data.DataError,
                           match=f"candidates_validation.csv: line 3 has {negatives} "
                                 f"negatives, expected 99"):
            data.load_split(tmp_path / "split")


@pytest.fixture(scope="module")
def saved_split_files(tmp_path_factory):
    dataset, _ = data.synth_generate(data.SynthConfig(
        n_users=40, n_source_items=60, n_target_items=110, target_density=0.03,
        source_density=0.04, seed=5))
    directory = tmp_path_factory.mktemp("split")
    data.save_split(data.generate_split(dataset, data.SplitSpec(seed=1)), directory)
    return {name: (directory / name).read_bytes() for name in SPLIT_FILES}


LINE_EDITS = st.tuples(
    st.sampled_from(SPLIT_FILES), st.integers(0, 10**6),
    st.sampled_from(["drop", "repeat", "replace", "cut"]),
    st.one_of(st.binary(max_size=12),
              st.sampled_from([b"", b"#", b"# seed=1", b"# tiebreak_seed=2 seed=3",
                               b"domain,user", b"target,1,2,1", b"source,-1,0,1",
                               b"1,2", b"3,4," + b"5," * 98 + b"6",
                               b"3," + b"9" * 20 + b"," + b"5," * 98 + b"6"])))
BYTE_FLIPS = st.tuples(st.sampled_from(SPLIT_FILES), st.integers(0, 10**6),
                       st.integers(1, 255))


class TestSplitReaderFuzz:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.one_of(LINE_EDITS, BYTE_FLIPS), min_size=1, max_size=4))
    def test_edited_split_loads_or_raises_data_error(self, saved_split_files, tmp_path,
                                                     edits):
        files = dict(saved_split_files)
        for name, at, *change in edits:
            if len(change) == 1:
                blob = bytearray(files[name])
                blob[at % len(blob)] ^= change[0]
                files[name] = bytes(blob)
                continue
            op, text = change
            lines = files[name].split(b"\n")
            i = at % len(lines)
            if op == "drop":
                del lines[i]
            elif op == "repeat":
                lines.insert(i, lines[i])
            elif op == "replace":
                lines[i] = text
            else:
                lines[i] = lines[i][:len(text)]
            files[name] = b"\n".join(lines)
        for name, blob in files.items():
            (tmp_path / name).write_bytes(blob)
        try:
            data.load_split(tmp_path)
        except data.DataError:
            pass

    def test_non_utf8_byte_names_the_file(self, saved_split_files, tmp_path):
        for name, blob in saved_split_files.items():
            (tmp_path / name).write_bytes(blob)
        (tmp_path / "train.csv").write_bytes(saved_split_files["train.csv"] + b"\xff\n")
        with pytest.raises(data.DataError, match="train.csv: cannot read"):
            data.load_split(tmp_path)


# ---------------------------------------------------------------------------
# The loop-and-sort forms of the three data-building functions that now do
# array work. Each array form must return what its loop form returns and
# consume the generator's stream the same way.

def loop_top_cells(affinity, density):
    """The positives' cells, in the order synth_generate inserts them."""
    count = data._positive_count(density, affinity.size)
    return np.argsort(-affinity.ravel(), kind="stable")[:count]


def loop_ensure_test_users_trained(train, val, test, rng, types=None):
    moves = 0
    train_per_user = {}
    for u, _ in train:
        train_per_user[u] = train_per_user.get(u, 0) + 1

    for part in (val, test):
        violators = sorted({u for u, _ in part if train_per_user.get(u, 0) == 0})
        for u in violators:
            user_held = sorted(p for p in part if p[0] == u)
            promote = user_held[rng.integers(len(user_held))]
            donors = sorted(p for p in train if train_per_user.get(p[0], 0) >= 2)
            if types is not None:
                same_type = [p for p in donors if types[p[0]] == types[u]]
                donors = same_type or donors
            part.discard(promote)
            train.add(promote)
            train_per_user[u] = train_per_user.get(u, 0) + 1
            moves += 1
            if donors:
                demote = donors[rng.integers(len(donors))]
                train.discard(demote)
                part.add(demote)
                train_per_user[demote[0]] -= 1
    return moves


def sha1_order(seed, user, items):
    """items sorted into tie-break order: by the first 8 bytes, read
    big-endian, of sha1(f"{seed}:{user}:{item}"), ties by item id."""
    return sorted(items, key=lambda j: (int.from_bytes(
        hashlib.sha1(f"{seed}:{user}:{j}".encode()).digest()[:8], "big"), j))


def loop_build_eval_candidates(dataset, test_positives, seed):
    """((user, positive, candidates as drawn, candidates in tie-break
    order) per list, generator after the last draw)."""
    rng = np.random.default_rng(seed)
    user_items = dataset.user_items(TARGET)
    out = []
    for u, pos in sorted(test_positives):
        known = user_items.get(u, set())
        eligible = np.array([j for j in range(dataset.n_target_items) if j not in known],
                            dtype=np.intp)
        negatives = rng.choice(eligible, size=data.N_EVAL_NEGATIVES, replace=False)
        drawn = [pos, *negatives.tolist()]
        out.append((u, pos, drawn, sha1_order(seed, u, drawn)))
    return out, rng


def loop_read_rows(path, user_column, item_column, rating_column, attribute_column,
                   threshold):
    """One csv.DictReader dict per row; line numbers count parsed rows."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise data.DataError(f"{path}: empty file")
            for col in (user_column, item_column) + ((rating_column,) if rating_column else ()):
                if col not in reader.fieldnames:
                    raise data.DataError(f"{path}: missing column {col!r}")
            if attribute_column not in reader.fieldnames:
                attribute_column = ""
            for line_no, row in enumerate(reader, start=2):
                user = row[user_column]
                item = row[item_column]
                if user is None or item is None or user == "" or item == "":
                    raise data.DataError(f"{path}: malformed row at line {line_no}")
                if rating_column:
                    try:
                        rating = float(row[rating_column])
                    except (TypeError, ValueError):
                        raise data.DataError(f"{path}: bad rating at line {line_no}") from None
                    if not math.isfinite(rating):
                        raise data.DataError(f"{path}: non-finite rating "
                                             f"{row[rating_column]!r} at line {line_no}")
                    if rating < threshold:
                        continue
                attr = row[attribute_column] if attribute_column else None
                yield user, item, attr or None
    except (OSError, UnicodeDecodeError) as exc:
        raise data.DataError(f"{path}: cannot read CSV file: {exc}") from None


def loop_ingest_csv(source_path, target_path, *, user_column="user", item_column="item",
                    rating_column="rating", attribute_column="attribute",
                    positive_threshold=4.0):
    columns = (user_column, item_column, rating_column, attribute_column)
    raw = {}
    attrs = {}
    for domain, path in ((SOURCE, source_path), (TARGET, target_path)):
        rows = []
        for user, item, attribute in loop_read_rows(path, *columns, positive_threshold):
            rows.append((user, item))
            if attribute is not None:
                if attrs.get(user, attribute) != attribute:
                    raise data.DataError(f"user {user!r} has conflicting attribute labels")
                attrs[user] = attribute
        raw[domain] = rows
    source_users = {u for u, _ in raw[SOURCE]}
    target_users = {u for u, _ in raw[TARGET]}
    shared = source_users & target_users
    if not shared:
        raise data.DataError("no users shared between the source and target files")
    user_keys = sorted(shared, key=data._sort_key)
    user_index = {u: i for i, u in enumerate(user_keys)}
    stats = data.IngestStats(
        source_users_dropped=len(source_users - shared),
        target_users_dropped=len(target_users - shared),
        source_rows=len(raw[SOURCE]), target_rows=len(raw[TARGET]))
    n_items, positives = {}, {}
    for domain in data.DOMAINS:
        kept = [(u, i) for u, i in raw[domain] if u in shared]
        keys = sorted({i for _, i in kept}, key=data._sort_key)
        index = {key: j for j, key in enumerate(keys)}
        n_items[domain] = len(keys)
        positives[domain] = {(user_index[u], index[i]) for u, i in kept}
    attribute = names = None
    if attrs:
        labels = sorted({attrs[u] for u in user_keys if u in attrs})
        if len(labels) == 2 and all(u in attrs for u in user_keys):
            names = (labels[0], labels[1])
            attribute = np.array([labels.index(attrs[u]) for u in user_keys], dtype=np.int8)
    return data.CrossDomainDataset(
        n_users=len(user_keys), n_source_items=n_items[SOURCE],
        n_target_items=n_items[TARGET], source_positives=positives[SOURCE],
        target_positives=positives[TARGET], user_attribute=attribute,
        attribute_names=names, stats=stats)


def random_csv_pair(directory, seed=None):
    """Two CSV files with a seeded mix of the features ingest_csv must read
    as csv.DictReader does; with no seed, every feature is on."""
    rng = np.random.default_rng(seed)
    on = rng.random(8) < 0.6 if seed is not None else np.ones(8, dtype=bool)
    users = [f"u{j}" if j % 3 else str(j) for j in range(30)]       # mixed keys
    labels = {u: "fm"[j % 2] for j, u in enumerate(users)}
    end = "\r\n" if on[0] else "\n"                                  # CRLF
    # users present in only one file
    absent = {"source": users[:3], "target": users[25:]} if on[1] else {}
    paths = []
    for name, n_items in (("source", 25), ("target", 20)):
        # a repeated header name reads its last column
        header = ["user", "item", "rating", "attribute"] + (["item"] if on[2] else [])
        if name == "target" and on[3]:
            header.remove("attribute")           # an attribute column in one file only
        lines = []
        for _ in range(120):
            u = users[int(rng.integers(len(users)))]
            if u in absent.get(name, ()):
                continue
            item = str(rng.integers(n_items))
            if on[4] and rng.random() < 0.3:
                item = f'"i,{item}"'              # a quoted field holding a comma
            cells = [u, "x" if on[2] else item, str(rng.integers(1, 6))]
            if "attribute" in header:
                cells.append("" if on[5] and rng.random() < 0.2 else labels[u])
            if on[2]:
                cells.append(item)
            if on[6] and rng.random() < 0.1:
                cells.append("extra")             # an extra field
            if on[7] and not on[2] and rng.random() < 0.1:
                cells = cells[:3]                 # a short row: no attribute cell
            lines.append(",".join(cells))
        path = directory / f"{name}.csv"
        path.write_bytes((end.join([",".join(header)] + lines) + end).encode())
        paths.append(path)
    return paths


def assert_same_dataset(got, want):
    for name in ("n_users", "n_source_items", "n_target_items", "source_positives",
                 "target_positives", "attribute_names", "stats"):
        assert getattr(got, name) == getattr(want, name), name
    if want.user_attribute is None:
        assert got.user_attribute is None
    else:
        assert got.user_attribute.dtype == want.user_attribute.dtype
        assert np.array_equal(got.user_attribute, want.user_attribute)


def random_parts(seed, train_share, n_users=40, n_items=30, n_pairs=130):
    """Random disjoint (train, validation, test) pairs, about three per
    user, so that many users hold nothing in train."""
    rng = np.random.default_rng(seed)
    cells = rng.choice(n_users * n_items, size=n_pairs, replace=False)
    where = rng.choice(3, size=n_pairs, p=[train_share, (1 - train_share) / 2,
                                           (1 - train_share) / 2])
    pairs = [(int(c) // n_items, int(c) % n_items) for c in cells]
    parts = tuple({p for p, w in zip(pairs, where) if w == k} for k in range(3))
    return parts, rng.integers(0, 2, size=n_users).astype(np.int8)


class TestArrayFormsMatchLoopForms:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("values", ["normal", "few_integers", "signed_zeros"])
    def test_positives_from_affinity(self, seed, values, monkeypatch):
        rng = np.random.default_rng(seed)
        shape = (37, 53)
        affinity = {
            "normal": lambda: rng.normal(size=shape),
            # nearly every cut-off falls inside a long run of ties
            "few_integers": lambda: rng.integers(0, 4, size=shape).astype(np.float64),
            # -0.0 and 0.0 tie in both the sort and the cut-off test
            "signed_zeros": lambda: rng.choice([-0.0, 0.0, 1.0], size=shape),
        }[values]()
        cells = affinity.size
        # 1961 cells: most counts exceed the smaller blocks and set the
        # step, and most steps leave a short last block
        for block in (1, 7, 64, data.POSITIVE_BLOCK_CELLS):
            monkeypatch.setattr(data, "POSITIVE_BLOCK_CELLS", block)
            for count in (1, 2, cells // 50, cells // 3, cells - 1):
                density = count / cells
                assert data._positive_count(density, cells) == count
                got = data._top_cells(affinity, density)
                assert got.dtype == np.intp
                assert np.array_equal(got, loop_top_cells(affinity, density)), (block, count)

    @pytest.mark.parametrize("block", [1, 4, 7, 64])
    def test_top_cells_across_block_boundaries(self, block, monkeypatch):
        monkeypatch.setattr(data, "POSITIVE_BLOCK_CELLS", block)
        # runs of tied 1.0s and of mixed -0.0/0.0 cross every block boundary
        affinity = np.array([1.0, -0.0, 0.0, 1.0, 1.0, -0.0, 2.0, 0.0, 0.0, -0.0] * 3)
        affinity = affinity.reshape(3, 10)
        want = {1: [6], 4: [6, 16, 26, 0], 11: [6, 16, 26, 0, 3, 4, 10, 13, 14, 20, 23],
                15: [6, 16, 26, 0, 3, 4, 10, 13, 14, 20, 23, 24, 1, 2, 5]}
        for count, cells in want.items():
            # a count above the block sets the step; steps 4, 7, 11 and 64
            # leave a short last block
            got = data._top_cells(affinity, count / 30)
            assert got.tolist() == cells == loop_top_cells(affinity, count / 30).tolist()

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("train_share", [0.15, 0.4, 0.7])
    @pytest.mark.parametrize("typed", [False, True], ids=["untyped", "typed"])
    def test_ensure_test_users_trained(self, seed, train_share, typed):
        parts, types = random_parts(seed, train_share)
        types = types if typed else None
        got = [set(p) for p in parts]
        want = [set(p) for p in parts]
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got_moves = data._ensure_test_users_trained(*got, got_rng, types=types)
        want_moves = loop_ensure_test_users_trained(*want, want_rng, types=types)
        assert got_moves == want_moves > 0
        assert got == want
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("seed", [None, *range(12)])
    def test_ingest_csv(self, tmp_path, seed):
        source, target = random_csv_pair(tmp_path, seed)
        assert_same_dataset(data.ingest_csv(source, target),
                            loop_ingest_csv(source, target))
        for kwargs in ({"rating_column": "", "attribute_column": ""},
                       {"positive_threshold": 2.5},
                       {"user_column": "item", "item_column": "user",
                        "attribute_column": ""}):
            assert_same_dataset(data.ingest_csv(source, target, **kwargs),
                                loop_ingest_csv(source, target, **kwargs))

    @pytest.mark.parametrize("source, target", [
        ("user,item,rating\na,x,5\na,y,bad\n", "user,item,rating\na,p,5\n"),
        ("user,item,rating\na,x,5\na,y,-inf\n", "user,item,rating\na,p,5\n"),
        ("user,item,rating\na,x,5\na,y\n", "user,item,rating\na,p,5\n"),
        ("user,item,rating\na,x,5\n,y,5\n", "user,item,rating\na,p,5\n"),
        ("user,item,rating\na,x,5\na,,5\n", "user,item,rating\na,p,5\n"),
        ("user,item,rating\na\n", "user,item,rating\na,p,5\n"),
        ("user,rating\na,5\n", "user,item,rating\na,p,5\n"),
        ("", "user,item,rating\na,p,5\n"),
        ("\nuser,item,rating\na,x,5\n", "user,item,rating\na,p,5\n"),
        ("user,item,rating,attribute\na,x,5,f\n", "user,item,rating,attribute\na,p,5,m\n"),
        ("user,item,rating,attribute\na,x,5,f\na,y,5,m\n", "user,item,rating\na,p,5\n"),
        ("user,item,rating\na,x,5\n", "user,item,rating\nb,p,5\n"),
        ("user,item,rating\na,x,1\n", "user,item,rating\na,p,5\n"),
    ], ids=["bad_rating", "non_finite_rating", "short_row_no_rating", "empty_user",
            "empty_item", "user_only", "missing_item_column", "empty_file",
            "blank_first_line", "conflicting_attribute_across_files",
            "conflicting_attribute_in_one_file", "no_shared_user", "no_positive"])
    def test_ingest_csv_errors(self, tmp_path, source, target):
        (tmp_path / "source.csv").write_text(source)
        (tmp_path / "target.csv").write_text(target)
        with pytest.raises(data.DataError) as want:
            loop_ingest_csv(tmp_path / "source.csv", tmp_path / "target.csv")
        with pytest.raises(data.DataError) as got:
            data.ingest_csv(tmp_path / "source.csv", tmp_path / "target.csv")
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("n_pairs", [0, 1, 2, 300])
    def test_partition_domain(self, n_pairs):
        rng = np.random.default_rng(n_pairs)
        cells = rng.choice(40 * 50, size=n_pairs, replace=False)
        positives = {(int(c) // 50, int(c) % 50) for c in cells}
        got_rng, want_rng = np.random.default_rng(7), np.random.default_rng(7)
        got = data._partition_domain(positives, (0.8, 0.1, 0.1), got_rng)
        pool = sorted(positives)
        want_rng.shuffle(pool)
        n_train, n_val, _ = data._apportion(len(pool), (0.8, 0.1, 0.1))
        want = (set(pool[:n_train]), set(pool[n_train:n_train + n_val]),
                set(pool[n_train + n_val:]))
        assert got == want
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_build_eval_candidates(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        n_users, n_items = 25, 160
        # the last user holds no positive at all
        positives = {(int(u), int(i)) for u, i in zip(rng.integers(n_users - 1, size=700),
                                                      rng.integers(n_items, size=700))}
        dataset = data.CrossDomainDataset(n_users=n_users, n_source_items=3,
                                          n_target_items=n_items,
                                          source_positives={(0, 0)},
                                          target_positives=positives)
        pool = sorted(positives)
        held = [pool[j] for j in rng.choice(len(pool), size=60, replace=False)]
        held.append((n_users - 1, 5))
        want, want_rng = loop_build_eval_candidates(dataset, held, seed + 100)

        made = []
        default_rng = np.random.default_rng

        def recording_rng(s):
            made.append(default_rng(s))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        got = data.build_eval_candidates(dataset, held, seed + 100)
        assert len(made) == 1
        assert made[0].bit_generator.state == want_rng.bit_generator.state
        assert len(got) == len(want)
        assert all(a.dtype == np.intp for a in (got.users, got.items))
        assert got.tiebreak_seed == seed + 100
        assert list(zip(got.users.tolist(), got.items.tolist())) == [
            (user, drawn) for user, _, drawn, _ in want]


class TestTiesRankByKey:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**31 - 2), n_items=st.integers(102, 160),
           scorer=st.sampled_from(sorted(TIE_SCORERS)))
    def test_rank_is_the_rank_in_the_sha1_sorted_list(self, seed, n_items, scorer):
        # each user holds 1-3 positives, so 99 negatives always remain
        rng = np.random.default_rng(seed)
        n_users, held, positives = 20, [], set()
        for u in range(n_users):
            items = rng.choice(n_items, size=int(rng.integers(1, 4)), replace=False)
            positives.update((u, int(i)) for i in items)
            held.append((u, int(items[0])))
        dataset = data.CrossDomainDataset(n_users=n_users, n_source_items=3,
                                          n_target_items=n_items,
                                          source_positives={(0, 0)},
                                          target_positives=positives)
        lists = data.build_eval_candidates(dataset, held, seed)
        want, _ = loop_build_eval_candidates(dataset, held, seed)
        score = TIE_SCORERS[scorer]
        total = 0.0
        for r, (user, positive, _, ordered) in enumerate(want):
            scores = score(np.array([user]), np.array([ordered]))[0]
            # NDCG@100 is 1 / log2(rank + 1): it names the rank
            _, ndcg = evaluation.rank_metrics(scores, ordered.index(positive), 100)
            alone = data.CandidateLists(users=lists.users[r:r + 1],
                                        items=lists.items[r:r + 1],
                                        tiebreak_seed=lists.tiebreak_seed)
            assert evaluation.evaluate_candidates(alone, score, (100,))["NDCG@100"] == ndcg
            total += ndcg
        assert len(lists) > evaluation.EVAL_BLOCK_LISTS
        got = evaluation.evaluate_candidates(lists, score, (100,))
        assert got["NDCG@100"] == total / len(want)


# ---------------------------------------------------------------------------
# The bytes save_split writes for one small request per split kind, and for
# a tiny CSV dataset. A change that moves a single byte of a split, its
# candidate lists or the positives they are drawn from changes a digest.

GOLDEN_SYNTH = data.SynthConfig(n_users=120, n_source_items=150, n_target_items=130,
                                k=4, target_density=0.03, source_density=0.05,
                                attribute_shift=1.0, seed=3)
GOLDEN_SPLITS = {
    "iid": (data.SplitSpec(kind="iid", seed=4),
            "fae5a8e0b720d2ddd9583b99a2db2d91bf2986e8d4983076aa60292564e82f0b"),
    "ood_degree": (data.SplitSpec(kind="ood_degree", train_mix=(0.7, 0.3),
                                  test_mix=(0.3, 0.7), seed=4),
                   "4f9c3bc2c7d00d7e42eb8b6339d99d4a67d6910897f66c6a8a3bd1b1bd3678e1"),
    "ood_attribute": (data.SplitSpec(kind="ood_attribute", train_mix=(0.8, 0.2),
                                     test_mix=(0.2, 0.8), seed=4),
                      "49cf6b2611c244e235d10390009960ab23db24281a9d691d68e30b0b1f086dee"),
    "csv": (data.SplitSpec(kind="iid", seed=4),
            "eb14bda652f0a65d8661ced4258621060779c6f66721b3c327849d8859ea9e08"),
}


def golden_csv_dataset(directory):
    """400 rows per file over 40 string-keyed users, ratings 1-5."""
    rng = np.random.default_rng(8)
    for name, n_items in (("source", 90), ("target", 200)):
        lines = ["user,item,rating,attribute"]
        for _ in range(400):
            u, i, r = (int(rng.integers(40)), int(rng.integers(n_items)),
                       int(rng.integers(1, 6)))
            lines.append(f"u{u},{i},{r},{'fm'[u % 2]}")
        (directory / f"{name}.csv").write_text("\n".join(lines) + "\n")
    return data.ingest_csv(directory / "source.csv", directory / "target.csv")


def directory_digest(directory):
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("case", list(GOLDEN_SPLITS))
def test_saved_split_bytes_are_pinned(tmp_path, case):
    spec, sha256 = GOLDEN_SPLITS[case]
    if case == "csv":
        dataset = golden_csv_dataset(tmp_path)
    else:
        dataset, _ = data.synth_generate(GOLDEN_SYNTH)
    data.save_split(data.generate_split(dataset, spec), tmp_path / "split")
    assert directory_digest(tmp_path / "split") == sha256
