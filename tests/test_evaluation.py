import gc
import math

import numpy as np
import pytest

from causalcdr import causal, data, diffcore as dc, evaluation, model


def brute_force_rank(scores, positive_position):
    # independent oracle: stable sort by (-score, list position), scan
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return order.index(positive_position) + 1


def make_candidates(n_lists, seed):
    """Lists of 100 distinct items out of 200: a positive in column 0, then
    99 negatives in shuffled order."""
    rng = np.random.default_rng(seed)
    items = np.stack([rng.permutation(200)[:100] for _ in range(n_lists)]).astype(np.intp)
    return data.CandidateLists(users=np.zeros(n_lists, dtype=np.intp), items=items,
                               tiebreak_seed=seed)


def one_list(lists, r):
    """Row r of a block of candidate lists as a block of its own."""
    return data.CandidateLists(users=lists.users[r:r + 1], items=lists.items[r:r + 1],
                               tiebreak_seed=lists.tiebreak_seed)


def score_alone(params, adjacency, user, items):
    """The model's scores for one candidate list, scored as a block of one."""
    tape = dc.Tape(grad=False)
    a_pref = (causal.preference_block(tape.constant(adjacency), params.dims.k)
              if adjacency is not None else None)
    return model.score_candidates(params.register(tape), [user], items[None], a_pref)[0]


def small_split_and_params(seed):
    dataset, _ = data.synth_generate(data.SynthConfig(
        n_users=40, n_source_items=130, n_target_items=120,
        target_density=0.05, source_density=0.04, seed=seed))
    dims = model.ModelDims(k=4, n_users=40, n_source_items=130,
                           n_target_items=120)
    params = model.ModelParams.init(dims, seed=seed + 1)
    params.matrices["adjacency"][...] = np.random.default_rng(seed + 2).normal(
        size=(8, 8)) * 0.3
    return data.generate_split(dataset, data.SplitSpec(seed=seed + 3)), params


class TestRankMetrics:
    def test_rank_one(self):
        scores = np.zeros(100)
        scores[7] = 5.0
        for k in (5, 10):
            hit, ndcg = evaluation.rank_metrics(scores, 7, k)
            assert hit == 1 and ndcg == 1.0

    def test_rank_two(self):
        scores = np.zeros(100)
        scores[3] = 2.0
        scores[11] = 3.0
        hit, ndcg = evaluation.rank_metrics(scores, 3, 5)
        assert hit == 1
        assert ndcg == pytest.approx(1 / math.log2(3), abs=1e-9)

    def test_rank_eleven_misses_top_ten(self):
        scores = np.zeros(100)
        scores[:10] = 2.0  # ten candidates strictly above the positive
        hit, ndcg = evaluation.rank_metrics(scores, 50, 10)
        assert hit == 0 and ndcg == 0.0

    def test_ties_broken_by_list_order(self):
        scores = np.ones(100)
        assert evaluation.rank_metrics(scores, 0, 10) == (1, 1.0)
        hit, _ = evaluation.rank_metrics(scores, 12, 10)
        assert hit == 0

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            evaluation.rank_metrics(np.zeros(99), 0, 5)

    @pytest.mark.parametrize("position", [-1, 100])
    def test_position_outside_the_list_rejected(self, position):
        with pytest.raises(ValueError, match="outside"):
            evaluation.rank_metrics(np.zeros(100), position, 5)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            scores = rng.integers(0, 12, size=100).astype(float)  # force ties
            pos = int(rng.integers(100))
            rank = brute_force_rank(scores, pos)
            for k in (5, 10):
                hit, ndcg = evaluation.rank_metrics(scores, pos, k)
                assert hit == (1 if rank <= k else 0)
                expected = 1 / math.log2(rank + 1) if rank <= k else 0.0
                assert ndcg == pytest.approx(expected, abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(9)
        scores = rng.normal(size=100)
        pos = 42
        for k in (5, 10):
            base = evaluation.rank_metrics(scores, pos, k)
            warped = evaluation.rank_metrics(np.exp(3 * scores) + 7, pos, k)
            assert base == warped

    def test_ndcg_bounded_by_hit_and_monotone_in_k(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            scores = rng.normal(size=100)
            pos = int(rng.integers(100))
            hit5, ndcg5 = evaluation.rank_metrics(scores, pos, 5)
            hit10, ndcg10 = evaluation.rank_metrics(scores, pos, 10)
            assert ndcg5 <= hit5 and ndcg10 <= hit10
            assert hit5 <= hit10 and ndcg5 <= ndcg10


class TestEvaluate:
    def test_oracle_scorer_hits_everything(self):
        candidates = make_candidates(20, seed=1)
        results = []
        for r, positive in enumerate(candidates.items[:, 0]):
            def scorer(users, items, pos=positive):
                return (items == pos).astype(float)
            results.append(evaluation.evaluate_candidates(one_list(candidates, r), scorer))
        merged = evaluation.aggregate_runs(results)
        for key in merged.mean:
            assert merged.mean[key] == 1.0

    def test_constant_scorer_near_uniform(self):
        candidates = make_candidates(1200, seed=2)

        def scorer(users, items):
            return np.zeros(items.shape)

        metrics = evaluation.evaluate_candidates(candidates, scorer)
        assert metrics["HR@10"] == pytest.approx(0.1, abs=0.03)
        assert metrics["HR@5"] == pytest.approx(0.05, abs=0.02)

    def test_hand_built_instance(self):
        # five users; positive of user u sits at rank u+1 by construction
        rng = np.random.default_rng(0)
        negatives = [rng.permutation(np.delete(np.arange(100), 50)) for _ in range(5)]
        candidates = data.CandidateLists(
            users=np.arange(5, dtype=np.intp),
            items=np.array([[50, *row] for row in negatives], dtype=np.intp),
            tiebreak_seed=0)

        def scorer(users, items):
            # items 0..u-1 strictly above the positive, item 50
            return np.where(items == 50, 5.0,
                            np.where(items < users[:, None], 10.0, 0.0))

        metrics = evaluation.evaluate_candidates(candidates, scorer)
        ranks = [1, 2, 3, 4, 5]
        assert metrics["HR@5"] == 1.0
        expected_ndcg5 = np.mean([1 / math.log2(r + 1) for r in ranks])
        assert metrics["NDCG@5"] == pytest.approx(expected_ndcg5, abs=1e-12)

    def test_model_evaluate_runs_on_split(self):
        dataset, _ = data.synth_generate(data.SynthConfig(
            n_users=60, n_source_items=130, n_target_items=120,
            target_density=0.04, source_density=0.04, seed=3))
        split = data.generate_split(dataset, data.SplitSpec(seed=4))
        dims = model.ModelDims(k=4, n_users=60, n_source_items=130,
                               n_target_items=120)
        params = model.ModelParams.init(dims, seed=5)
        metrics = evaluation.evaluate(params, params.effective_adjacency_matrix(),
                                      split)
        for key, value in metrics.items():
            assert 0.0 <= value <= 1.0

    def test_model_evaluate_matches_sort_and_scan(self):
        # independent re-implementation: score, stable sort, scan for rank
        dataset, _ = data.synth_generate(data.SynthConfig(
            n_users=18, n_source_items=140, n_target_items=130,
            target_density=0.06, source_density=0.05, seed=8))
        split = data.generate_split(dataset, data.SplitSpec(seed=9))
        dims = model.ModelDims(k=4, n_users=18, n_source_items=140,
                               n_target_items=130)
        params = model.ModelParams.init(dims, seed=10)
        adjacency = params.effective_adjacency_matrix()
        got = evaluation.evaluate(params, adjacency, split)

        totals = {k: 0.0 for k in got}
        lists = split.eval_candidates
        for user, items in zip(lists.users, lists.items):
            scores = score_alone(params, adjacency, user, items)
            order = sorted(range(100), key=lambda i: (-scores[i], i))
            rank = order.index(0) + 1
            for k in (5, 10):
                hit = 1 if rank <= k else 0
                totals[f"HR@{k}"] += hit
                totals[f"NDCG@{k}"] += (1 / math.log2(rank + 1)) if hit else 0.0
        n = len(split.eval_candidates)
        for key in got:
            assert got[key] == pytest.approx(totals[key] / n, abs=1e-12)

    def test_block_scores_rank_like_lists_scored_alone(self):
        split, params = small_split_and_params(seed=30)
        adjacency = params.effective_adjacency_matrix()
        candidates = split.eval_candidates
        assert len(candidates) > evaluation.EVAL_BLOCK_LISTS
        blocks = []

        def scorer(users, items):
            tape = dc.Tape(grad=False)
            a_pref = causal.preference_block(tape.constant(adjacency), params.dims.k)
            scores = model.score_candidates(params.register(tape), users, items, a_pref)
            blocks.append(scores)
            return scores

        evaluation.evaluate_candidates(candidates, scorer)
        assert [len(b) for b in blocks[:-1]] == [evaluation.EVAL_BLOCK_LISTS] * (
            len(blocks) - 1)
        block_rows = np.concatenate(blocks)
        for user, items, row in zip(candidates.users, candidates.items, block_rows,
                                    strict=True):
            alone = score_alone(params, adjacency, user, items)
            assert brute_force_rank(row, 0) == brute_force_rank(alone, 0)

    def test_unknown_part_rejected(self):
        split, params = small_split_and_params(seed=32)
        with pytest.raises(ValueError, match="unknown part 'tset'"):
            evaluation.evaluate(params, None, split, part="tset")

    @pytest.mark.parametrize("items", [lambda items: items[:, :99],
                                       lambda items: items[:2],
                                       lambda items: items.ravel()],
                             ids=["99_wide", "fewer_rows_than_users", "flat"])
    def test_block_of_wrong_shape_rejected(self, items):
        candidates = make_candidates(3, seed=31)
        candidates.items = items(candidates.items)

        def scorer(users, items):
            raise AssertionError("malformed lists must be rejected before scoring")

        with pytest.raises(ValueError, match=r"3 candidate lists hold items of shape "
                                             r"\(\d+,( \d+)?\), expected \(3, 100\)"):
            evaluation.evaluate_candidates(candidates, scorer)

    def test_evaluate_leaves_no_reference_cycles(self):
        split, params = small_split_and_params(seed=32)
        was_on = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            evaluation.evaluate(params, params.effective_adjacency_matrix(), split)
            assert gc.collect() == 0
        finally:
            if was_on:
                gc.enable()


class TestAggregation:
    def test_identical_runs_zero_std(self):
        run = {"HR@5": 0.4, "HR@10": 0.5, "NDCG@5": 0.2, "NDCG@10": 0.3}
        report = evaluation.aggregate_runs([run, dict(run), dict(run)])
        assert all(s == 0.0 for s in report.std.values())
        assert report.mean == run

    def test_two_point_sample_std(self):
        runs = [{"HR@5": 0.2}, {"HR@5": 0.3}]
        report = evaluation.aggregate_runs(runs)
        assert report.mean["HR@5"] == pytest.approx(0.25)
        assert report.std["HR@5"] == pytest.approx(0.070710678, abs=1e-8)

    def test_five_runs_match_oracle(self):
        rng = np.random.default_rng(6)
        values = rng.uniform(0, 1, size=5)
        runs = [{"HR@10": float(v)} for v in values]
        report = evaluation.aggregate_runs(runs)
        assert report.mean["HR@10"] == pytest.approx(values.mean())
        assert report.std["HR@10"] == pytest.approx(values.std(ddof=1))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(7)
        runs = [{"HR@5": float(v)} for v in rng.uniform(0, 1, 6)]
        a = evaluation.aggregate_runs(runs)
        b = evaluation.aggregate_runs(list(reversed(runs)))
        assert a.mean == b.mean and a.std == b.std


class TestDegradation:
    def test_paper_style_pairing(self):
        iid = evaluation.MetricsReport(mean={"HR@5": 0.2581}, std={"HR@5": 0.0},
                                       n_runs=5)
        ood = evaluation.MetricsReport(mean={"HR@5": 0.2362}, std={"HR@5": 0.0},
                                       n_runs=5)
        report = evaluation.degradation_report(iid, ood)
        expected = (0.2581 - 0.2362) / 0.2581 * 100
        assert report.degradation_pct["HR@5"] == pytest.approx(expected)
        assert expected == pytest.approx(8.49, abs=0.005)

    def test_equal_reports_zero(self):
        r = evaluation.MetricsReport(mean={"HR@5": 0.4}, std={"HR@5": 0.01}, n_runs=5)
        out = evaluation.degradation_report(r, r)
        assert out.degradation_pct["HR@5"] == 0.0

    def test_simple_arithmetic(self):
        iid = evaluation.MetricsReport(mean={"HR@5": 0.5}, std={"HR@5": 0}, n_runs=1)
        ood = evaluation.MetricsReport(mean={"HR@5": 0.4}, std={"HR@5": 0}, n_runs=1)
        assert evaluation.degradation_report(iid, ood).degradation_pct["HR@5"] == \
            pytest.approx(20.0)

    def test_zero_iid_not_applicable(self):
        iid = evaluation.MetricsReport(mean={"HR@5": 0.0}, std={"HR@5": 0}, n_runs=1)
        ood = evaluation.MetricsReport(mean={"HR@5": 0.1}, std={"HR@5": 0}, n_runs=1)
        assert evaluation.degradation_report(iid, ood).degradation_pct["HR@5"] is None


class TestExports:
    def test_csv_layout(self, tmp_path):
        report = evaluation.MetricsReport(
            mean={"HR@5": 0.5, "HR@10": 0.6, "NDCG@5": 0.3, "NDCG@10": 0.35},
            std={"HR@5": 0.01, "HR@10": 0.01, "NDCG@5": 0.01, "NDCG@10": 0.01},
            n_runs=5,
            degradation_pct={"HR@5": 8.51, "HR@10": 5.5, "NDCG@5": None,
                             "NDCG@10": 8.9})
        path = tmp_path / "metrics.csv"
        evaluation.write_metrics_csv(report, "ood_degree", path,
                                     header_meta="config_hash=ff seed=1")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "# config_hash=ff seed=1"
        assert lines[1] == "setting,metric,k,mean,std,degradation_pct"
        assert "ood_degree,HR,5,0.500000,0.010000,8.51" in lines
        assert "ood_degree,NDCG,5,0.300000,0.010000,n/a" in lines

    def test_markdown_mirrors_paper_convention(self):
        report = evaluation.MetricsReport(
            mean={"HR@5": 0.2362, "HR@10": 0.3574, "NDCG@5": 0.1582,
                  "NDCG@10": 0.1973},
            std={k: 0.005 for k in ("HR@5", "HR@10", "NDCG@5", "NDCG@10")},
            n_runs=5,
            degradation_pct={"HR@5": 8.51, "HR@10": 5.50, "NDCG@5": 11.05,
                             "NDCG@10": 8.90})
        text = evaluation.metrics_markdown({"ood#1": report})
        assert "0.2362 (-8.51%)" in text
        assert "(±0.0050)" in text
