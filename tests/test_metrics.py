import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from edgeprune import (InputError, PairCounts, acc, ari, edge_percentage, load_graph,
                       mutualize)
from edgeprune.metrics import contingency

from conftest import random_labels


def acc_exhaustive(truth, pred):
    """Brute-force best-mapping accuracy over all id permutations."""
    truth = np.asarray(truth)
    pred = np.asarray(pred)
    c = max(truth.max(), pred.max()) + 1
    best = 0.0
    for perm in itertools.permutations(range(c)):
        mapped = np.array([perm[v] for v in pred])
        best = max(best, float(np.mean(mapped == truth)))
    return best


def acc_scipy(truth, pred):
    """Best-mapping accuracy from scipy's LAPJVsp on the contingency matrix plus 1,
    where every cell is an edge, so a full matching of the smaller side exists."""
    m = contingency(truth, pred)
    rows, cols = min_weight_full_bipartite_matching(csr_matrix(m + 1.0), maximize=True)
    return float(m[rows, cols].sum()) / float(m.sum())


def pair_counts_enumerated(truth, pred):
    """O(N^2) pair enumeration, independent of the contingency route."""
    n11 = n00 = n01 = n10 = 0
    n = len(truth)
    for i in range(n):
        for j in range(i + 1, n):
            same_t = truth[i] == truth[j]
            same_p = pred[i] == pred[j]
            if same_t and same_p:
                n11 += 1
            elif not same_t and not same_p:
                n00 += 1
            elif same_t:
                n01 += 1
            else:
                n10 += 1
    return PairCounts(n11=n11, n00=n00, n01=n01, n10=n10)


def first_occurrence(labels):
    """Relabel by order of first appearance: equal partitions give equal lists."""
    seen = {}
    return [seen.setdefault(v, len(seen)) for v in labels]


def ari_contingency_oracle(truth, pred):
    """Adjusted Rand index via the standard contingency-table formula."""
    m = contingency(truth, pred)
    n = int(m.sum())
    index = sum(math.comb(int(v), 2) for v in m.ravel())
    a = sum(math.comb(int(v), 2) for v in m.sum(axis=1))
    b = sum(math.comb(int(v), 2) for v in m.sum(axis=0))
    expected = a * b / math.comb(n, 2)
    maximum = (a + b) / 2.0
    if maximum == expected:
        return 1.0
    return (index - expected) / (maximum - expected)


@pytest.mark.parametrize("truth, pred", [([0, -1, 1], [0, 1, 1]), ([0, 1, 1], [0, 1, -2])],
                         ids=["truth", "pred"])
def test_contingency_rejects_negative_labels(truth, pred):
    with pytest.raises(InputError, match="^label ids must be non-negative$"):
        contingency(truth, pred)


@pytest.mark.parametrize("metric", [acc, ari, contingency])
@pytest.mark.parametrize("truth, pred, shown", [
    ([0, 1, 1], [0.7, 1.2, 1.9], "0.7"),           # a cast would score ACC 1.0
    ([0.2, 0.9, 1.1, 1.7], [0, 0, 1, 1], "0.2"),   # and ARI 1.0
    ([0, 1, 1], ["a", "b", "b"], "'a'"),
    ([0, 1, 2**70], [0, 1, 1], str(2**70)),
    ([0, 1, 1], [0.0, np.nan, 1.0], "nan"),
], ids=["pred-fractions", "truth-fractions", "strings", "past-int64", "nan"])
def test_labels_that_are_not_whole_int64_rejected(metric, truth, pred, shown):
    with pytest.raises(InputError, match=r"^labels must be whole numbers within int64, "
                                         rf"got {re.escape(shown)}$"):
        metric(truth, pred)


@pytest.mark.parametrize("pred", [[0.0, 1.0, 1.0], np.array([False, True, True])],
                         ids=["whole-floats", "bools"])
def test_whole_labels_of_any_number_type_score_as_ints(pred):
    assert acc([0, 1, 1], pred) == ari([0, 1, 1], pred) == 1.0
    assert contingency([0, 1, 1], pred).tolist() == [[1, 0], [0, 2]]


class TestAcc:
    def test_identical_is_one(self):
        assert acc([0, 1, 2, 0], [0, 1, 2, 0]) == 1.0

    def test_swapped_ids_is_one(self):
        assert acc([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_hand_case(self):
        truth = [0, 0, 1, 1]
        pred = [0, 1, 1, 1]
        assert acc(truth, pred) == 0.75
        assert acc_exhaustive(truth, pred) == 0.75

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            n = int(rng.integers(5, 40))
            c = int(rng.integers(2, 6))
            truth = random_labels(rng, n, c)
            pred = random_labels(rng, n, c)
            assert acc(truth, pred) == acc_exhaustive(truth, pred)

    def test_permutation_of_pred_ids_invariant(self):
        rng = np.random.default_rng(2)
        truth = random_labels(rng, 30, 4)
        pred = random_labels(rng, 30, 4)
        perm = rng.permutation(4)
        assert acc(truth, perm[pred]) == acc(truth, pred)

    def test_rectangular_contingency(self):
        assert acc([0, 0, 1, 1], [0, 1, 2, 3]) == 0.5

    def test_independent_class_counts_match_exhaustive_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            ct, cp = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            n = int(rng.integers(max(ct, cp), 40))
            truth = random_labels(rng, n, ct)
            pred = random_labels(rng, n, cp)
            assert acc(truth, pred) == acc_exhaustive(truth, pred)

    def test_gapped_pred_ids_match_exhaustive_oracle(self):
        # Unused predicted ids: gaps between the ids that occur.
        rng = np.random.default_rng(6)
        for _ in range(40):
            used = np.sort(rng.choice(6, size=int(rng.integers(1, 5)), replace=False))
            ct = int(rng.integers(1, 5))
            n = int(rng.integers(max(ct, used.size), 30))
            truth = random_labels(rng, n, ct)
            pred = used[random_labels(rng, n, used.size)]
            assert acc(truth, pred) == acc_exhaustive(truth, pred)

    @pytest.mark.parametrize("c", [1, 2, 6])
    def test_single_class_side_matches_exhaustive_oracle(self, c):
        rng = np.random.default_rng(7 + c)
        labels = random_labels(rng, 25, c)
        one = np.zeros(25, dtype=np.int64)
        assert acc(one, labels) == acc_exhaustive(one, labels)
        assert acc(labels, one) == acc_exhaustive(labels, one)
        assert acc(one, labels) == np.bincount(labels).max() / 25

    @given(st.integers(1, 60), st.integers(1, 60), st.integers(1, 20),
           st.floats(0.05, 1.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_scipy_matching_up_to_60_by_60(self, rows, cols, most, density, seed):
        # Counts from 0 to `most` on a random share of the cells: few
        # distinct counts tie often, many rarely. Empty rows and columns
        # leave the contingency matrix, which stays rectangular.
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, most + 1, (rows, cols)) * (rng.random((rows, cols)) < density)
        counts[rng.integers(rows), rng.integers(cols)] += 1
        truth = np.repeat(np.arange(rows * cols) // cols, counts.ravel())
        pred = np.repeat(np.arange(rows * cols) % cols, counts.ravel())
        assert acc(truth, pred) == acc_scipy(truth, pred)

    def test_sparse_ids_match_compacted_relabelling(self):
        # The table has a row and a column per id that occurs; counting up
        # to the largest id would ask for 8 TiB here.
        assert acc([0, 0], [0, 2**40]) == 0.5
        rng = np.random.default_rng(8)
        t_ids, p_ids = np.array([3, 2**20, 2**40]), np.array([0, 7, 2**33, 2**62])
        truth, pred = random_labels(rng, 50, 3), random_labels(rng, 50, 4)
        sparse_t, sparse_p = t_ids[truth], p_ids[pred]
        assert np.array_equal(contingency(sparse_t, sparse_p), contingency(truth, pred))
        assert acc(sparse_t, sparse_p) == acc(truth, pred)
        assert ari(sparse_t, sparse_p) == ari(truth, pred)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            acc([0, 1], [0, 1, 1])

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            acc([], [])


class TestAri:
    def test_identical_is_one(self):
        assert ari([0, 1, 2, 2], [0, 1, 2, 2]) == 1.0

    def test_hand_case_zero(self):
        truth = [0, 0, 1, 1]
        pred = [0, 0, 0, 1]
        counts = PairCounts.from_labels(truth, pred)
        assert (counts.n11, counts.n00, counts.n01, counts.n10) == (1, 2, 1, 2)
        assert ari(truth, pred) == 0.0

    def test_relabeled_partitions_are_one(self):
        assert ari([0, 1, 0, 1], [1, 0, 1, 0]) == 1.0

    def test_single_cluster_both_degenerate_one(self):
        assert ari([0, 0, 0], [0, 0, 0]) == 1.0

    @pytest.mark.parametrize("truth, pred", [([0, 1, 2, 3, 4], [4, 2, 0, 3, 1]),
                                             ([3], [7])])
    def test_singletons_both_degenerate_one(self, truth, pred):
        assert ari(truth, pred) == 1.0

    def test_matches_contingency_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = int(rng.integers(5, 60))
            truth = random_labels(rng, n, int(rng.integers(2, 6)))
            pred = random_labels(rng, n, int(rng.integers(2, 6)))
            assert ari(truth, pred) == pytest.approx(
                ari_contingency_oracle(truth, pred), abs=1e-12)

    def test_pair_counts_match_enumeration(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(4, 25))
            truth = random_labels(rng, n, 3)
            pred = random_labels(rng, n, 3)
            assert PairCounts.from_labels(truth, pred) == \
                pair_counts_enumerated(truth, pred)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            ari([0, 1, 1], [0, 1])


@given(st.integers(5, 40), st.integers(2, 5), st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_pair_counts_sum_identity(n, c, seed):
    rng = np.random.default_rng(seed)
    counts = PairCounts.from_labels(random_labels(rng, n, c), random_labels(rng, n, c))
    assert counts.n11 + counts.n00 + counts.n01 + counts.n10 == n * (n - 1) // 2


@given(st.integers(4, 30), st.integers(2, 4), st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_ari_acc_relabel_invariance(n, c, seed):
    rng = np.random.default_rng(seed)
    truth = random_labels(rng, n, c)
    pred = random_labels(rng, n, c)
    perm_t = rng.permutation(c)
    perm_p = rng.permutation(c)
    assert ari(perm_t[truth], perm_p[pred]) == pytest.approx(ari(truth, pred), abs=1e-12)
    assert acc(truth, perm_p[pred]) == acc(truth, pred)


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 2), min_size=n, max_size=n),
    st.lists(st.integers(0, 2), min_size=n, max_size=n))))
@settings(max_examples=300, deadline=None)
def test_zero_ari_denominator_means_equal_partitions(labelings):
    truth, pred = labelings
    pc = PairCounts.from_labels(truth, pred)
    denom = ((pc.n00 + pc.n01) * (pc.n01 + pc.n11)
             + (pc.n00 + pc.n10) * (pc.n10 + pc.n11))
    if denom == 0:
        assert first_occurrence(truth) == first_occurrence(pred)
        assert ari(truth, pred) == 1.0


class TestEdgePercentage:
    def test_empty_graph_zero(self):
        g = mutualize(4, np.array([], int), np.array([], int), np.array([]))
        assert edge_percentage(g) == 0.0

    def test_graph_without_vertices_rejected(self, tmp_path):
        # load_graph accepts n = 0; its graph has no N*N to divide by.
        (tmp_path / "g.txt").write_text('{"edges": 0, "n": 0}\n')
        g, _ = load_graph(tmp_path / "g.txt")
        with pytest.raises(InputError, match="^edge_percentage: graph has no vertices$"):
            edge_percentage(g)

    def test_complete_mutual_graph(self):
        n = 5
        src, dst = zip(*[(p, q) for p in range(n) for q in range(n) if p != q])
        g = mutualize(n, np.array(src), np.array(dst), np.full(len(src), 0.5))
        assert edge_percentage(g) == (n * n - n) / n ** 2

    def test_hand_count(self):
        # 7 mutual edges on 10 vertices: 14 ordered pairs over 100.
        pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (8, 9)]
        src = [p for p, q in pairs] + [q for p, q in pairs]
        dst = [q for p, q in pairs] + [p for p, q in pairs]
        g = mutualize(10, np.array(src), np.array(dst), np.full(14, 0.9))
        assert edge_percentage(g) == 0.14
