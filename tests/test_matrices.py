import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stochprod as sp
from stochprod import matrices
from stochprod.graphs import strongly_connected_components
from stochprod.errors import (
    DimensionMismatch,
    EmptySequence,
    NegativeEntry,
    NonFiniteEntry,
    RowSumViolation,
)

from helpers import (
    markov_loop,
    pattern_power_walk,
    planted_pattern,
    powers_converge_to_rank_one,
    random_pattern_stochastic,
    random_stochastic,
    scrambling_loop,
    tau_full_scan,
)

# id -> (call, raw array that is not a square 2-D array)
BAD_SHAPES = {
    "is_scrambling-vector": (sp.is_scrambling, [1.0, 0.5]),
    "tau-vector": (sp.tau, [1.0, 0.5]),
    "tau-vector-nan": (sp.tau, [np.nan, 1.0]),
    "tau-row": (sp.tau, [[0.5, 0.5]]),
    # the class tests take a boolean mask as well; these rows, named for the
    # question asked of the pattern, give them a bad mask: a (2, 3) mask
    # once read as scrambling and markov, the others escaped as numpy's
    # AxisError, an IndexError or a bare ValueError
    "pattern_is_scrambling-rect": (sp.is_scrambling,
                                   np.ones((2, 3), dtype=bool)),
    "pattern_is_scrambling-vector": (sp.is_scrambling, [True, False]),
    "pattern_is_markov-rect": (sp.is_markov, np.ones((2, 3), dtype=bool)),
    "pattern_is_markov-vector": (sp.is_markov, [True, False]),
    "pattern_is_sia-rect": (sp.is_sia, np.ones((2, 3), dtype=bool)),
    "pattern_cycle_length-vector": (sp.pattern_period, [True]),
    "pattern_cycle_length-rect": (sp.pattern_period,
                                  np.ones((2, 3), dtype=bool)),
}


class TestValidation:
    def test_identity_is_valid(self):
        m = sp.StochasticMatrix(np.eye(3))
        assert m.n == 3

    def test_row_sum_violation_reports_row_and_sum(self):
        with pytest.raises(RowSumViolation) as exc:
            sp.StochasticMatrix([[0.2, 0.0], [0.0, 1.0]])
        assert exc.value.row == 0
        assert exc.value.total == pytest.approx(0.2)

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry) as exc:
            sp.StochasticMatrix([[1.5, -0.5], [0.5, 0.5]])
        assert (exc.value.row, exc.value.col) == (0, 1)

    def test_non_finite_entry(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(NonFiniteEntry) as exc:
                sp.StochasticMatrix([[0.5, 0.5], [bad, 1.0]])
            assert (exc.value.row, exc.value.col) == (1, 0)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            sp.StochasticMatrix([[0.5, 0.5]])

    @pytest.mark.parametrize("fn", [
        sp.tau, sp.is_scrambling, sp.is_markov, sp.is_sia, sp.classify,
        sp.pattern_period, sp.scrambling_index, sp.graph_of,
        lambda a: sp.backward_product([a])],
        ids=["tau", "is_scrambling", "is_markov", "is_sia", "classify",
             "pattern_period", "scrambling_index", "graph_of",
             "backward_product"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_raw_array_with_non_finite_entry(self, fn, bad):
        # read as an overlap or a pattern, a NaN would give an answer: tau
        # of [[nan, 1], [0, 1]] read 0.0, "the rows agree"
        with pytest.raises(NonFiniteEntry) as exc:
            fn([[1.0, 0.0], [bad, 1.0]])
        assert (exc.value.row, exc.value.col) == (1, 0)

    @pytest.mark.parametrize("fn,raw", list(BAD_SHAPES.values()),
                             ids=list(BAD_SHAPES))
    def test_raw_array_not_square_rejected(self, fn, raw):
        # refused before the finiteness check: a vector once read as
        # scrambling, or escaped as numpy's AxisError or a bare ValueError
        with pytest.raises(DimensionMismatch, match="expected a square array"):
            fn(raw)

    @pytest.mark.parametrize("fn", [sp.tau, sp.is_scrambling, sp.pattern_period])
    def test_ragged_raw_array_rejected(self, fn):
        # numpy refuses ragged nested lists with a bare ValueError
        with pytest.raises(DimensionMismatch, match="do not form an array"):
            fn([[1.0], [0.5, 0.5]])

    @pytest.mark.parametrize("rows", [
        [[1.0, 0.0], [True, 0.0]], [[1, 0], [np.True_, 0]],
        [np.array([1.0, 0.0]), np.array([True, False])]],
        ids=["float-bool", "int-numpy-bool", "bool-row-array"])
    def test_boolean_among_numbers_rejected(self, rows):
        # numpy reads these booleans as numbers, so the dtype check never
        # saw them: [[1.0, 0.0], [True, 0.0]] was accepted as [[1, 0], [1, 0]]
        with pytest.raises(DimensionMismatch, match="got a boolean"):
            sp.StochasticMatrix(rows)

    def test_immutable(self):
        m = sp.StochasticMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 0.0
        with pytest.raises(AttributeError):
            m.entries = np.eye(2)


class TestCheckedOnce:
    def test_stochastic_matrix_is_not_checked_again(self, monkeypatch):
        # its read-only entries were checked when it was made; only the new
        # product of backward_product is checked
        m = sp.StochasticMatrix([[0.5, 0.5], [0.25, 0.75]])
        calls = []
        reals = matrices._checks.reals
        monkeypatch.setattr(matrices._checks, "reals",
                            lambda *a, **k: calls.append(a) or reals(*a, **k))
        sp.tau(m), sp.classify(m), matrices.pattern_of(m), sp.graph_of(m)
        sp.is_scrambling(m), sp.scrambling_index(m)
        assert calls == []
        sp.backward_product([m, m])
        assert len(calls) == 1


class TestTau:
    def test_identical_rows_give_zero(self):
        m = sp.StochasticMatrix([[0.3, 0.7], [0.3, 0.7]])
        assert sp.tau(m) == 0.0

    def test_identity_gives_one(self):
        assert sp.tau(sp.StochasticMatrix(np.eye(2))) == 1.0

    def test_hand_value(self):
        # overlap of the two rows: min(.2,.5) + min(.8,.5) = 0.7
        m = sp.StochasticMatrix([[0.2, 0.8], [0.5, 0.5]])
        assert sp.tau(m) == pytest.approx(0.3, abs=1e-15)

    def test_one_by_one(self):
        assert sp.tau(sp.StochasticMatrix([[1.0]])) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_row_diameter_of_the_row_differences(self, n):
        # half the largest l1 row distance is tau, of W itself and of its
        # row differences against the last row with a zero row appended
        rng = np.random.default_rng(n)
        for _ in range(20):
            w = random_stochastic(rng, n, density=0.5).entries
            rows = np.vstack([w[:-1] - w[-1], np.zeros((1, n))])
            assert matrices.row_diameter(w) == pytest.approx(sp.tau(w),
                                                             abs=1e-15)
            assert matrices.row_diameter(rows) == pytest.approx(sp.tau(w),
                                                                abs=1e-15)

    def test_disjoint_first_rows_scan_one_row(self, monkeypatch):
        # rows 0 and 1 share no positive column: tau is 1.0 after row 0
        calls = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def minimum(self, *args):
                calls.append(args)
                return np.minimum(*args)

        monkeypatch.setattr(matrices, "np", CountingNumpy())
        a = np.full((6, 6), 1 / 6)
        a[0], a[1] = np.eye(6)[0], np.eye(6)[1]
        assert sp.tau(a) == 1.0
        assert len(calls) == 1


def stochastic_cases(rng, n):
    """Sparse and dense stochastic matrices, one with disjoint last rows,
    one with -0.0 for its zeros, and a raw array with negative entries."""
    sparse = random_stochastic(rng, n, density=0.2).entries
    dense = random_stochastic(rng, n, density=1.0).entries
    planted = dense.copy()
    if n > 1:
        planted[-2:] = np.eye(n)[[0, 1]]
    signed_zeros = np.where(sparse == 0.0, -0.0, sparse)
    return [sparse, dense, planted, signed_zeros, rng.normal(size=(n, n))]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9), st.integers(0, 10**6))
def test_tau_matches_full_scan(n, seed):
    # the early stop is bit-identical to the scan of every row pair
    rng = np.random.default_rng(seed)
    for a in stochastic_cases(rng, n):
        assert sp.tau(a) == tau_full_scan(a)


@pytest.mark.parametrize("block", [1, 3, 1024])
@settings(max_examples=150, deadline=None)
@given(st.integers(0, 50), st.integers(1, 7),
       st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]), st.integers(0, 10**6))
def test_stacked_predicates_match_the_loops(block, k, n, density, seed):
    # density 0 and 1 give the all-false and all-true stacks; blocks of 1
    # and 3 cut the stack into slices at every boundary
    masks = np.random.default_rng(seed).random((k, n, n)) < density
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sp.graphs, "_STACK_SLICE", block)
        scrambling = matrices._stack_is_scrambling(masks)
        markov = matrices._stack_is_markov(masks)
    for got in (scrambling, markov):
        assert got.dtype == bool and got.shape == (k,)
    assert scrambling.tolist() == [scrambling_loop(m) for m in masks]
    assert markov.tolist() == [markov_loop(m) for m in masks]


class TestClasses:
    def test_scrambling_positive_rows(self):
        assert sp.is_scrambling(sp.StochasticMatrix([[0.5, 0.5], [0.5, 0.5]]))

    def test_permutation_not_scrambling(self):
        assert not sp.is_scrambling(sp.StochasticMatrix([[0, 1], [1, 0]]))
        assert not sp.is_scrambling(sp.StochasticMatrix(np.eye(2)))

    def test_markov_column(self):
        assert sp.is_markov(sp.StochasticMatrix([[0.5, 0.5], [1, 0]]))
        assert not sp.is_markov(sp.StochasticMatrix(np.eye(2)))

    def test_markov_implies_scrambling(self):
        m = sp.StochasticMatrix([[0.5, 0.5], [1, 0]])
        assert sp.is_markov(m) and sp.is_scrambling(m)

    def test_sia_primitive(self):
        assert sp.is_sia(sp.StochasticMatrix([[0.5, 0.5], [0.5, 0.5]]))

    def test_two_cycle_not_sia(self):
        assert not sp.is_sia(sp.StochasticMatrix([[0, 1], [1, 0]]))

    def test_two_closed_blocks_not_sia(self):
        # oracle: the limit of the powers keeps two distinct row groups
        block = [[0.5, 0.5], [0.5, 0.5]]
        m = np.zeros((4, 4))
        m[:2, :2] = block
        m[2:, 2:] = block
        m = sp.StochasticMatrix(m)
        assert not powers_converge_to_rank_one(m)
        assert not sp.is_sia(m)

    def test_transient_states_allowed(self):
        m = sp.StochasticMatrix([[1.0, 0.0], [0.5, 0.5]])
        assert sp.is_sia(m)
        assert powers_converge_to_rank_one(m)


class TestPatternPeriod:
    def test_n_cycle(self):
        n = 5
        m = sp.StochasticMatrix(np.roll(np.eye(n), 1, axis=1))
        assert sp.pattern_period(m) == n

    def test_three_cycle(self):
        m = sp.StochasticMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert sp.pattern_period(m) == 3

    def test_scrambling_matrices_have_period_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = random_stochastic(rng, int(rng.integers(2, 7)), density=0.8)
            if sp.is_scrambling(m):
                assert sp.pattern_period(m) == 1

    def test_periodic_transient_class_keeps_sia(self):
        # The closed part ({2}, aperiodic) decides sia, but the transient
        # 2-cycle below makes the pattern powers alternate forever, so the
        # period can exceed 1 for an sia matrix.
        m = sp.StochasticMatrix([[0, 0.5, 0.5], [0.5, 0, 0.5], [0, 0, 1]])
        assert sp.is_sia(m)
        assert powers_converge_to_rank_one(m)
        assert sp.pattern_period(m) == 2

    def test_permutation_with_mixed_cycles(self):
        # cycles of lengths 2 and 3, then 4 and 6 (lcm 12, not the product
        # 24 or the max 6): pattern powers recur with the lcm
        for perm, period in (([1, 0, 3, 4, 2], 6),
                             ([1, 2, 3, 0, 5, 6, 7, 8, 9, 4], 12)):
            m = np.zeros((len(perm), len(perm)))
            for i, j in enumerate(perm):
                m[i, j] = 1.0
            assert sp.pattern_period(sp.StochasticMatrix(m)) == period


class TestScramblingIndex:
    def test_scrambling_matrix_index_one(self):
        assert sp.scrambling_index(sp.StochasticMatrix([[0.2, 0.8], [0.5, 0.5]])) == 1

    def test_primitive_cycle_with_chord(self):
        m = sp.StochasticMatrix([[0, 1, 0], [0, 0, 1], [0.5, 0.5, 0]])
        idx = sp.scrambling_index(m)
        assert idx is not None
        # brute force: the index is the first boolean power that scrambles
        p = m.pattern().astype(int)
        q = p.copy()
        k = 1
        while not sp.is_scrambling(q > 0):
            q = ((q @ p) > 0).astype(int)
            k += 1
        assert idx == k

    def test_permutation_never_scrambles(self):
        assert sp.scrambling_index(sp.StochasticMatrix([[0, 1], [1, 0]])) is None


class TestBackwardProduct:
    def test_singleton(self):
        a = sp.StochasticMatrix([[0.2, 0.8], [0.5, 0.5]])
        assert sp.backward_product([a]) == a

    def test_identity_absorption(self):
        a = sp.StochasticMatrix([[0.2, 0.8], [0.5, 0.5]])
        i = sp.StochasticMatrix(np.eye(2))
        assert sp.backward_product([i, i, a]) == a

    def test_left_multiplication_order(self):
        a = sp.StochasticMatrix([[0, 1], [1, 0]])
        b = sp.StochasticMatrix(np.eye(2))
        # chronological [a, b] means the product is b @ a
        prod = sp.backward_product([a, b])
        np.testing.assert_array_equal(prod.entries, [[0, 1], [1, 0]])

    def test_order_asymmetric(self):
        a = sp.StochasticMatrix([[1, 0], [1, 0]])
        b = sp.StochasticMatrix([[0, 1], [0, 1]])
        np.testing.assert_allclose(sp.backward_product([a, b]).entries,
                                   b.entries @ a.entries)

    def test_empty_rejected(self):
        with pytest.raises(EmptySequence):
            sp.backward_product([])

    def test_product_is_stochastic(self):
        rng = np.random.default_rng(5)
        mats = [random_stochastic(rng, 4) for _ in range(60)]
        prod = sp.backward_product(mats)  # constructor re-validates
        assert prod.n == 4


class TestSpread:
    def test_agreement_state(self):
        assert sp.spread(np.ones(5)) == 0.0

    def test_basic(self):
        assert sp.spread([1.0, 0.0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(EmptySequence):
            sp.spread([])

    def test_contraction_by_tau(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            a = random_stochastic(rng, n)
            x = rng.normal(size=n)
            assert sp.spread(a.entries @ x) <= sp.tau(a) * sp.spread(x) + 1e-12


class TestEnsembleProperties:
    """Seeded ensemble versions of the calculus identities (the large
    acceptance run repeats these at scale)."""

    def test_tau_scrambling_and_bounds(self):
        rng = np.random.default_rng(2024)
        for _ in range(500):
            n = int(rng.integers(2, 9))
            a = random_stochastic(rng, n, density=float(rng.uniform(0.2, 1.0)))
            t = sp.tau(a)
            assert 0.0 <= t <= 1.0
            assert sp.is_scrambling(a) == (t < 1.0)
            if sp.is_scrambling(a):
                gamma = a.entries[a.entries > 0].min()
                assert t <= 1.0 - gamma + 1e-12

    def test_tau_submultiplicative(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            n = int(rng.integers(2, 8))
            a, b = random_stochastic(rng, n), random_stochastic(rng, n)
            prod = sp.backward_product([b, a])  # = a @ b
            assert sp.tau(prod) <= sp.tau(a) * sp.tau(b) + 1e-12

    def test_class_inclusions(self):
        rng = np.random.default_rng(321)
        for _ in range(400):
            n = int(rng.integers(2, 8))
            a = random_stochastic(rng, n, density=float(rng.uniform(0.2, 1.0)))
            if sp.is_markov(a):
                assert sp.is_scrambling(a)
            if sp.is_scrambling(a):
                assert sp.is_sia(a)

    def test_sia_matches_power_oracle(self):
        rng = np.random.default_rng(888)
        for _ in range(300):
            n = int(rng.integers(2, 6))
            a = random_stochastic(rng, n, density=float(rng.uniform(0.25, 0.9)),
                                  low=0.2)
            assert sp.is_sia(a) == powers_converge_to_rank_one(a)

    def test_scrambling_strict_spread_decrease_iff(self):
        rng = np.random.default_rng(4242)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            a = random_stochastic(rng, n, density=float(rng.uniform(0.3, 1.0)))
            if sp.is_scrambling(a):
                x = rng.normal(size=n)
                x -= x.mean()
                if sp.spread(x) > 0:
                    assert sp.spread(a.entries @ x) < sp.spread(x)
            else:
                # adversarial 0/1 state built from a disjoint row pair
                mask = a.pattern()
                found = None
                for i in range(n):
                    for j in range(i + 1, n):
                        if not (mask[i] & mask[j]).any():
                            found = (i, j)
                            break
                    if found:
                        break
                i, j = found
                x = np.full(n, 0.5)
                x[mask[i]] = 1.0
                x[mask[j]] = 0.0
                # no strict decrease, up to float row-sum rounding
                assert sp.spread(a.entries @ x) >= sp.spread(x) - 1e-12
                assert sp.spread(x) == 1.0

    def test_irreducible_period_above_one_excludes_sia(self):
        rng = np.random.default_rng(777)
        checked = 0
        for _ in range(400):
            n = int(rng.integers(2, 7))
            a = random_stochastic(rng, n, density=float(rng.uniform(0.2, 0.8)))
            if strongly_connected_components(sp.graph_of(a).adj)[0] == 1:
                checked += 1
                if sp.pattern_period(a) > 1:
                    assert not sp.is_sia(a)
                if sp.is_sia(a):
                    assert sp.pattern_period(a) == 1
        assert checked > 50


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10**6))
def test_tau_zero_iff_identical_rows(n, seed):
    rng = np.random.default_rng(seed)
    row = rng.dirichlet(np.ones(n))
    identical = sp.StochasticMatrix(np.tile(row, (n, 1)))
    # identical rows overlap by their full row sum, which floating-point
    # row normalization pins to 1 only within the validation tolerance
    assert sp.tau(identical) <= 1e-12
    perturbed = random_stochastic(rng, n)
    if sp.tau(perturbed) <= 1e-13:
        np.testing.assert_allclose(
            perturbed.entries, np.tile(perturbed.entries[0], (n, 1)), atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10**6))
def test_classify_consistent_with_predicates(n, seed):
    rng = np.random.default_rng(seed)
    a = random_stochastic(rng, n, density=float(rng.uniform(0.2, 1.0)))
    cls = sp.classify(a)
    assert cls.is_scrambling == sp.is_scrambling(a)
    assert cls.is_sia == sp.is_sia(a)
    assert cls.is_markov == sp.is_markov(a)
    assert cls.period == sp.pattern_period(a)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_class_tests_read_a_mask_as_its_stochastic_matrix(data):
    # a boolean mask with no all-False row is the pattern of its
    # row-normalised stochastic matrix, so each class test agrees on both
    n = data.draw(st.integers(1, 6))
    row = st.lists(st.booleans(), min_size=n, max_size=n).filter(any)
    mask = np.array(data.draw(st.lists(row, min_size=n, max_size=n)))
    matrix = sp.StochasticMatrix(mask / mask.sum(axis=1, keepdims=True))
    for test in (sp.is_scrambling, sp.is_markov, sp.is_sia, sp.pattern_period):
        assert test(mask) == test(matrix), test.__name__


def test_classify_labels_components_once(monkeypatch):
    # one component labelling and one period per component for all of
    # classify; the closed class's period is not computed twice
    calls = {"scc": 0, "period": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(sp.graphs, "strongly_connected_components",
                        counted("scc", sp.graphs.strongly_connected_components))
    monkeypatch.setattr(sp.graphs, "component_period",
                        counted("period", sp.graphs.component_period))
    # transient 2-cycle {0, 1} feeding the closed 3-cycle {2, 3, 4}
    chain = np.zeros((5, 5))
    chain[0, 1], chain[1, 0], chain[1, 2] = 1.0, 0.5, 0.5
    chain[2, 3] = chain[3, 4] = chain[4, 2] = 1.0
    cls = sp.classify(chain)
    assert (cls.is_sia, cls.period) == (False, 6)
    assert calls == {"scc": 1, "period": 2}


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10), st.sampled_from(["random", "cycles", "reducible"]),
       st.booleans(), st.integers(0, 10**6))
def test_pattern_period_and_scrambling_index_match_power_walk(n, kind, zero_diag,
                                                              seed):
    # the lcm of the component periods and the sia-gated index against the
    # walk over boolean powers up to their first repeat
    rng = np.random.default_rng(seed)
    mask = planted_pattern(rng, n, kind, zero_diagonal=zero_diag)
    cycle_length, first_scrambling = pattern_power_walk(mask)
    m = random_pattern_stochastic(rng, mask)
    assert sp.pattern_period(mask) == cycle_length
    assert sp.pattern_period(m) == cycle_length
    index = sp.scrambling_index(m)
    assert index == first_scrambling
    assert sp.is_sia(mask) == (index is not None)
