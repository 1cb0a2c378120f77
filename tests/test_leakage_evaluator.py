"""Tests for the Monte-Carlo fixed-vs-random evaluator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kronecker import build_kronecker_delta
from repro.core.optimizations import RandomnessScheme
from repro.errors import SimulationError
from repro.leakage.evaluator import (
    HistogramAccumulator,
    LeakageEvaluator,
    _mix_hash,
)
from repro.leakage.gtest import g_test_from_counts
from repro.leakage.model import ProbingModel

N_SIMS = 30_000  # leaks under test are enormous; modest N suffices


class TestFirstOrder:
    def test_detects_eq6_leak_at_g7(self, kronecker_eq6):
        evaluator = LeakageEvaluator(
            kronecker_eq6.dut, ProbingModel.GLITCH, seed=1
        )
        report = evaluator.evaluate(fixed_secret=0, n_simulations=N_SIMS)
        assert not report.passed
        leaking = " ".join(r.probe_names for r in report.leaking_results)
        assert "g7" in leaking

    def test_full_scheme_passes(self, kronecker_full):
        evaluator = LeakageEvaluator(
            kronecker_full.dut, ProbingModel.GLITCH, seed=1
        )
        report = evaluator.evaluate(fixed_secret=0, n_simulations=N_SIMS)
        assert report.passed

    def test_eq9_passes_glitch_fails_transition(self, kronecker_eq9):
        glitch = LeakageEvaluator(
            kronecker_eq9.dut, ProbingModel.GLITCH, seed=1
        ).evaluate(fixed_secret=0, n_simulations=N_SIMS)
        assert glitch.passed
        transition = LeakageEvaluator(
            kronecker_eq9.dut, ProbingModel.GLITCH_TRANSITION, seed=1
        ).evaluate(fixed_secret=0, n_simulations=N_SIMS)
        assert not transition.passed

    def test_windows_multiply_samples(self, kronecker_full):
        evaluator = LeakageEvaluator(
            kronecker_full.dut, ProbingModel.GLITCH, seed=2
        )
        report = evaluator.evaluate(
            fixed_secret=0, n_simulations=20_000, n_windows=4
        )
        assert report.n_simulations == 20_000

    def test_invalid_windows_rejected(self, kronecker_full):
        evaluator = LeakageEvaluator(kronecker_full.dut)
        with pytest.raises(SimulationError):
            evaluator.evaluate(n_simulations=100, n_windows=0)

    def test_budget_below_window_count_rejected(self, kronecker_full):
        """The historical clamp to one lane silently ran 100x the requested
        samples; an under-budget configuration must be an error instead."""
        evaluator = LeakageEvaluator(kronecker_full.dut)
        with pytest.raises(SimulationError, match="n_windows"):
            evaluator.evaluate(n_simulations=5, n_windows=10)
        with pytest.raises(SimulationError):
            evaluator.n_lanes_for(n_simulations=63, n_windows=64)
        assert evaluator.n_lanes_for(6_400, 64) == 100

    def test_report_contents(self, kronecker_eq6):
        evaluator = LeakageEvaluator(
            kronecker_eq6.dut, ProbingModel.GLITCH, seed=3
        )
        report = evaluator.evaluate(fixed_secret=0, n_simulations=N_SIMS)
        assert report.fixed_secret == 0
        assert report.results
        assert report.max_mlog10p == report.worst.mlog10p
        text = report.format_summary()
        assert "FAIL" in text
        assert "-log10(p)" in text

    def test_probe_class_lookup(self, kronecker_eq6):
        evaluator = LeakageEvaluator(kronecker_eq6.dut)
        v1 = kronecker_eq6.v_nodes["v1"]
        pc = evaluator.probe_class_for_net(v1)
        assert v1 in pc.members
        with pytest.raises(SimulationError):
            evaluator.probe_class_for_net(10**6)

    def test_probe_class_lookup_on_skipped_class(self, kronecker_eq6):
        """A net whose class was dropped for width reports *why* it is
        missing rather than a generic not-found error."""
        evaluator = LeakageEvaluator(kronecker_eq6.dut, max_support_bits=2)
        assert evaluator.skipped_classes
        skipped_net = next(iter(evaluator.skipped_classes[0].members))
        with pytest.raises(SimulationError, match="skipped"):
            evaluator.probe_class_for_net(skipped_net)

    def test_seed_reproducibility(self, kronecker_full):
        reports = [
            LeakageEvaluator(
                kronecker_full.dut, ProbingModel.GLITCH, seed=7
            ).evaluate(fixed_secret=0, n_simulations=5_000)
            for _ in range(2)
        ]
        a, b = reports
        assert [r.mlog10p for r in a.results] == [
            r.mlog10p for r in b.results
        ]


class TestSecondOrderPairs:
    def test_first_order_design_fails_pair_test(self, kronecker_full):
        """Positive control: pairing probes across shares recovers secrets."""
        evaluator = LeakageEvaluator(
            kronecker_full.dut, ProbingModel.GLITCH, seed=4
        )
        report = evaluator.evaluate_pairs(
            fixed_secret=0, n_simulations=N_SIMS, max_pairs=300
        )
        assert not report.passed

    def test_pair_offsets_validated(self, kronecker_full):
        evaluator = LeakageEvaluator(kronecker_full.dut)
        with pytest.raises(SimulationError):
            evaluator.evaluate_pairs(
                n_simulations=100, pair_offsets=(-1,)
            )

    def test_pair_subset_is_deterministic(self, kronecker_full):
        evaluator = LeakageEvaluator(
            kronecker_full.dut, ProbingModel.GLITCH, seed=5
        )
        r1 = evaluator.evaluate_pairs(
            n_simulations=2_000, max_pairs=20, pair_seed=9
        )
        r2 = evaluator.evaluate_pairs(
            n_simulations=2_000, max_pairs=20, pair_seed=9
        )
        assert [x.probe_names for x in r1.results] == [
            x.probe_names for x in r2.results
        ]


class TestHashing:
    def test_mix_hash_is_deterministic_permutation_like(self):
        keys = np.arange(1000, dtype=np.uint64)
        mixed = _mix_hash(keys)
        assert len(np.unique(mixed)) == 1000  # injective on small sets
        assert (_mix_hash(keys) == mixed).all()

    def test_wide_observations_bucketed(self, sbox_full):
        evaluator = LeakageEvaluator(
            sbox_full.dut, ProbingModel.GLITCH, seed=6, hash_bits=10
        )
        wide = next(
            pc
            for pc in evaluator.probe_classes
            if pc.observation_bits > 10
        )
        # evaluating only this class must produce a dof bounded by 2^10.
        report = evaluator.evaluate(
            fixed_secret=1, n_simulations=4_000, probe_classes=[wide]
        )
        assert report.results[0].dof < 1 << 10


class DictAccumulator:
    """Reference contingency tables: ``dict[key] -> [fixed, random]``.

    The straightforward per-key form of :class:`HistogramAccumulator`,
    kept as an oracle for its array-backed storage.  It supports what the
    evaluator calls while accumulating (``add``, ``add_counts``), so it can
    also stand in for the real accumulator in ``evaluator.accumulate``.
    """

    def __init__(self):
        self.tables = {}

    def _fold(self, table_id, values, counts, group):
        if group not in (0, 1):
            raise SimulationError("group must be GROUP_FIXED or GROUP_RANDOM")
        if not values:
            return
        table = self.tables.setdefault(table_id, {})
        for value, count in zip(values, counts):
            table.setdefault(int(value), [0, 0])[group] += int(count)

    def add(self, table_id, keys, group):
        values, counts = np.unique(
            np.asarray(keys, dtype=np.uint64), return_counts=True
        )
        self._fold(table_id, values.tolist(), counts.tolist(), group)

    def add_counts(self, table_id, counts, group):
        counts = np.asarray(counts)
        values = np.nonzero(counts)[0]
        self._fold(table_id, values.tolist(), counts[values].tolist(), group)

    def merge(self, other):
        for table_id, table in other.tables.items():
            mine = self.tables.setdefault(table_id, {})
            for value, (fixed, random_) in table.items():
                cell = mine.setdefault(value, [0, 0])
                cell[0] += fixed
                cell[1] += random_

    def state_arrays(self):
        """Checkpoint arrays in the v1 layout, written out by hand."""
        ids = sorted(self.tables)
        arrays = {}
        for i, table_id in enumerate(ids):
            table = self.tables[table_id]
            keys = sorted(table)
            arrays[f"t{i}_keys"] = np.array(keys, dtype=np.uint64)
            arrays[f"t{i}_counts"] = np.array(
                [[table[k][0] for k in keys], [table[k][1] for k in keys]],
                dtype=np.int64,
            ).reshape(2, len(keys))
        return ids, arrays

    @classmethod
    def from_state(cls, ids, arrays):
        acc = cls()
        for i, table_id in enumerate(ids):
            keys = arrays[f"t{i}_keys"].tolist()
            counts = arrays[f"t{i}_counts"].tolist()
            acc.tables[table_id] = {
                k: [f, r] for k, f, r in zip(keys, counts[0], counts[1])
            }
        return acc


_TABLE_IDS = ("c0", "c1", "p0:1:0")
_LIMIT = HistogramAccumulator._DENSE_KEY_LIMIT

#: Observation keys on both sides of the dense limit, small ones likeliest.
_keys = st.lists(
    st.one_of(
        st.integers(0, 40),
        st.integers(_LIMIT - 3, _LIMIT + 3),
        st.integers(0, (1 << 40) - 1),
    ),
    max_size=30,
)


@st.composite
def _count_rows(draw):
    """A count row: mostly short, sometimes longer than the dense limit,
    often all zero or nearly so."""
    length = draw(st.sampled_from([1, 5, 17, 64, _LIMIT + 2]))
    row = np.zeros(length, dtype=np.int64)
    for index in draw(st.lists(st.integers(0, length - 1), max_size=6)):
        row[index] += draw(st.integers(1, 50))
    return row


_folds = st.one_of(
    st.tuples(
        st.just("add"), st.sampled_from(_TABLE_IDS), _keys,
        st.integers(0, 1),
    ),
    st.tuples(
        st.just("add_counts"), st.sampled_from(_TABLE_IDS), _count_rows(),
        st.integers(0, 1),
    ),
)
_operations = st.lists(
    st.one_of(
        _folds,
        st.tuples(st.just("merge"), st.lists(_folds, max_size=6)),
        st.tuples(st.just("roundtrip")),
    ),
    max_size=12,
)


def _apply(acc, oracle, fold):
    kind, table_id, data, group = fold
    getattr(acc, kind)(table_id, data, group)
    getattr(oracle, kind)(table_id, data, group)


def _assert_same_tables(acc, oracle):
    assert acc.table_ids() == sorted(oracle.tables)
    ids, arrays = acc.state_arrays()
    expected_ids, expected = oracle.state_arrays()
    assert ids == expected_ids
    assert sorted(arrays) == sorted(expected)
    for i, table_id in enumerate(ids):
        keys = arrays[f"t{i}_keys"]
        counts = arrays[f"t{i}_counts"]
        assert keys.dtype == np.uint64 and keys.ndim == 1
        assert counts.dtype == np.int64
        assert counts.shape == (2, keys.size)
        assert counts.flags.c_contiguous
        assert np.array_equal(keys, expected[f"t{i}_keys"])
        assert np.array_equal(counts, expected[f"t{i}_counts"])
        assert np.all(counts.sum(axis=0) > 0), "zero cell in a table"

        got_keys, fixed, random_ = acc.counts(table_id)
        assert got_keys.dtype == np.uint64
        assert fixed.dtype == random_.dtype == np.float64
        assert fixed.shape == random_.shape == keys.shape
        assert np.array_equal(got_keys, keys)
        assert np.array_equal(fixed, counts[0])
        assert np.array_equal(random_, counts[1])
        assert acc.test(table_id) == g_test_from_counts(
            counts[0].astype(np.float64), counts[1].astype(np.float64)
        )


class TestHistogramAccumulator:
    @settings(deadline=None, max_examples=150)
    @given(_operations)
    def test_matches_dict_tables(self, operations):
        acc, oracle = HistogramAccumulator(), DictAccumulator()
        for operation in operations:
            if operation[0] == "merge":
                other, other_oracle = HistogramAccumulator(), DictAccumulator()
                for fold in operation[1]:
                    _apply(other, other_oracle, fold)
                acc.merge(other)
                oracle.merge(other_oracle)
                _assert_same_tables(other, other_oracle)
            elif operation[0] == "roundtrip":
                acc = HistogramAccumulator.from_state(*acc.state_arrays())
                oracle = DictAccumulator.from_state(*oracle.state_arrays())
            else:
                _apply(acc, oracle, operation)
            _assert_same_tables(acc, oracle)

    def test_all_zero_rows_create_no_table(self):
        acc = HistogramAccumulator()
        acc.add_counts("c0", np.zeros(16, dtype=np.int64), 0)
        acc.add("c1", np.zeros(0, dtype=np.uint64), 1)
        other = HistogramAccumulator()
        other.add_counts("c2", np.zeros(4, dtype=np.int64), 1)
        acc.merge(other)
        assert acc.table_ids() == []
        assert acc.state_arrays() == ([], {})

    @pytest.mark.parametrize("dense_first", [True, False])
    def test_dense_and_keyed_tables_merge_both_ways(self, dense_first):
        dense, dense_oracle = HistogramAccumulator(), DictAccumulator()
        keyed, keyed_oracle = HistogramAccumulator(), DictAccumulator()
        _apply(
            dense, dense_oracle, ("add_counts", "t", np.array([0, 3, 0, 1]), 0)
        )
        _apply(dense, dense_oracle, ("add_counts", "t", np.array([0, 1, 2]), 1))
        _apply(keyed, keyed_oracle, ("add", "t", [1, _LIMIT + 9], 1))
        assert dense._tables["t"][0] is None
        assert keyed._tables["t"][0] is not None
        into, into_oracle, other, other_oracle = (
            (dense, dense_oracle, keyed, keyed_oracle)
            if dense_first
            else (keyed, keyed_oracle, dense, dense_oracle)
        )
        into.merge(other)
        into_oracle.merge(other_oracle)
        _assert_same_tables(into, into_oracle)
        assert into._tables["t"][0] is not None
        # Neither operand is changed by the merge.
        _assert_same_tables(other, other_oracle)

    def test_dense_table_turns_keyed_on_a_keyed_operand(self):
        acc, oracle = HistogramAccumulator(), DictAccumulator()
        _apply(acc, oracle, ("add_counts", "t", np.array([5, 0, 2]), 0))
        _apply(acc, oracle, ("add_counts", "t", np.array([0, 4, 0, 1]), 1))
        assert acc._tables["t"][0] is None
        _apply(acc, oracle, ("add", "t", [1, 1, 7], 1))
        assert acc._tables["t"][0] is not None
        _apply(acc, oracle, ("add_counts", "t", np.array([0, 4]), 1))
        _assert_same_tables(acc, oracle)

    def test_dense_table_turns_keyed_on_a_wide_row(self):
        acc, oracle = HistogramAccumulator(), DictAccumulator()
        _apply(acc, oracle, ("add_counts", "t", np.array([5, 0, 2]), 0))
        wide = np.zeros(_LIMIT + 1, dtype=np.int64)
        wide[[1, _LIMIT]] = 3
        _apply(acc, oracle, ("add_counts", "t", wide, 1))
        assert acc._tables["t"][0] is not None
        _assert_same_tables(acc, oracle)

    def test_merged_dense_table_is_not_shared(self):
        source = HistogramAccumulator()
        source.add_counts("t", np.array([1, 2]), 0)
        target = HistogramAccumulator()
        target.merge(source)
        target.add_counts("t", np.array([1, 1]), 1)
        _, fixed, random_ = source.counts("t")
        assert fixed.tolist() == [1, 2] and random_.tolist() == [0, 0]

    @pytest.mark.parametrize("method", ["add", "add_counts"])
    def test_bad_group_rejected(self, method):
        acc = HistogramAccumulator()
        with pytest.raises(SimulationError, match="group"):
            getattr(acc, method)("t", np.array([1, 2]), 2)

    @pytest.mark.parametrize(
        "keys, counts, match",
        [
            ([3, 1, 2], [[1, 1, 1], [0, 2, 0]], "strictly increasing"),
            ([1, 2, 2], [[1, 1, 1], [0, 2, 0]], "strictly increasing"),
            ([1, 2, 3], [[1, 1, 1]], r"\(2, n\)"),
            ([1, 2], [[1, 1, 1], [0, 2, 0]], r"\(2, n\)"),
        ],
    )
    def test_from_state_rejects_malformed_tables(self, keys, counts, match):
        """Keyed folds assume sorted unique keys and a ``(2, n)`` matrix,
        so a payload that breaks either is refused, not miscounted."""
        good = {
            "t0_keys": np.array([5], dtype=np.uint64),
            "t0_counts": np.array([[1], [2]], dtype=np.int64),
        }
        bad = {
            "t1_keys": np.array(keys, dtype=np.uint64),
            "t1_counts": np.array(counts, dtype=np.int64),
        }
        with pytest.raises(SimulationError, match=match):
            HistogramAccumulator.from_state(["a", "b"], {**good, **bad})
