"""Sharded exact enumeration: bit-identity to the serial engine,
checkpoint/resume, cancellation, and hypothesis properties on random
masked netlists.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import engines
from repro.core.kronecker import build_kronecker_delta
from repro.core.optimizations import RandomnessScheme
from repro.core.sbox import build_masked_sbox
from repro.errors import CheckpointError, ExactAnalysisInfeasible
from repro.leakage.certify import (
    MIN_SHARD_LANE_BITS,
    ShardedExactAnalyzer,
    ShardPlan,
    run_exact_analysis,
)
from repro.leakage.exact import POPCOUNT_MAX_KEY_BITS, ExactAnalyzer
from repro.netlist.builder import CircuitBuilder
from repro.netlist.simulate import unpack_lanes

from tests.strategies import masked_circuits


def _eq6_subset(min_bits=8, max_bits=14, limit=6):
    """A handful of mid-size eq6 probe classes (multi-shard, still fast)."""
    design = build_kronecker_delta(RandomnessScheme.DEMEYER_EQ6)
    analyzer = ExactAnalyzer(design.dut, max_enum_bits=23)
    chosen = []
    for probe_class in analyzer.probe_classes:
        try:
            setup = analyzer.enumeration_setup(probe_class)
        except ExactAnalysisInfeasible:
            continue
        if min_bits <= setup.total_bits <= max_bits:
            chosen.append(probe_class)
        if len(chosen) >= limit:
            break
    assert len(chosen) >= 3
    return design, chosen


def _by_name(report):
    return {r.probe_names: r for r in report.results}


def _assert_identical(report_a, report_b):
    names_a, names_b = _by_name(report_a), _by_name(report_b)
    assert set(names_a) == set(names_b)
    for name, a in names_a.items():
        b = names_b[name]
        assert a.leaking == b.leaking, name
        assert a.tv_fixed_vs_random == b.tv_fixed_vs_random, name
        assert a.n_distinct_distributions == b.n_distinct_distributions, name


class TestShardedIdentity:
    def test_sharded_equals_serial(self):
        design, subset = _eq6_subset()
        serial = ExactAnalyzer(design.dut, max_enum_bits=23).analyze(
            probe_classes=subset
        )
        sharded = ShardedExactAnalyzer(
            design.dut, max_enum_bits=23, shard_lane_bits=7
        ).analyze(probe_classes=subset, workers=2)
        assert sharded.status == "complete"
        _assert_identical(serial, sharded)

    def test_identical_across_shard_sizes(self):
        design, subset = _eq6_subset()
        reports = [
            ShardedExactAnalyzer(
                design.dut, max_enum_bits=23, shard_lane_bits=bits
            ).analyze(probe_classes=subset)
            for bits in (7, 9, 12)
        ]
        _assert_identical(reports[0], reports[1])
        _assert_identical(reports[0], reports[2])

    def test_full_sweep_verdict(self):
        """The paper's eq6 verdict through the sharded front door."""
        design = build_kronecker_delta(RandomnessScheme.DEMEYER_EQ6)
        report = run_exact_analysis(
            design.dut, max_enum_bits=23, workers=4, shard_lane_bits=12
        )
        assert not report.passed
        assert sorted(r.probe_names for r in report.leaking_results) == [
            "g7.blind01",
            "g7.blind10",
            "g7.cross01",
            "g7.cross10",
            "g7.inner0",
            "g7.inner1",
        ]


class TestHooksAndCancellation:
    def test_hook_event_sequence(self):
        design, subset = _eq6_subset(limit=3)
        events = []
        ShardedExactAnalyzer(
            design.dut, max_enum_bits=23, shard_lane_bits=7
        ).analyze(
            probe_classes=subset,
            hook=lambda event, payload: events.append((event, payload)),
        )
        kinds = [e for e, _ in events]
        assert kinds[0] == "certify_start"
        assert kinds[-1] == "certify_end"
        start = events[0][1]
        assert start["n_probe_classes"] == len(subset)
        assert start["n_shards"] == kinds.count("shard_done")
        done = [p for e, p in events if e == "shard_done"]
        assert done[-1]["done"] == done[-1]["total"]

    def test_should_stop_truncates(self):
        design, subset = _eq6_subset()
        merges = []
        report = ShardedExactAnalyzer(
            design.dut, max_enum_bits=23, shard_lane_bits=7
        ).analyze(
            probe_classes=subset,
            hook=lambda event, payload: merges.append(event)
            if event == "shard_done"
            else None,
            should_stop=lambda: len(merges) >= 4,
        )
        assert report.status == "truncated:cancelled"
        assert len(report.results) < len(subset)


class TestCheckpointResume:
    def test_resume_completes_bit_identically(self, tmp_path):
        design, subset = _eq6_subset()
        path = str(tmp_path / "exact.ckpt")
        merges = []
        first = ShardedExactAnalyzer(
            design.dut, max_enum_bits=23, shard_lane_bits=7
        ).analyze(
            probe_classes=subset,
            checkpoint=path,
            hook=lambda event, payload: merges.append(event)
            if event == "shard_done"
            else None,
            should_stop=lambda: len(merges) >= 5,
        )
        assert first.status == "truncated:cancelled"
        assert os.path.exists(path)

        events = []
        resumed = ShardedExactAnalyzer(
            design.dut, max_enum_bits=23, shard_lane_bits=7
        ).analyze(
            probe_classes=subset,
            checkpoint=path,
            resume=True,
            hook=lambda event, payload: events.append((event, payload)),
        )
        assert resumed.status == "complete"
        assert events[0][1]["resumed_shards"] >= 5
        reference = ExactAnalyzer(design.dut, max_enum_bits=23).analyze(
            probe_classes=subset
        )
        _assert_identical(reference, resumed)

    def test_corrupt_checkpoint_quarantined(self, tmp_path):
        design, subset = _eq6_subset(limit=3)
        path = str(tmp_path / "exact.ckpt")
        with open(path, "wb") as handle:
            handle.write(b"not a checkpoint container")
        events = []
        report = ShardedExactAnalyzer(
            design.dut, max_enum_bits=23, shard_lane_bits=7
        ).analyze(
            probe_classes=subset,
            checkpoint=path,
            resume=True,
            hook=lambda event, payload: events.append(event),
        )
        assert report.status == "complete"
        assert "checkpoint_corrupt" in events
        assert os.path.exists(path + ".corrupt")

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        design, subset = _eq6_subset()
        path = str(tmp_path / "exact.ckpt")
        merges = []
        ShardedExactAnalyzer(
            design.dut, max_enum_bits=23, shard_lane_bits=7
        ).analyze(
            probe_classes=subset,
            checkpoint=path,
            hook=lambda event, payload: merges.append(event)
            if event == "shard_done"
            else None,
            should_stop=lambda: len(merges) >= 2,
        )
        # different lane split => different shard semantics => refuse.
        with pytest.raises(CheckpointError):
            ShardedExactAnalyzer(
                design.dut, max_enum_bits=23, shard_lane_bits=9
            ).analyze(probe_classes=subset, checkpoint=path, resume=True)


class TestRandomNetlistProperties:
    """Hypothesis: sharded counts merge bit-identically to single-shot on
    random bounded-randomness netlists, for random shard splits."""

    @given(dut=masked_circuits(), shard_lane_bits=st.integers(1, 12))
    @settings(max_examples=12, deadline=None)
    def test_sharded_matches_serial(self, dut, shard_lane_bits):
        serial = ExactAnalyzer(dut, max_enum_bits=16).analyze()
        sharded = ShardedExactAnalyzer(
            dut, max_enum_bits=16, shard_lane_bits=shard_lane_bits
        ).analyze()
        assert sharded.status == "complete"
        _assert_identical(serial, sharded)

    @given(dut=masked_circuits(), shard_lane_bits=st.integers(1, 12))
    @settings(max_examples=12, deadline=None)
    def test_shard_plans_never_split_lane_words(self, dut, shard_lane_bits):
        analyzer = ExactAnalyzer(dut, max_enum_bits=16)
        for probe_class in analyzer.probe_classes:
            setup = analyzer.enumeration_setup(probe_class)
            plan = ShardPlan.plan(setup.total_bits, shard_lane_bits)
            assert plan.n_shards * plan.lanes_per_shard == 1 << setup.total_bits
            if plan.n_shards > 1:
                assert plan.lane_bits >= MIN_SHARD_LANE_BITS
                assert plan.lanes_per_shard % 64 == 0


# ------------------------------------------------- count_shard vs reference


class _RecordingSimulator:
    """Passes ``run`` through and keeps every trace it returns."""

    def __init__(self, simulator, traces):
        self._simulator = simulator
        self._traces = traces

    def run(self, *args, **kwargs):
        trace = self._simulator.run(*args, **kwargs)
        self._traces.append(trace)
        return trace


def _recording_build(traces):
    real = engines.build_simulator

    def build(*args, **kwargs):
        simulator, info = real(*args, **kwargs)
        return _RecordingSimulator(simulator, traces), info

    return build


def _reference_counts(setup, probe_class, trace, shard_index, lane_bits):
    """Per-lane keys, ``np.unique`` and ``np.add.at`` on one shard's trace.

    Rows and validity come from the global assignment index itself, not
    from the analyzer's packed patterns.
    """
    n_lanes = 1 << lane_bits
    observe = setup.max_age
    keys = np.zeros(n_lanes, dtype=np.uint64)
    position = 0
    for back in probe_class.cycles_back:
        for net in probe_class.support:
            bits = unpack_lanes(trace.words(observe - back, net), n_lanes)
            keys |= bits.astype(np.uint64) << np.uint64(position)
            position += 1
    index = (shard_index << lane_bits) + np.arange(n_lanes, dtype=np.int64)
    rows = index >> setup.n_free_bits
    valid = np.ones(n_lanes, dtype=bool)
    for bus_index, age in setup.nonzero_groups:
        byte = np.zeros(n_lanes, dtype=np.int64)
        for bit in range(8):
            var = (("nonzero", bus_index, bit), age)
            byte |= ((index >> setup.free_vars.index(var)) & 1) << bit
        valid &= byte != 0
    unique_keys, inverse = np.unique(keys[valid], return_inverse=True)
    occupied = np.unique(rows[valid])
    counts = np.zeros((occupied.size, unique_keys.size), dtype=np.int64)
    np.add.at(
        counts, (np.searchsorted(occupied, rows[valid]), inverse.ravel()), 1
    )
    return unique_keys, occupied, counts


def _check_shards(analyzer, probe_class, shard_lane_bits, shard_indices=None):
    """count_shard equals the reference on every (or the given) shard."""
    setup = analyzer.enumeration_setup(probe_class)
    lane_bits = min(shard_lane_bits, setup.total_bits)
    if shard_indices is None:
        shard_indices = range(1 << (setup.total_bits - lane_bits))
    traces = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engines, "build_simulator", _recording_build(traces))
        for shard_index in shard_indices:
            keys, rows, counts = analyzer.count_shard(
                probe_class, shard_index, shard_lane_bits
            )
            ref_keys, ref_rows, ref_counts = _reference_counts(
                setup, probe_class, traces[-1], shard_index, lane_bits
            )
            assert keys.dtype == np.uint64 and rows.dtype == np.int64
            assert counts.dtype == np.int64
            np.testing.assert_array_equal(keys, ref_keys)
            np.testing.assert_array_equal(rows, ref_rows)
            np.testing.assert_array_equal(counts, ref_counts)
    return setup


def _find_class(analyzer, name):
    netlist = analyzer.dut.netlist
    return analyzer.probe_class_for_net(netlist.net(name))


def _xor_chain(n_masks):
    """One secret in two shares XORed with ``n_masks`` mask bits, and the
    sum held in a register (a one-bit key over every mask)."""
    from repro.leakage.dut import DesignUnderTest

    builder = CircuitBuilder("xor_chain")
    s0, s1 = builder.input("s0"), builder.input("s1")
    masks = [builder.input(f"m{i}") for i in range(n_masks)]
    chain = builder.xor(s0, s1, name="chain")
    for index, mask in enumerate(masks):
        chain = builder.xor(chain, mask, name=f"chain{index}")
    builder.output(builder.reg(chain, name="held"), "out")
    return DesignUnderTest(
        netlist=builder.build(),
        share_buses=[[s0], [s1]],
        mask_bits=masks,
        latency=0,
        metadata={"design": "xor_chain"},
    )


class TestCountShardReference:
    """count_shard against an independent per-lane counter on the same
    trace: the packed popcount path and the sort fallback alike."""

    @given(
        dut=masked_circuits(),
        data=st.data(),
        shard_lane_bits=st.integers(1, 12),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_netlists_every_shard(self, dut, data, shard_lane_bits):
        analyzer = ExactAnalyzer(dut, max_enum_bits=16)
        probe_class = data.draw(st.sampled_from(analyzer.probe_classes))
        _check_shards(analyzer, probe_class, shard_lane_bits)

    @pytest.mark.parametrize("shard_lane_bits", range(1, 13))
    def test_xor_chain_classes(self, shard_lane_bits):
        """Both counting paths, on sub-word shards, single-row broadcast
        shards and multi-row shards: a one-bit key over k=9 (popcount),
        a 10-bit key over k=9 (sort: key too wide) and k<6 (sort)."""
        analyzer = ExactAnalyzer(_xor_chain(8), max_enum_bits=16)
        held = _find_class(analyzer, "held")
        setup = _check_shards(analyzer, held, shard_lane_bits)
        assert setup.n_free_bits >= 6 and setup.n_secret_bits == 1
        assert held.observation_bits <= POPCOUNT_MAX_KEY_BITS
        wide = _find_class(analyzer, "chain7")
        setup = _check_shards(analyzer, wide, shard_lane_bits)
        assert setup.n_free_bits >= 6
        assert wide.observation_bits > POPCOUNT_MAX_KEY_BITS
        narrow = _find_class(analyzer, "chain3")
        setup = _check_shards(analyzer, narrow, shard_lane_bits)
        assert setup.n_free_bits < 6

    @pytest.mark.parametrize("shard_lane_bits", [2, 6, 7, 10, 11, 12])
    def test_sbox_nonzero_byte_class(self, shard_lane_bits):
        """An S-box class enumerating a non-zero mask byte (k=10, u=2):
        the validity mask drops the lanes where the byte is zero."""
        design = build_masked_sbox(None, include_kronecker=False)
        analyzer = ExactAnalyzer(design.dut, max_enum_bits=16)
        probe_class = _find_class(analyzer, "b2m.mul0.xor_1")
        setup = analyzer.enumeration_setup(probe_class)
        assert setup.nonzero_groups
        assert setup.n_free_bits >= 6 and setup.n_secret_bits >= 1
        assert probe_class.observation_bits <= POPCOUNT_MAX_KEY_BITS
        n_shards = 1 << (setup.total_bits - min(shard_lane_bits, 12))
        # first, last and a middle shard keep sub-word splits fast
        picks = sorted({0, n_shards // 2 + 1, n_shards - 1} & set(
            range(n_shards)
        ))
        _check_shards(analyzer, probe_class, shard_lane_bits, picks)

    def test_single_shot_matches_reference(self):
        design = build_masked_sbox(None, include_kronecker=False)
        analyzer = ExactAnalyzer(design.dut, max_enum_bits=16)
        probe_class = _find_class(analyzer, "b2m.mul0.xor_1")
        traces = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engines, "build_simulator", _recording_build(traces))
            result = analyzer.count_shard(probe_class)
        setup = analyzer.enumeration_setup(probe_class)
        reference = _reference_counts(
            setup, probe_class, traces[-1], 0, setup.total_bits
        )
        for got, want in zip(result, reference):
            np.testing.assert_array_equal(got, want)


class TestShardContextReuse:
    """Shards of one class share one enumeration setup and simulator."""

    @staticmethod
    def _count_calls(monkeypatch):
        calls = {"build": 0, "setup": 0}
        real_build = engines.build_simulator
        real_setup = ExactAnalyzer.enumeration_setup

        def build(*args, **kwargs):
            calls["build"] += 1
            return real_build(*args, **kwargs)

        def setup(self, probe_class):
            calls["setup"] += 1
            return real_setup(self, probe_class)

        monkeypatch.setattr(engines, "build_simulator", build)
        monkeypatch.setattr(ExactAnalyzer, "enumeration_setup", setup)
        return calls

    def test_serial_shards_build_once(self, monkeypatch):
        design, subset = _eq6_subset(min_bits=10, limit=3)
        analyzer = ExactAnalyzer(design.dut, max_enum_bits=23)
        probe_class = subset[0]
        total_bits = analyzer.enumeration_setup(probe_class).total_bits
        calls = self._count_calls(monkeypatch)
        for shard_index in range(1 << (total_bits - 7)):
            analyzer.count_shard(probe_class, shard_index, 7)
        assert calls == {"build": 1, "setup": 1}
        analyzer.count_shard(subset[1], 0, 7)
        assert calls == {"build": 2, "setup": 2}

    def test_sharded_sweep_builds_once_per_class(self, monkeypatch):
        design, subset = _eq6_subset(min_bits=10, limit=3)
        sharded = ShardedExactAnalyzer(
            design.dut, max_enum_bits=23, shard_lane_bits=7
        )
        calls = self._count_calls(monkeypatch)
        sharded.analyze(probe_classes=subset)
        assert calls["build"] == len(subset)

    def test_native_disabled_degrades_once(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        design, subset = _eq6_subset(min_bits=10, limit=3)
        analyzer = ExactAnalyzer(design.dut, max_enum_bits=23, engine="native")
        calls = self._count_calls(monkeypatch)
        for probe_class in subset:
            total_bits = analyzer.enumeration_setup(probe_class).total_bits
            for shard_index in range(1 << (total_bits - 7)):
                analyzer.count_shard(probe_class, shard_index, 7)
        assert calls["build"] == len(subset)
        assert analyzer.engine == "compiled"
        assert [d["kind"] for d in analyzer.degradations] == [
            "engine_compiled"
        ]
