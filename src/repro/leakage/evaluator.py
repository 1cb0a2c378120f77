"""The Monte-Carlo fixed-vs-random leakage evaluator.

This is the PROLEAD reproduction: it simulates the design under test with a
fixed-secret group and a random-secret group, resolves every probe under the
chosen extended probing model, and G-tests each probe class's observation
histogram between the groups.  Second-order (bivariate) evaluation tests the
*joint* observation of every pair of probe classes, as the paper does for
the second-order Kronecker design.

Sampling layout: lanes are independent traces; within a trace, observation
*windows* spaced further apart than the pipeline depth contribute additional
independent samples (inputs and randomness are i.i.d. per cycle, so the
pipeline forgets everything between windows).

Memory layout: lanes are partitioned into fixed-size *blocks* of
``BLOCK_LANES`` lanes.  Each block draws its stimulus from its own RNG
stream derived from ``np.random.SeedSequence(seed, spawn_key=(group,
block))``, so any block is reproducible in isolation and the sampled values
do not depend on how blocks are batched into processing chunks.  Per-block
observations are reduced into a :class:`HistogramAccumulator` immediately,
which bounds peak memory by the block size instead of the total simulation
count and lets :mod:`repro.leakage.campaign` checkpoint and resume long
runs: the G-test only ever sees the accumulated contingency table, so a
chunked run is bit-identical to a single pass.

Statistics: observations wider than ``hash_bits`` are bucketed through a
fixed mixing hash before testing.  A full contingency table over a very wide
observation is hopelessly sparse at practical sample sizes, which makes the
chi-square approximation of the G-test anti-conservative (our fixed-vs-fixed
null experiments show -log10(p) in the tens); bucketing bounds the table at
``2^hash_bits`` cells while preserving any distribution difference with
overwhelming probability.  The default of 10 bits keeps expected cell counts
comfortably large at the sample sizes used throughout (the G-test's null
behaviour degrades measurably once expected counts drop toward ~10).
"""

from __future__ import annotations

import itertools
import warnings
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import engines as engine_registry
from repro.errors import SimulationError
from repro.leakage.dut import DesignUnderTest
from repro.leakage.gtest import DEFAULT_THRESHOLD, GTestResult, g_test_from_counts
from repro.leakage.model import ProbingModel
from repro.leakage.probes import ProbeClass, extract_probe_classes
from repro.leakage.report import LeakageReport, ProbeResult
from repro.leakage.traces import StimulusGenerator
from repro.netlist.compile import netlist_content_hash
from repro.netlist.simulate import Trace, unpack_lanes

#: Lanes per sampling block (64 uint64 words).  The RNG stream of a block is
#: a pure function of (seed, group, block index), so evaluation results are
#: invariant under any chunking of blocks -- changing this constant changes
#: the sampled stimulus and therefore the concrete tables.
BLOCK_LANES = 4096


def _mix_hash(keys: np.ndarray) -> np.ndarray:
    """SplitMix64-style bit mixer used for observation bucketing."""
    keys = keys.copy()
    keys ^= keys >> np.uint64(30)
    keys *= np.uint64(0xBF58476D1CE4E5B9)
    keys ^= keys >> np.uint64(27)
    keys *= np.uint64(0x94D049BB133111EB)
    keys ^= keys >> np.uint64(31)
    return keys


def _observation_layout(
    probe_class: ProbeClass, cycle: int
) -> Tuple[Tuple[int, int, int], ...]:
    """``(cycle - back, net, position)`` of each bit of one observation.

    The one bit layout of a tuple observation key: positions count
    ``for back in cycles_back: for net in support``.  The Python key
    extraction (:func:`_observation_keys`) and the in-kernel count
    specs (:func:`_count_specs`) both follow it, which is what makes
    the two paths' tables identical.
    """
    return tuple(
        (cycle - back, net, position)
        for position, (back, net) in enumerate(
            itertools.product(probe_class.cycles_back, probe_class.support)
        )
    )


def _hashed(observation_bits: int, hash_bits: int) -> bool:
    """Whether keys this wide are bucketed down to ``hash_bits`` bits."""
    return observation_bits > hash_bits


def _bucket_keys(
    keys: np.ndarray, observation_bits: int, hash_bits: int
) -> np.ndarray:
    """Bucket ``observation_bits``-wide keys into ``2**hash_bits`` cells."""
    if _hashed(observation_bits, hash_bits):
        return _mix_hash(keys) >> np.uint64(64 - hash_bits)
    return keys


def _count_specs(windows, hash_bits: int):
    """One in-kernel CountSpec per ``(probe_class, cycles)`` test.

    Each observation cycle becomes one segment of the test's count table
    (the histogram of a concatenation is the sum of per-segment
    histograms); bits follow :func:`_observation_layout` and hashing
    :func:`_bucket_keys`.
    """
    from repro.netlist.native import CountSpec

    specs = []
    for probe_class, cycles in windows:
        width = probe_class.observation_bits
        hashed = _hashed(width, hash_bits)
        specs.append(
            CountSpec(
                tuple(_observation_layout(probe_class, t) for t in cycles),
                hashed,
                1 << (hash_bits if hashed else width),
            )
        )
    return specs


def _lane_bits(
    trace: Trace,
    cycle: int,
    net: int,
    bit_cache: Optional[Dict[Tuple[int, int], np.ndarray]],
) -> np.ndarray:
    """Per-lane bits of ``net`` at ``cycle``, widened to uint64.

    ``bit_cache`` (keyed by ``(cycle, net)``) shares them across every
    probe class that observes the net -- probe supports overlap heavily,
    so each recorded net is unpacked once per trace instead of once per
    class.
    """
    wide = None if bit_cache is None else bit_cache.get((cycle, net))
    if wide is None:
        wide = unpack_lanes(
            trace.words(cycle, net), trace.n_lanes
        ).astype(np.uint64)
        if bit_cache is not None:
            bit_cache[(cycle, net)] = wide
    return wide


def _observation_keys(
    trace: Trace,
    probe_class: ProbeClass,
    cycles: Sequence[int],
    bit_cache: Optional[Dict[Tuple[int, int], np.ndarray]] = None,
) -> np.ndarray:
    """Unbucketed tuple keys per lane, one segment per observation cycle."""
    segments = []
    for t in cycles:
        key = np.zeros(trace.n_lanes, dtype=np.uint64)
        for cycle, net, position in _observation_layout(probe_class, t):
            key |= _lane_bits(trace, cycle, net, bit_cache) << np.uint64(
                position
            )
        segments.append(key)
    return np.concatenate(segments)


#: One table: ``(keys, counts)``.  ``keys is None`` marks a dense table
#: whose column index is the observation key (zero columns allowed);
#: otherwise ``keys`` is a sorted unique uint64 array and ``counts`` has no
#: zero column.  Keyed arrays are never written in place, so tables may
#: share them; a dense matrix belongs to one accumulator and grows in place.
_Table = Tuple[Optional[np.ndarray], np.ndarray]


def _keyed(table: _Table) -> _Table:
    """A table's cells in keyed form (dense zero columns dropped)."""
    keys, counts = table
    if keys is not None:
        return table
    present = np.flatnonzero(counts[0] + counts[1])
    return present.astype(np.uint64), counts.take(present, axis=1)


def _union(a: _Table, b: _Table) -> _Table:
    """Cell-wise sum of two keyed tables."""
    if a[0].size < b[0].size:
        a, b = b, a
    at = np.searchsorted(a[0], b[0])
    if b[0].size == 0 or (
        at[-1] < a[0].size and (a[0][at] == b[0]).all()
    ):
        # Every key of b is already in a: 91% of the folds and merges of
        # an E8 pair campaign, where skipping union1d saves 13% of the
        # verdict time (docs/performance.md, section 9).
        keys, counts = a[0], a[1].copy()
    else:
        keys = np.union1d(a[0], b[0])
        counts = np.zeros((2, keys.size), dtype=np.int64)
        _scatter_add(counts, np.searchsorted(keys, a[0]), a[1])
        at = np.searchsorted(keys, b[0])
    _scatter_add(counts, at, b[1])
    return keys, counts


def _scatter_add(counts: np.ndarray, at: np.ndarray, cells: np.ndarray):
    """``counts[:, at] += cells`` for unique ``at``, one row at a time
    (several times faster than the two-axis fancy index)."""
    for row in range(2):
        counts[row][at] += cells[row]


class HistogramAccumulator:
    """Incrementally accumulated fixed/random contingency tables.

    Tables are keyed by a string table id (one per probe class, or one per
    probe pair and offset) and map integer observation keys to
    ``[fixed, random]`` counts.  Accumulation commutes and associates, so
    every partition of the simulations into blocks yields the same tables
    -- the property that makes chunked, checkpointed campaigns bit-identical
    to single-pass evaluation (the G-test only sees the table).

    Storage: a table created by :meth:`add_counts` is a dense
    ``int64[2, L]`` matrix with one column per observation key, so a count
    row folds in with one ``+=``.  Every other table is a sorted ``uint64``
    key array plus an ``int64[2, n]`` count matrix, folded with
    ``union1d``/``searchsorted``.  A dense table turns keyed when it meets
    a key of ``_DENSE_KEY_LIMIT`` or more, or a keyed operand (an
    :meth:`add`, or a keyed table merged in).  Both forms
    read out the same zero-free cells, so the form never shows in
    :meth:`counts`, :meth:`state_arrays` or a G-test.
    """

    GROUP_FIXED = 0
    GROUP_RANDOM = 1

    #: keys below this limit can be dense columns (bucketed observations
    #: are < 2^hash_bits, and in-kernel count rows at most 2^16 long).
    _DENSE_KEY_LIMIT = 1 << 16

    def __init__(self) -> None:
        self._tables: Dict[str, _Table] = {}

    def add(self, table_id: str, keys: np.ndarray, group: int) -> None:
        """Histogram ``keys`` into one table's column for ``group``."""
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size and int(keys.max()) >= self._DENSE_KEY_LIMIT:
            values, counts = np.unique(keys, return_counts=True)
        else:
            # O(n) bincount instead of O(n log n) sort-based unique.
            counts = np.bincount(keys.astype(np.int64))
            values = counts.nonzero()[0]
            counts = counts[values]
        self._fold(table_id, values.astype(np.uint64), counts, group)

    def add_counts(
        self, table_id: str, counts: np.ndarray, group: int
    ) -> None:
        """Fold a dense count row (bin index == observation key) into a table.

        Produces exactly the table :meth:`add` builds from the raw key
        array the row was histogrammed from -- zero bins leave no entry
        -- so in-kernel count tables and python key arrays accumulate
        interchangeably.
        """
        row = np.asarray(counts).astype(np.int64, copy=False)
        self._fold(table_id, None, row, group)

    def _fold(
        self,
        table_id: str,
        values: Optional[np.ndarray],
        counts: np.ndarray,
        group: int,
    ) -> None:
        """Fold ``counts`` at sorted unique keys ``values`` into a table.

        ``values=None`` makes ``counts`` a row indexed by key, which a new
        or dense table takes with one ``+=``.
        """
        if group not in (self.GROUP_FIXED, self.GROUP_RANDOM):
            raise SimulationError("group must be GROUP_FIXED or GROUP_RANDOM")
        table = self._tables.get(table_id)
        if values is None:
            if counts.size <= self._DENSE_KEY_LIMIT and (
                counts.any() if table is None else table[0] is None
            ):
                width = counts.size
                self._dense_matrix(table_id, width)[group, :width] += counts
                return
            values = counts.nonzero()[0]
            counts = counts[values]
            values = values.astype(np.uint64)
        if values.size == 0:
            return
        cells = np.zeros((2, values.size), dtype=np.int64)
        cells[group] = counts
        self._tables[table_id] = (
            (values, cells)
            if table is None
            else _union(_keyed(table), (values, cells))
        )

    def _dense_matrix(self, table_id: str, width: int) -> np.ndarray:
        """A dense table's matrix, created or widened to ``width``."""
        table = self._tables.get(table_id)
        if table is not None and table[1].shape[1] >= width:
            return table[1]
        matrix = np.zeros((2, width), dtype=np.int64)
        if table is not None:
            matrix[:, : table[1].shape[1]] = table[1]
        self._tables[table_id] = (None, matrix)
        return matrix

    def merge(self, other: "HistogramAccumulator") -> None:
        """Fold another accumulator's tables into this one."""
        for table_id, (keys, counts) in other._tables.items():
            mine = self._tables.get(table_id)
            if mine is None:
                self._tables[table_id] = (
                    (None, counts.copy()) if keys is None else (keys, counts)
                )
            elif keys is None and mine[0] is None:
                width = counts.shape[1]
                self._dense_matrix(table_id, width)[:, :width] += counts
            else:
                self._tables[table_id] = _union(
                    _keyed(mine), _keyed((keys, counts))
                )

    def table_ids(self) -> List[str]:
        """All table ids seen so far, sorted."""
        return sorted(self._tables)

    def _cells(self, table_id: str) -> _Table:
        """Fresh zero-free ``(keys, int64[2, n])`` of one table."""
        table = self._tables.get(table_id)
        if table is None:
            return np.empty(0, np.uint64), np.empty((2, 0), np.int64)
        if table[0] is None:
            return _keyed(table)
        return table[0].copy(), table[1].copy()

    def counts(self, table_id: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(keys, fixed_counts, random_counts)`` sorted by observation key."""
        keys, counts = self._cells(table_id)
        return (
            keys,
            counts[0].astype(np.float64),
            counts[1].astype(np.float64),
        )

    def test(self, table_id: str, min_expected: float = 5.0) -> GTestResult:
        """G-test of one accumulated table."""
        _, fixed, random_ = self.counts(table_id)
        return g_test_from_counts(fixed, random_, min_expected)

    # -------------------------------------------------------- serialization

    def state_arrays(self) -> Tuple[List[str], Dict[str, np.ndarray]]:
        """Table ids plus numpy arrays for NPZ checkpointing.

        Table ``i`` of the sorted ids is stored as ``t{i}_keys`` (sorted
        ``uint64``) and ``t{i}_counts`` (``int64[2, n]``, fixed row then
        random row), with no zero cell.
        """
        ids = self.table_ids()
        arrays: Dict[str, np.ndarray] = {}
        for i, table_id in enumerate(ids):
            keys, counts = self._cells(table_id)
            arrays[f"t{i}_keys"] = keys
            arrays[f"t{i}_counts"] = counts
        return ids, arrays

    @classmethod
    def from_state(
        cls, ids: Sequence[str], arrays: Dict[str, np.ndarray]
    ) -> "HistogramAccumulator":
        """Rebuild an accumulator from :meth:`state_arrays` output.

        Raises :class:`SimulationError` when a table's keys are not
        strictly increasing or its counts are not ``(2, n)``: the keyed
        folds rely on both.
        """
        acc = cls()
        for i, table_id in enumerate(ids):
            keys = np.asarray(arrays[f"t{i}_keys"], dtype=np.uint64)
            counts = np.asarray(arrays[f"t{i}_counts"], dtype=np.int64)
            if keys.ndim != 1 or counts.shape != (2, keys.size):
                raise SimulationError(
                    f"table {table_id!r}: keys {keys.shape} and counts "
                    f"{counts.shape} are not (n,) and (2, n)"
                )
            if not np.all(keys[1:] > keys[:-1]):
                raise SimulationError(
                    f"table {table_id!r}: keys are not strictly increasing"
                )
            acc._tables[table_id] = (keys, counts)
        return acc


class LeakageEvaluator:
    """Fixed-vs-random evaluation of a design under a probing model."""

    def __init__(
        self,
        dut: DesignUnderTest,
        model: ProbingModel = ProbingModel.GLITCH,
        seed: int = 0,
        max_support_bits: int = 24,
        hash_bits: int = 10,
        observation: str = "tuple",
        block_lanes: int = BLOCK_LANES,
        engine: str = engine_registry.DEFAULT_ENGINE,
        slice_cones: bool = True,
    ):
        if observation not in ("tuple", "hamming"):
            raise SimulationError(
                "observation must be 'tuple' or 'hamming'"
            )
        if block_lanes < 64 or block_lanes % 64:
            raise SimulationError(
                "block_lanes must be a positive multiple of 64"
            )
        try:
            engine_registry.get_engine(engine)
        except engine_registry.EngineError as exc:
            raise SimulationError(str(exc)) from None
        self.dut = dut
        self.model = model
        self.seed = seed
        self.max_support_bits = max_support_bits
        self.hash_bits = hash_bits
        self.block_lanes = block_lanes
        # Any engine registered in repro.engines; all are bit-identical
        # (see tests/test_cross_engine.py), so the choice only trades
        # wall-clock.  Construction failures walk the registry's
        # degradation ladder (native -> compiled -> bitsliced) and are
        # recorded in :attr:`degradations`.
        self.engine = engine
        # Cone slicing restricts each simulated block to the sequential
        # fan-in cone of the currently-active probe supports (see
        # repro.netlist.slice).  The cone is closed under fan-in, so sliced
        # evaluation is bit-identical to full simulation -- the flag only
        # trades compile/cache work against per-cycle gate dispatches.
        self.slice_cones = slice_cones
        # "hamming" observes only the Hamming weight of the extended probe
        # (PROLEAD's compact power-model mode): a weaker adversary, useful
        # to gauge how visible a leak is to plain HW power models.
        self.observation = observation
        #: optional :class:`repro.chaos.FaultPlane` consulted at the
        #: "engine.compile" and "worker.block" sites.  ``None`` (the
        #: default) costs nothing; campaigns install a plane under chaos
        #: and it rides the evaluator pickle into worker processes.
        self.fault_plane = None
        #: graceful-degradation provenance: ladder steps this evaluator
        #: took (compiled kernel -> bitsliced reference), merged into
        #: :attr:`LeakageReport.degradations` by campaigns.
        self.degradations: List[Dict[str, str]] = []
        #: cumulative seconds per evaluation stage across every block this
        #: evaluator processed; campaigns snapshot it at chunk boundaries
        #: to attribute wall-clock (stimulus is folded into simulate on
        #: the python path, which stages stimulus inside ``run``).
        self.stage_seconds: Dict[str, float] = {
            "stimulus": 0.0, "simulate": 0.0,
            "extract": 0.0, "histogram": 0.0,
        }
        self.probe_classes, self.skipped_classes = extract_probe_classes(
            dut.netlist, model, max_support_bits=max_support_bits
        )

    # ------------------------------------------------------------ scheduling

    def _schedule(
        self, n_windows: int, margin: int = 0
    ) -> Tuple[List[int], int]:
        """Observation cycles and total cycle count."""
        # Warm-up covers the pipeline fill plus derived-mask register chains
        # (and any backward probe offset); windows are spaced by more than
        # the pipeline depth so their observations are independent.
        warmup = self.dut.latency + 4 + margin
        stride = self.dut.latency + 4 + margin
        eval_cycles = [warmup + w * stride for w in range(n_windows)]
        n_cycles = eval_cycles[-1] + 1
        return eval_cycles, n_cycles

    def _record_cycles(self, eval_cycles: Iterable[int]) -> set:
        needed = set()
        for t in eval_cycles:
            for back in self.model.cycles_back:
                needed.add(t - back)
        return needed

    # ------------------------------------------------------- lanes and blocks

    def n_lanes_for(self, n_simulations: int, n_windows: int) -> int:
        """Validated lane count for a per-group sample budget.

        ``n_simulations`` is split into ``n_windows`` observation windows
        over ``n_simulations // n_windows`` lanes; a budget smaller than the
        window count is a configuration error (the historical behaviour of
        silently clamping to one lane ran 100x the requested samples).
        """
        if n_windows < 1:
            raise SimulationError("n_windows must be at least 1")
        if n_simulations < 1:
            raise SimulationError("n_simulations must be at least 1")
        if n_simulations < n_windows:
            raise SimulationError(
                f"n_simulations ({n_simulations}) must be at least "
                f"n_windows ({n_windows})"
            )
        return n_simulations // n_windows

    def block_count(self, n_lanes: int) -> int:
        """Number of sampling blocks covering ``n_lanes`` lanes."""
        return (n_lanes + self.block_lanes - 1) // self.block_lanes

    def _block_lane_count(self, n_lanes: int, block: int) -> int:
        """Lanes in one block (the last block may be partial)."""
        start = block * self.block_lanes
        return min(self.block_lanes, n_lanes - start)

    def _block_rng(self, group: int, block: int) -> np.random.Generator:
        """The block's private RNG stream, reproducible in isolation."""
        seq = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(group, block)
        )
        return np.random.default_rng(seq)

    def design_hash(self) -> str:
        """Content hash of the design's executable netlist structure.

        This is the leading component of the evaluation service's
        verdict-cache key: two evaluators with equal design hashes (and
        equal sampling parameters) produce bit-identical reports, however
        the designs were named or constructed.
        """
        return netlist_content_hash(self.dut.netlist)

    def _on_degrade(self, from_info, to_info, exc) -> None:
        """Record one rung of the engine degradation ladder permanently."""
        self.engine = to_info.name
        self.degradations.append(
            engine_registry.degradation(
                f"engine_{to_info.name}", exc, from_info.name
            )
        )
        warnings.warn(
            f"{from_info.name} simulation engine failed ({exc}); "
            f"degrading to the {to_info.name} engine with identical "
            "results",
            RuntimeWarning,
            stacklevel=4,
        )

    def _make_simulator(
        self,
        lane_count: int,
        keep_nets: Optional[Sequence[int]] = None,
        record_nets: Optional[Sequence[str]] = None,
    ):
        """Simulator instance for the configured engine.

        An engine construction failure (no C toolchain for ``native``, a
        compiled-kernel failure, or an injected "engine.native_build" /
        "engine.compile" chaos fault) degrades this evaluator permanently
        down the registry's ladder (native -> compiled -> bitsliced)
        instead of failing the campaign: the engines are bit-identical
        (tests/test_cross_engine.py), so the verdict is unchanged and
        only the provenance records the slower path.
        """
        plane = self.fault_plane
        sim, info = engine_registry.build_simulator(
            self.engine,
            self.dut.netlist,
            lane_count,
            keep_nets=keep_nets,
            record_nets=record_nets,
            decide=plane.decide if plane is not None else None,
            on_degrade=self._on_degrade,
        )
        return sim

    def _simulate_block(
        self,
        fixed_secret: int,
        lane_count: int,
        block: int,
        n_cycles: int,
        record_cycles: set,
        keep_nets: Optional[Sequence[int]] = None,
        record_nets: Optional[Sequence[int]] = None,
    ) -> Tuple[Trace, Trace]:
        """Simulate both groups for one sampling block.

        The stimulus generator always drives *every* primary input with the
        same RNG stream regardless of ``keep_nets``; a sliced simulator just
        ignores inputs outside its cone.  That keeps sliced and unsliced
        runs sampling identical bits.
        """
        generator = StimulusGenerator(self.dut, (lane_count + 63) // 64)
        trace_fixed = self._make_simulator(
            lane_count, keep_nets, record_nets=record_nets
        ).run(
            generator.fixed(
                fixed_secret, self._block_rng(HistogramAccumulator.GROUP_FIXED, block)
            ),
            n_cycles,
            record_nets=record_nets,
            record_cycles=record_cycles,
        )
        trace_random = self._make_simulator(
            lane_count, keep_nets, record_nets=record_nets
        ).run(
            generator.random(
                self._block_rng(HistogramAccumulator.GROUP_RANDOM, block)
            ),
            n_cycles,
            record_nets=record_nets,
            record_cycles=record_cycles,
        )
        return trace_fixed, trace_random

    # ---------------------------------------------------------- cone slicing

    def _slice_roots(
        self,
        classes: Sequence[ProbeClass],
        pairs: Sequence[Tuple[int, int]],
    ) -> List[int]:
        """Union stable support of a probe selection (slice root nets)."""
        roots: set = set()
        for probe_class in classes:
            roots.update(probe_class.support)
        all_classes = self.probe_classes
        for i, j in pairs:
            roots.update(all_classes[i].support)
            roots.update(all_classes[j].support)
        return sorted(roots)

    def slice_info(
        self,
        class_indices: Optional[Sequence[int]] = None,
        pairs: Sequence[Tuple[int, int]] = (),
    ) -> Optional[Dict[str, object]]:
        """Slice identity and size for a probe selection, or None.

        Returns ``{"key": ..., "stats": ...}`` describing the sliced
        program the selection would simulate (``None`` when slicing is
        disabled or the selection is empty).  The campaign driver uses the
        key to detect adaptive re-slices at chunk boundaries and the stats
        for ``program_sliced`` telemetry.
        """
        if not self.slice_cones:
            return None
        classes = (
            list(self.probe_classes)
            if class_indices is None
            else [self.probe_classes[i] for i in class_indices]
        )
        roots = self._slice_roots(classes, pairs)
        if not roots:
            return None
        from repro.netlist.slice import slice_key, slice_stats

        return {
            "key": slice_key(self.dut.netlist, roots),
            "stats": slice_stats(self.dut.netlist, roots).to_dict(),
        }

    # --------------------------------------------------------- key extraction

    def _raw_keys(
        self,
        trace: Trace,
        probe_class: ProbeClass,
        eval_cycles: List[int],
        bit_cache: Optional[Dict[Tuple[int, int], np.ndarray]] = None,
    ) -> np.ndarray:
        """Integer-encode the probe observation per lane per window.

        Tuple observations pack the bits of :func:`_observation_layout`;
        Hamming observations sum them.  ``bit_cache`` is shared as in
        :func:`_lane_bits`.
        """
        if self.observation != "hamming":
            return _observation_keys(
                trace, probe_class, eval_cycles, bit_cache
            )
        keys_per_window = []
        for t in eval_cycles:
            key = np.zeros(trace.n_lanes, dtype=np.uint64)
            for cycle, net, _ in _observation_layout(probe_class, t):
                key += _lane_bits(trace, cycle, net, bit_cache)
            keys_per_window.append(key)
        return np.concatenate(keys_per_window)

    def _bucket(self, keys: np.ndarray, observation_bits: int) -> np.ndarray:
        if self.observation == "hamming":
            return keys  # at most observation_bits + 1 categories
        return _bucket_keys(keys, observation_bits, self.hash_bits)

    # --------------------------------------------------- unified entry point

    def accumulate(
        self,
        acc: HistogramAccumulator,
        fixed_secret: int = 0,
        n_lanes: Optional[int] = None,
        n_windows: int = 1,
        *,
        spec=None,
        classes: Optional[Sequence[ProbeClass]] = None,
        class_indices: Optional[Sequence[int]] = None,
        pairs: Sequence[Tuple[int, int]] = (),
        pair_offsets: Sequence[int] = (0,),
        blocks: Optional[Iterable[int]] = None,
        batched: bool = True,
    ) -> None:
        """Accumulate observations for any probe selection into ``acc``.

        The single public accumulation entry point (the former
        ``accumulate_first_order`` / ``accumulate_batched`` pair was
        removed after its deprecation cycle).  Per block both groups are
        simulated a
        single time, and all first-order classes (table ids ``c<i>``) plus
        all probe-pair tables (``p<i>:<j>:<delta>``, indices into the
        evaluator's own probe classes) are evaluated against the same
        recorded trace.  Raw per-class observation keys are computed once
        per (class, offset) and reused across every pair that touches the
        class.

        Probe selection, in precedence order:

        * ``spec`` -- an :class:`repro.spec.EvaluationSpec` (anything with
          its sampling attributes); supplies ``fixed_secret``, ``n_lanes``
          (from its ``n_simulations``/``n_windows``), ``pair_offsets``, and
          -- for modes ``pairs``/``both`` -- the deterministic pair
          selection, unless explicitly overridden.
        * ``class_indices`` -- indices into the evaluator's own probe
          classes; table ids keep those indices (``c<i>``), which is what
          lets the adaptive scheduler prune classes mid-campaign without
          remapping accumulated tables.
        * ``classes`` -- explicit :class:`ProbeClass` objects (table ids by
          enumeration order); ``None`` selects every probe class, ``()``
          runs pairs only.

        With ``pair_offsets=(0,)`` (or no pairs) the observation schedule
        -- and therefore every sampled stimulus bit -- is identical to a
        first-order-only run, so batched tables are bit-identical to
        running the modes separately.  A non-zero offset lengthens the
        warm-up margin for the whole batch, which shifts the first-order
        observation cycles relative to a dedicated margin-0 run (same
        distribution, different samples).  ``batched=False`` disables
        shared-trace batching and processes each probe set in its own pass
        over the blocks -- same tables, one simulation per probe set; it
        exists to measure exactly what batching saves.
        """
        if spec is not None:
            fixed_secret = spec.fixed_secret
            n_windows = spec.n_windows
            if n_lanes is None:
                n_lanes = self.n_lanes_for(spec.n_simulations, n_windows)
            pair_offsets = tuple(spec.pair_offsets)
            if spec.mode in ("pairs", "both") and not pairs:
                pairs = self.select_pairs(spec.max_pairs, spec.pair_seed)
            if spec.mode == "pairs" and classes is None:
                classes = ()
        if n_lanes is None:
            raise SimulationError(
                "accumulate() needs n_lanes (or a spec to derive it from)"
            )
        if class_indices is not None:
            if classes is not None:
                raise SimulationError(
                    "pass either classes or class_indices, not both"
                )
            class_indices = list(class_indices)
            classes = [self.probe_classes[i] for i in class_indices]
        else:
            classes = (
                list(self.probe_classes)
                if classes is None
                else list(classes)
            )
            class_indices = list(range(len(classes)))
        pairs = list(pairs)
        if not batched:
            blocks = (
                list(blocks)
                if blocks is not None
                else list(range(self.block_count(n_lanes)))
            )
            for index, probe_class in zip(class_indices, classes):
                self._accumulate_batch(
                    acc, fixed_secret, n_lanes, n_windows,
                    [probe_class], [index], [], pair_offsets, blocks,
                )
            for pair in pairs:
                self._accumulate_batch(
                    acc, fixed_secret, n_lanes, n_windows,
                    [], [], [pair], pair_offsets, blocks,
                )
            return
        self._accumulate_batch(
            acc, fixed_secret, n_lanes, n_windows,
            classes, class_indices, pairs, pair_offsets, blocks,
        )

    def _accumulate_batch(
        self,
        acc: HistogramAccumulator,
        fixed_secret: int,
        n_lanes: int,
        n_windows: int,
        classes: Sequence[ProbeClass],
        class_indices: Sequence[int],
        pairs: Sequence[Tuple[int, int]],
        pair_offsets: Sequence[int],
        blocks: Optional[Iterable[int]],
    ) -> None:
        """Shared-trace core: one simulation per block, all probe sets."""
        if pairs:
            offsets, eval_cycles, n_cycles, record_cycles = (
                self._pair_schedule(n_windows, pair_offsets)
            )
        else:
            offsets = []
            eval_cycles, n_cycles = self._schedule(n_windows)
            record_cycles = self._record_cycles(eval_cycles)
        all_classes = self.probe_classes
        keep_nets = None
        record_nets = None
        if self.slice_cones:
            roots = self._slice_roots(classes, pairs)
            if not roots:
                # Nothing observes anything: no tables would be touched,
                # so skipping the simulation entirely is bit-identical.
                return
            keep_nets = roots
            record_nets = roots
        if blocks is None:
            blocks = range(self.block_count(n_lanes))
        stage = self.stage_seconds
        # In-kernel pipeline fast path: whole block (stimulus, simulate,
        # extract, histogram) in C, folding ready-made count tables into
        # ``acc`` -- bit-identical to the python path below (same tables;
        # see tests/test_native_pipeline.py).  Applies to first-order
        # tuple observations on sliced cones under the native engine;
        # anything else (pairs, hamming, very wide hash_bits, missing
        # toolchain) runs the python path, and a mid-campaign failure
        # degrades per evaluator, re-running the failed block in python.
        use_pipeline = (
            not pairs
            and bool(classes)
            and self.observation == "tuple"
            and self.hash_bits <= 16
            and record_nets is not None
            and self._pipeline_supported()
        )
        pipeline_tests = None
        pipeline_sims: Dict[int, object] = {}
        for block in blocks:
            lane_count = self._block_lane_count(n_lanes, block)
            if use_pipeline:
                try:
                    if pipeline_tests is None:
                        pipeline_tests = _count_specs(
                            [(pc, eval_cycles) for pc in classes],
                            self.hash_bits,
                        )
                    self._pipeline_block(
                        acc, fixed_secret, lane_count, block, n_cycles,
                        record_cycles, keep_nets, record_nets,
                        class_indices, pipeline_tests, pipeline_sims,
                    )
                    continue
                except SimulationError as exc:
                    self.degradations.append(
                        engine_registry.degradation("pipeline_python", exc)
                    )
                    use_pipeline = False
            t0 = perf_counter()
            trace_fixed, trace_random = self._simulate_block(
                fixed_secret, lane_count, block, n_cycles, record_cycles,
                keep_nets=keep_nets, record_nets=record_nets,
            )
            stage["simulate"] += perf_counter() - t0
            # Per-group memoization shared by every probe set this block:
            # raw keys per (class, offset), unpacked bits per (cycle, net).
            raw_fixed: Dict[Tuple[ProbeClass, int], np.ndarray] = {}
            raw_random: Dict[Tuple[ProbeClass, int], np.ndarray] = {}
            bits_fixed: Dict[Tuple[int, int], np.ndarray] = {}
            bits_random: Dict[Tuple[int, int], np.ndarray] = {}

            def raw(group_cache, bit_cache, trace, probe_class, delta):
                key = (probe_class, delta)
                if key not in group_cache:
                    cycles = (
                        [t - delta for t in eval_cycles]
                        if delta
                        else eval_cycles
                    )
                    t0 = perf_counter()
                    group_cache[key] = self._raw_keys(
                        trace, probe_class, cycles, bit_cache=bit_cache
                    )
                    stage["extract"] += perf_counter() - t0
                return group_cache[key]

            for index, probe_class in zip(class_indices, classes):
                keys_fixed = self._bucket(
                    raw(raw_fixed, bits_fixed, trace_fixed, probe_class, 0),
                    probe_class.observation_bits,
                )
                keys_random = self._bucket(
                    raw(raw_random, bits_random, trace_random, probe_class, 0),
                    probe_class.observation_bits,
                )
                t0 = perf_counter()
                acc.add(f"c{index}", keys_fixed, HistogramAccumulator.GROUP_FIXED)
                acc.add(f"c{index}", keys_random, HistogramAccumulator.GROUP_RANDOM)
                stage["histogram"] += perf_counter() - t0

            for i, j in pairs:
                bits_i = all_classes[i].observation_bits
                bits_j = all_classes[j].observation_bits
                for delta in offsets:
                    keys_fixed = self._combine(
                        raw(raw_fixed, bits_fixed, trace_fixed,
                            all_classes[i], 0),
                        raw(raw_fixed, bits_fixed, trace_fixed,
                            all_classes[j], delta),
                        bits_i,
                        bits_j,
                    )
                    keys_random = self._combine(
                        raw(raw_random, bits_random, trace_random,
                            all_classes[i], 0),
                        raw(raw_random, bits_random, trace_random,
                            all_classes[j], delta),
                        bits_i,
                        bits_j,
                    )
                    table_id = f"p{i}:{j}:{delta}"
                    t0 = perf_counter()
                    acc.add(
                        table_id, keys_fixed, HistogramAccumulator.GROUP_FIXED
                    )
                    acc.add(
                        table_id, keys_random, HistogramAccumulator.GROUP_RANDOM
                    )
                    stage["histogram"] += perf_counter() - t0

    # ------------------------------------------------------ in-kernel blocks

    def _pipeline_supported(self) -> bool:
        """True when the in-kernel pipeline can run for this evaluator."""
        if self.engine != "native":
            return False
        try:
            from repro.netlist.native import pipeline_available
        except ImportError:
            return False
        return pipeline_available()

    def _pipeline_block(
        self,
        acc: HistogramAccumulator,
        fixed_secret: int,
        lane_count: int,
        block: int,
        n_cycles: int,
        record_cycles: set,
        keep_nets: Sequence[int],
        record_nets: Sequence[int],
        class_indices: Sequence[int],
        tests,
        sims: Dict[int, object],
    ) -> None:
        """One sampling block entirely in the native kernel.

        The stimulus plan is handed to C with its PCG64 snapshot (same
        stream as the python interpreter would consume; see
        ``repro.leakage.stimplan``), and the returned dense count tables
        fold into ``acc`` via :meth:`HistogramAccumulator.add_counts` --
        the accumulated tables are identical to the python path's.
        ``sims`` caches simulators by lane count (run_pipeline is
        stateless); raises :class:`SimulationError` for the caller to
        degrade on.
        """
        stage = self.stage_seconds
        sim = sims.get(lane_count)
        if sim is None:
            sim = self._make_simulator(
                lane_count, keep_nets, record_nets=record_nets
            )
            if not hasattr(sim, "run_pipeline"):
                raise SimulationError(
                    "resolved engine lacks the in-kernel pipeline"
                )
            sims[lane_count] = sim
        generator = StimulusGenerator(self.dut, (lane_count + 63) // 64)
        for group, plan in (
            (
                HistogramAccumulator.GROUP_FIXED,
                generator.fixed(
                    fixed_secret,
                    self._block_rng(
                        HistogramAccumulator.GROUP_FIXED, block
                    ),
                ),
            ),
            (
                HistogramAccumulator.GROUP_RANDOM,
                generator.random(
                    self._block_rng(
                        HistogramAccumulator.GROUP_RANDOM, block
                    )
                ),
            ),
        ):
            counts, timings = sim.run_pipeline(
                plan, n_cycles, record_nets, record_cycles,
                tests, self.hash_bits,
            )
            for name, seconds in timings.items():
                stage[name] += seconds
            t0 = perf_counter()
            for index, row in zip(class_indices, counts):
                acc.add_counts(f"c{index}", row, group)
            stage["histogram"] += perf_counter() - t0

    # ----------------------------------------------------------- first order

    def first_order_report(
        self,
        acc: HistogramAccumulator,
        fixed_secret: int,
        n_samples: int,
        threshold: float = DEFAULT_THRESHOLD,
        classes: Optional[List[ProbeClass]] = None,
        status: str = "complete",
    ) -> LeakageReport:
        """G-test every accumulated probe-class table into a report."""
        classes = classes if classes is not None else self.probe_classes
        netlist = self.dut.netlist
        report = self._new_report(fixed_secret, n_samples, threshold, status)
        for index, probe_class in enumerate(classes):
            outcome = acc.test(f"c{index}")
            report.results.append(
                ProbeResult(
                    probe_names=probe_class.member_names(netlist),
                    support_names=tuple(probe_class.support_names(netlist)),
                    n_samples=outcome.n_fixed + outcome.n_random,
                    g_statistic=outcome.g_statistic,
                    dof=outcome.dof,
                    mlog10p=outcome.mlog10p,
                    leaking=outcome.is_leaking(threshold),
                )
            )
        return report

    def evaluate(
        self,
        fixed_secret: int = 0,
        n_simulations: int = 100_000,
        n_windows: int = 1,
        threshold: float = DEFAULT_THRESHOLD,
        probe_classes: Optional[List[ProbeClass]] = None,
    ) -> LeakageReport:
        """Run the first-order fixed-vs-random test and return a report.

        ``n_simulations`` is the per-group sample count; it is split into
        ``n_windows`` observation windows over ``n_simulations / n_windows``
        lanes.
        """
        n_lanes = self.n_lanes_for(n_simulations, n_windows)
        acc = HistogramAccumulator()
        self.accumulate(
            acc, fixed_secret, n_lanes, n_windows, classes=probe_classes
        )
        return self.first_order_report(
            acc,
            fixed_secret,
            n_lanes * n_windows,
            threshold,
            classes=probe_classes,
        )

    # ---------------------------------------------------------- second order

    def select_pairs(
        self, max_pairs: Optional[int] = None, pair_seed: int = 1
    ) -> List[Tuple[int, int]]:
        """Deterministic (sub)set of unordered probe-class index pairs."""
        pairs = list(itertools.combinations(range(len(self.probe_classes)), 2))
        if max_pairs is not None and len(pairs) > max_pairs:
            rng = np.random.default_rng(pair_seed)
            chosen = rng.choice(len(pairs), size=max_pairs, replace=False)
            pairs = [pairs[i] for i in sorted(chosen)]
        return pairs

    def _pair_schedule(
        self, n_windows: int, pair_offsets: Sequence[int]
    ) -> Tuple[List[int], List[int], int, set]:
        offsets = sorted(set(pair_offsets))
        if offsets and min(offsets) < 0:
            raise SimulationError("pair offsets must be non-negative")
        eval_cycles, n_cycles = self._schedule(
            n_windows, margin=max(offsets, default=0)
        )
        record_cycles = set()
        for delta in offsets:
            record_cycles |= self._record_cycles(
                [t - delta for t in eval_cycles]
            )
        record_cycles |= self._record_cycles(eval_cycles)
        return offsets, eval_cycles, n_cycles, record_cycles

    def accumulate_pairs(
        self,
        acc: HistogramAccumulator,
        fixed_secret: int,
        n_lanes: int,
        n_windows: int,
        pairs: Sequence[Tuple[int, int]],
        pair_offsets: Sequence[int] = (0,),
        blocks: Optional[Iterable[int]] = None,
    ) -> None:
        """Simulate blocks and fold joint pair observations into ``acc``.

        Table ids are ``p<i>:<j>:<delta>``; the second probe of a pair is
        placed ``delta`` cycles earlier than the first.
        """
        self.accumulate(
            acc,
            fixed_secret,
            n_lanes,
            n_windows,
            classes=(),
            pairs=pairs,
            pair_offsets=pair_offsets,
            blocks=blocks,
        )

    def pairs_report(
        self,
        acc: HistogramAccumulator,
        fixed_secret: int,
        n_samples: int,
        pairs: Sequence[Tuple[int, int]],
        pair_offsets: Sequence[int] = (0,),
        threshold: float = DEFAULT_THRESHOLD,
        status: str = "complete",
    ) -> LeakageReport:
        """G-test every accumulated pair table into a report."""
        offsets = sorted(set(pair_offsets))
        classes = self.probe_classes
        netlist = self.dut.netlist
        report = self._new_report(fixed_secret, n_samples, threshold, status)
        for i, j in pairs:
            for delta in offsets:
                outcome = acc.test(f"p{i}:{j}:{delta}")
                suffix = f" @-{delta}" if delta else ""
                report.results.append(
                    ProbeResult(
                        probe_names=(
                            classes[i].member_names(netlist, limit=1)
                            + " x "
                            + classes[j].member_names(netlist, limit=1)
                            + suffix
                        ),
                        support_names=(),
                        n_samples=outcome.n_fixed + outcome.n_random,
                        g_statistic=outcome.g_statistic,
                        dof=outcome.dof,
                        mlog10p=outcome.mlog10p,
                        leaking=outcome.is_leaking(threshold),
                    )
                )
        return report

    def evaluate_pairs(
        self,
        fixed_secret: int = 0,
        n_simulations: int = 100_000,
        n_windows: int = 1,
        threshold: float = DEFAULT_THRESHOLD,
        max_pairs: Optional[int] = None,
        pair_seed: int = 1,
        pair_offsets: Sequence[int] = (0,),
    ) -> LeakageReport:
        """Second-order (bivariate) evaluation over pairs of probe classes.

        Tests the joint observation of every unordered pair of probe classes
        (optionally a deterministic random subset of ``max_pairs``), which is
        how PROLEAD's multivariate mode detects second-order leakage in the
        3-share Kronecker design.  ``pair_offsets`` places the second probe
        of a pair those many cycles *earlier* than the first, covering
        multivariate leakage across clock cycles (offset 0 is the univariate
        same-cycle case).
        """
        n_lanes = self.n_lanes_for(n_simulations, n_windows)
        pairs = self.select_pairs(max_pairs, pair_seed)
        acc = HistogramAccumulator()
        self.accumulate_pairs(
            acc, fixed_secret, n_lanes, n_windows, pairs, pair_offsets
        )
        return self.pairs_report(
            acc,
            fixed_secret,
            n_lanes * n_windows,
            pairs,
            pair_offsets,
            threshold,
        )

    def batched_report(
        self,
        acc: HistogramAccumulator,
        fixed_secret: int,
        n_samples: int,
        pairs: Sequence[Tuple[int, int]],
        pair_offsets: Sequence[int] = (0,),
        threshold: float = DEFAULT_THRESHOLD,
        status: str = "complete",
        classes: Optional[List[ProbeClass]] = None,
    ) -> LeakageReport:
        """Report over a batched accumulation: first-order then pair rows."""
        report = self.first_order_report(
            acc, fixed_secret, n_samples, threshold, classes=classes,
            status=status,
        )
        pair_report = self.pairs_report(
            acc, fixed_secret, n_samples, pairs, pair_offsets, threshold,
            status=status,
        )
        report.results.extend(pair_report.results)
        return report

    def _combine(
        self,
        keys_a: np.ndarray,
        keys_b: np.ndarray,
        bits_a: int,
        bits_b: int,
    ) -> np.ndarray:
        """Joint observation key of two probes, bucketed as needed."""
        total_bits = bits_a + bits_b
        if total_bits <= 63:
            joint = keys_a | (keys_b << np.uint64(bits_a))
        else:
            # Injective packing impossible; mix both into one word.  Hash
            # collisions only ever merge table cells (conservative).
            joint = _mix_hash(keys_a) ^ (
                _mix_hash(keys_b ^ np.uint64(0xA5A5A5A5A5A5A5A5))
            )
        return self._bucket(joint, total_bits)

    # -------------------------------------------------------------- helpers

    def _new_report(
        self,
        fixed_secret: int,
        n_samples: int,
        threshold: float,
        status: str = "complete",
    ) -> LeakageReport:
        netlist = self.dut.netlist
        return LeakageReport(
            design=self.dut.describe(),
            model=self.model.description,
            fixed_secret=fixed_secret,
            n_simulations=n_samples,
            threshold=threshold,
            skipped_probes=[
                pc.member_names(netlist) for pc in self.skipped_classes
            ],
            skipped_detail=self.skipped_detail(),
            status=status,
        )

    def skipped_detail(self) -> List[Dict]:
        """Budget detail for every probe class excluded from evaluation.

        One ``{"probe", "support_bits", "observation_bits", "budget"}``
        entry per skipped class, so reports and telemetry can say *how
        far* each probe is beyond ``max_support_bits`` instead of only
        counting them.
        """
        netlist = self.dut.netlist
        return [
            {
                "probe": pc.member_names(netlist),
                "support_bits": len(pc.support),
                "observation_bits": pc.observation_bits,
                "budget": self.max_support_bits,
            }
            for pc in self.skipped_classes
        ]

    def probe_class_for_net(self, net: int) -> ProbeClass:
        """Find the probe class containing a given net."""
        for probe_class in self.probe_classes:
            if net in probe_class.members:
                return probe_class
        for probe_class in self.skipped_classes:
            if net in probe_class.members:
                raise SimulationError(
                    "probe class for net was skipped (support too wide)"
                )
        raise SimulationError(f"no probe class contains net {net}")
