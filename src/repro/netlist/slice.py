"""Probe-driven fan-in slicing of netlists and compiled gate programs.

Probing-model evaluations only ever *read* the stable support nets of their
probe classes, yet the simulators execute the entire design every cycle.
This module computes the **sequential fan-in cone** of an arbitrary net set
-- the transitive closure of drivers through registers, across cycles -- and
slices a compiled :class:`~repro.netlist.compile.GateProgram` down to it:

* dead vectorized dispatches are dropped entirely (a dispatch keeps only
  the cells whose outputs are in the cone);
* dead state rows are compacted away (the ``(n_nets, n_words)`` state
  matrix shrinks to ``(n_live, n_words)``), with a net-index remap kept on
  the program so :class:`~repro.netlist.simulate.Trace` extraction and
  histogram table ids are unchanged;
* slices are content-hash cached alongside full programs in the bounded
  program cache, keyed by (netlist hash, cone digest);
* per-cycle *scheduled* cones (:func:`scheduled_cone`) are lowered once
  into a :class:`ScheduledProgram`, cached in the same LRU, which both the
  numpy :class:`ScheduledSimulator` and the native scheduled interpreter
  execute.

Because the cone is closed under fan-in, every live net computes exactly
the same uint64 words as in the full program -- sliced evaluation is
**bit-identical**, only faster, by roughly the full/cone cell ratio (the
E11 whole-core workload probes one S-box inside a ~21k-cell AES core and
simulates ~16x fewer cells).  This mirrors how PROLEAD's glitch-extended
probe sets and aLEAKator's verification slices confine analysis to the
relevant part of the design.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import NetlistError, SimulationError
from repro.netlist.cells import CellType
from repro.netlist.compile import (
    GateOp,
    GateProgram,
    compile_netlist,
    netlist_content_hash,
    program_cache_get,
    program_cache_put,
)
from repro.netlist.core import Netlist

#: Memoized cones, keyed by (netlist content hash, root-set digest).
_CONE_MEMO: "OrderedDict[Tuple[str, str], FrozenSet[int]]" = OrderedDict()
_CONE_MEMO_SIZE = 64

#: Memoized per-cycle cones, keyed by (netlist hash, parameter digest).
_SCHEDULED_MEMO: (
    "OrderedDict[Tuple[str, str], Tuple[FrozenSet[int], ...]]"
) = OrderedDict()
_SCHEDULED_MEMO_SIZE = 16

#: Memoized flat driver tables, keyed by netlist content hash.
_ARRAYS_MEMO: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
_ARRAYS_MEMO_SIZE = 8

#: Net-kind codes used by the vectorized traversals.
_KIND_INPUT = 0
_KIND_DFF = 1
_KIND_CONST0 = 2
_KIND_CONST1 = 3
_KIND_MUX = 4
_KIND_COMB = 5
_KIND_NONE = 6

#: Stable per-CellType dispatch order (0 is reserved for folded copies).
_CTYPE_LIST: List[CellType] = list(CellType)
_CTYPE_ORDER: Dict[CellType, int] = {
    ct: i + 1 for i, ct in enumerate(_CTYPE_LIST)
}


def _driver_arrays(netlist: Netlist) -> Dict[str, object]:
    """Flat per-net driver tables for vectorized cone traversal.

    For every net: its driver kind code, the driver's input nets padded to
    arity 3 with ``-1`` (``in0`` holds D for registers), its register index
    (enumeration order of :meth:`Netlist.dff_cells`), its CellType order
    code and its combinational level.  Memoized per netlist content hash --
    both :func:`scheduled_cone` and :class:`ScheduledSimulator` index these
    arrays with whole net-set arrays instead of walking Python cell objects.
    """
    key = netlist_content_hash(netlist)
    cached = _ARRAYS_MEMO.get(key)
    if cached is not None:
        _ARRAYS_MEMO.move_to_end(key)
        return cached
    from repro.netlist.topo import levelize

    n = netlist.n_nets
    kind = np.full(n, _KIND_NONE, dtype=np.int8)
    ctype = np.full(n, -1, dtype=np.int16)
    in0 = np.full(n, -1, dtype=np.intp)
    in1 = np.full(n, -1, dtype=np.intp)
    in2 = np.full(n, -1, dtype=np.intp)
    dff_index = np.full(n, -1, dtype=np.intp)
    if netlist.inputs:
        kind[np.asarray(netlist.inputs, dtype=np.intp)] = _KIND_INPUT
    n_dffs = 0
    for cell in netlist.cells:
        out = cell.output
        cell_type = cell.cell_type
        if cell_type is CellType.DFF:
            kind[out] = _KIND_DFF
            dff_index[out] = n_dffs
            in0[out] = cell.inputs[0]
            n_dffs += 1
            continue
        if cell_type is CellType.CONST0:
            kind[out] = _KIND_CONST0
            continue
        if cell_type is CellType.CONST1:
            kind[out] = _KIND_CONST1
            continue
        kind[out] = (
            _KIND_MUX if cell_type is CellType.MUX else _KIND_COMB
        )
        ctype[out] = _CTYPE_ORDER[cell_type]
        inputs = cell.inputs
        in0[out] = inputs[0]
        if len(inputs) > 1:
            in1[out] = inputs[1]
        if len(inputs) > 2:
            in2[out] = inputs[2]

    order = levelize(netlist)
    level_list = [0] * n
    for cell in order:
        if cell.cell_type in (CellType.CONST0, CellType.CONST1):
            continue
        best = 0
        for src in cell.inputs:
            if level_list[src] > best:
                best = level_list[src]
        level_list[cell.output] = best + 1

    arrays: Dict[str, object] = {
        "kind": kind,
        "ctype": ctype,
        "in0": in0,
        "in1": in1,
        "in2": in2,
        "dff_index": dff_index,
        "level": np.asarray(level_list, dtype=np.int64),
        "n_dffs": n_dffs,
        "n_comb_cells": len(order),
    }
    _ARRAYS_MEMO[key] = arrays
    while len(_ARRAYS_MEMO) > _ARRAYS_MEMO_SIZE:
        _ARRAYS_MEMO.popitem(last=False)
    return arrays


def _schedule_table(
    netlist: Netlist,
    values: Mapping[int, Tuple[int, ...]],
    n_cycles: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Schedule as (per-net row index, (n_scheduled, n_cycles) bool matrix)."""
    sched_row = np.full(netlist.n_nets, -1, dtype=np.intp)
    nets = sorted(values)
    sched_bits = np.zeros((len(nets), n_cycles), dtype=bool)
    for i, net in enumerate(nets):
        sched_row[net] = i
        sched_bits[i] = np.asarray(values[net][:n_cycles], dtype=bool)
    return sched_row, sched_bits


def _digest_nets(nets: Iterable[int]) -> str:
    """Order-invariant SHA-256 of a net-index set."""
    text = ",".join(map(str, sorted(set(nets))))
    return hashlib.sha256(text.encode()).hexdigest()


def sequential_cone(netlist: Netlist, nets: Iterable[int]) -> FrozenSet[int]:
    """Transitive fan-in of ``nets``, through registers, across cycles.

    Generalizes :func:`repro.netlist.topo.combinational_cone`: instead of
    stopping at stable signals, the traversal crosses every register from
    its Q output to its D input, so the result is everything that can
    influence the given nets at *any* cycle.  The cone is inclusive of the
    roots and closed under fan-in: every input of every cell whose output
    is in the cone is in the cone too -- the property that makes simulating
    only the cone bit-identical for every net in it.
    """
    roots = list(set(nets))
    for net in roots:
        if not 0 <= net < netlist.n_nets:
            raise NetlistError(f"net index {net} out of range")
    key = (netlist_content_hash(netlist), _digest_nets(roots))
    cached = _CONE_MEMO.get(key)
    if cached is not None:
        _CONE_MEMO.move_to_end(key)
        return cached
    cone = set()
    stack = roots
    while stack:
        current = stack.pop()
        if current in cone:
            continue
        cone.add(current)
        driver = netlist.driver(current)
        if driver is None:
            continue
        stack.extend(driver.inputs)
    result = frozenset(cone)
    _CONE_MEMO[key] = result
    while len(_CONE_MEMO) > _CONE_MEMO_SIZE:
        _CONE_MEMO.popitem(last=False)
    return result


def clear_cone_memo() -> None:
    """Drop memoized sequential cones (test isolation helper)."""
    _CONE_MEMO.clear()
    _SCHEDULED_MEMO.clear()


def _validate_schedule(
    netlist: Netlist,
    schedule: Mapping[int, Sequence[int]],
    n_cycles: int,
) -> Dict[int, Tuple[int, ...]]:
    """Check a control schedule and normalize it to int tuples."""
    inputs = set(netlist.inputs)
    normalized: Dict[int, Tuple[int, ...]] = {}
    for net, bits in schedule.items():
        if net not in inputs:
            raise NetlistError(
                f"scheduled net {net} is not a primary input"
            )
        values = tuple(int(b) for b in bits)
        if len(values) < n_cycles:
            raise NetlistError(
                f"schedule for net {net} covers {len(values)} cycles, "
                f"need {n_cycles}"
            )
        if any(v not in (0, 1) for v in values):
            raise NetlistError(f"schedule for net {net} has non-bit values")
        normalized[net] = values
    return normalized


def _schedule_digest(
    roots: Sequence[int],
    cycles: Sequence[int],
    n_cycles: int,
    values: Mapping[int, Tuple[int, ...]],
) -> str:
    """SHA-256 of a scheduled cone's parameters (sorted roots/cycles)."""
    digest = hashlib.sha256()
    digest.update(_digest_nets(roots).encode())
    digest.update(repr((cycles, n_cycles, sorted(values.items()))).encode())
    return digest.hexdigest()


def scheduled_cone(
    netlist: Netlist,
    nets: Iterable[int],
    record_cycles: Iterable[int],
    n_cycles: int,
    schedule: Mapping[int, Sequence[int]],
) -> Tuple[FrozenSet[int], ...]:
    """Per-cycle fan-in cones under a known public control schedule.

    :func:`sequential_cone` is cycle-agnostic: in a recirculating design
    (a cipher core whose state registers feed themselves through
    load/capture muxes) the static cone reaches essentially the whole
    netlist, and slicing buys nothing.  But protocol-driven designs fix
    the values of their control inputs per cycle -- and a MUX whose
    select is a *scheduled* control only ever propagates its selected
    branch.  This traversal walks backward over ``(net, cycle)`` pairs
    from the roots at each record cycle, crossing each register from Q at
    cycle ``t`` to D at ``t - 1`` and, at a scheduled MUX, following only
    the branch selected at that cycle.  Feedback paths through de-selected
    mux branches are cut exactly, so round-1 observations of a cipher core
    reach back only to the load cycle instead of the whole design.

    Returns one frozenset of needed nets per cycle (length ``n_cycles``).
    Scheduled nets must be primary inputs driven with the declared scalar
    value on every lane; both scheduled executors verify this at run
    time (:meth:`ScheduledProgram.check_cycle`), which makes sliced
    execution bit-identical (the bitsliced constant encoding fills all 64
    bits of each word, so the de-selected branch is masked out entirely).
    """
    roots = sorted(set(nets))
    for net in roots:
        if not 0 <= net < netlist.n_nets:
            raise NetlistError(f"net index {net} out of range")
    if n_cycles <= 0:
        raise NetlistError("n_cycles must be positive")
    cycles = sorted(set(int(t) for t in record_cycles))
    if not cycles:
        raise NetlistError("at least one record cycle is required")
    if cycles[0] < 0 or cycles[-1] >= n_cycles:
        raise NetlistError(
            f"record cycles {cycles[0]}..{cycles[-1]} outside "
            f"[0, {n_cycles})"
        )
    values = _validate_schedule(netlist, schedule, n_cycles)

    key = (
        netlist_content_hash(netlist),
        _schedule_digest(roots, cycles, n_cycles, values),
    )
    cached = _SCHEDULED_MEMO.get(key)
    if cached is not None:
        _SCHEDULED_MEMO.move_to_end(key)
        return cached

    # Frontier-vectorized traversal: registers are the only edges that
    # cross cycles (Q at t -> D at t-1), so cycles can be processed
    # latest-first, expanding each cycle's within-cycle closure with whole
    # frontier arrays instead of one (net, cycle) pair at a time.
    arrays = _driver_arrays(netlist)
    kind = arrays["kind"]
    in0, in1, in2 = arrays["in0"], arrays["in1"], arrays["in2"]
    sched_row, sched_bits = _schedule_table(netlist, values, n_cycles)
    needed_mask = np.zeros((n_cycles, netlist.n_nets), dtype=bool)
    root_array = np.asarray(roots, dtype=np.intp)
    seeds: List[List[np.ndarray]] = [[] for _ in range(n_cycles)]
    for t in cycles:
        seeds[t].append(root_array)
    for t in range(n_cycles - 1, -1, -1):
        if not seeds[t]:
            continue
        mask = needed_mask[t]
        frontier = np.unique(np.concatenate(seeds[t]))
        frontier = frontier[~mask[frontier]]
        while frontier.size:
            mask[frontier] = True
            kinds = kind[frontier]
            if t > 0:
                dff_nets = frontier[kinds == _KIND_DFF]
                if dff_nets.size:
                    seeds[t - 1].append(in0[dff_nets])
            parts: List[np.ndarray] = []
            mux_nets = frontier[kinds == _KIND_MUX]
            if mux_nets.size:
                rows = sched_row[in0[mux_nets]]
                scheduled = rows >= 0
                folded = mux_nets[scheduled]
                if folded.size:
                    select = sched_bits[rows[scheduled], t]
                    parts.append(
                        np.where(select, in2[folded], in1[folded])
                    )
                free = mux_nets[~scheduled]
                if free.size:
                    parts.extend((in0[free], in1[free], in2[free]))
            comb_nets = frontier[kinds == _KIND_COMB]
            if comb_nets.size:
                for table in (in0, in1, in2):
                    sources = table[comb_nets]
                    parts.append(sources[sources >= 0])
            if not parts:
                break
            candidates = np.unique(np.concatenate(parts))
            frontier = candidates[~mask[candidates]]

    result = tuple(
        frozenset(map(int, np.flatnonzero(needed_mask[t])))
        for t in range(n_cycles)
    )
    _SCHEDULED_MEMO[key] = result
    while len(_SCHEDULED_MEMO) > _SCHEDULED_MEMO_SIZE:
        _SCHEDULED_MEMO.popitem(last=False)
    return result


def slice_key(netlist: Netlist, nets: Iterable[int]) -> str:
    """Cache/identity key of the slice induced by ``nets``.

    Two selections with the same sequential cone share one sliced program
    (and one key): the adaptive scheduler may prune probes without changing
    the cone, in which case nothing is recompiled and telemetry reports no
    re-slice.
    """
    cone = sequential_cone(netlist, nets)
    return f"{netlist_content_hash(netlist)}:slice:{_digest_nets(cone)}"


@dataclass(frozen=True)
class SliceStats:
    """Size of a slice relative to its full program (for telemetry)."""

    n_cells_full: int
    n_cells: int
    n_dispatches_full: int
    n_dispatches: int
    n_state_full: int
    n_state: int
    n_dffs_full: int
    n_dffs: int

    @property
    def cell_ratio(self) -> float:
        """Full/slice combinational-cell ratio (>= 1)."""
        return self.n_cells_full / max(1, self.n_cells)

    @property
    def dispatch_ratio(self) -> float:
        """Full/slice vectorized-dispatch ratio (>= 1)."""
        return self.n_dispatches_full / max(1, self.n_dispatches)

    @property
    def state_ratio(self) -> float:
        """Full/slice state-row ratio (>= 1)."""
        return self.n_state_full / max(1, self.n_state)

    def to_dict(self) -> Dict[str, float]:
        """JSON-safe form, ratios included."""
        return {
            "cells_full": self.n_cells_full,
            "cells": self.n_cells,
            "cell_ratio": round(self.cell_ratio, 3),
            "dispatches_full": self.n_dispatches_full,
            "dispatches": self.n_dispatches,
            "dispatch_ratio": round(self.dispatch_ratio, 3),
            "state_full": self.n_state_full,
            "state": self.n_state,
            "state_ratio": round(self.state_ratio, 3),
            "dffs_full": self.n_dffs_full,
            "dffs": self.n_dffs,
        }


def slice_stats(netlist: Netlist, nets: Iterable[int]) -> SliceStats:
    """Size of the slice induced by ``nets`` vs. the full program."""
    full = compile_netlist(netlist)
    sliced = slice_program(netlist, nets)
    return SliceStats(
        n_cells_full=full.n_comb_cells,
        n_cells=sliced.n_comb_cells,
        n_dispatches_full=full.n_dispatches,
        n_dispatches=sliced.n_dispatches,
        n_state_full=full.n_state_rows,
        n_state=sliced.n_state_rows,
        n_dffs_full=int(full.dff_q.size),
        n_dffs=int(sliced.dff_q.size),
    )


def slice_program(
    netlist: Netlist,
    keep_nets: Iterable[int],
    use_cache: bool = True,
) -> GateProgram:
    """Slice the netlist's compiled program to the cone of ``keep_nets``.

    The returned program executes only the cells whose outputs lie in
    ``sequential_cone(netlist, keep_nets)`` and allocates state rows only
    for cone nets; its ``net_map`` translates original net ids so recorded
    traces keep original net keys.  Slices share the bounded program cache
    with full programs under :func:`slice_key`.
    """
    keep_list = list(keep_nets)
    cone = sequential_cone(netlist, keep_list)
    key = f"{netlist_content_hash(netlist)}:slice:{_digest_nets(cone)}"
    if use_cache:
        cached = program_cache_get(key)
        if cached is not None:
            return cached

    full = compile_netlist(netlist, use_cache=use_cache)
    live = np.fromiter(sorted(cone), dtype=np.intp, count=len(cone))
    net_map = np.full(full.n_nets, -1, dtype=np.intp)
    net_map[live] = np.arange(live.size, dtype=np.intp)

    ops = []
    for op in full.ops:
        mask = net_map[op.out] >= 0
        if not mask.any():
            continue
        if mask.all():
            mask = slice(None)
        ops.append(
            GateOp(
                cell_type=op.cell_type,
                out=net_map[op.out[mask]],
                in0=net_map[op.in0[mask]],
                in1=net_map[op.in1[mask]] if op.in1.size else op.in1,
                in2=net_map[op.in2[mask]] if op.in2.size else op.in2,
            )
        )
    dff_mask = net_map[full.dff_q] >= 0
    program = GateProgram(
        content_hash=key,
        n_nets=full.n_nets,
        input_nets=tuple(pi for pi in full.input_nets if pi in cone),
        ops=tuple(ops),
        const0=net_map[full.const0[net_map[full.const0] >= 0]],
        const1=net_map[full.const1[net_map[full.const1] >= 0]],
        dff_d=net_map[full.dff_d[dff_mask]],
        dff_q=net_map[full.dff_q[dff_mask]],
        n_levels=full.n_levels,
        n_state=int(live.size),
        net_map=net_map,
    )
    if use_cache:
        program_cache_put(key, program)
    return program


#: Gate op codes of a scheduled program, in ``repro_sched_run``'s switch
#: order; a scheduled mux folded into a copy of its branch is a BUF.
_OP_CELLS: Tuple[CellType, ...] = (
    CellType.BUF, CellType.NOT, CellType.AND, CellType.NAND, CellType.OR,
    CellType.NOR, CellType.XOR, CellType.XNOR, CellType.MUX,
)
_OP_MUX = _OP_CELLS.index(CellType.MUX)

#: Dispatch order code (``_CTYPE_ORDER``, 0 = folded copy) -> op code.
_OP_OF_ORDER = np.asarray(
    [0] + [
        _OP_CELLS.index(ct) if ct in _OP_CELLS else -1
        for ct in _CTYPE_LIST
    ],
    dtype=np.int64,
)

#: numpy evaluation of each op code over the state matrix ``s``.
_OP_EVAL = (
    lambda s, a, b, c: s[a],
    lambda s, a, b, c: ~s[a],
    lambda s, a, b, c: s[a] & s[b],
    lambda s, a, b, c: ~(s[a] & s[b]),
    lambda s, a, b, c: s[a] | s[b],
    lambda s, a, b, c: ~(s[a] | s[b]),
    lambda s, a, b, c: s[a] ^ s[b],
    lambda s, a, b, c: ~(s[a] ^ s[b]),
    lambda s, a, b, c: (s[b] & ~s[a]) | (s[c] & s[a]),
)

_FULL_WORD = np.uint64(0xFFFFFFFFFFFFFFFF)


@dataclass(frozen=True, eq=False)
class ScheduledProgram:
    """One lowering of a scheduled cone, read by both scheduled executors.

    Built by :func:`scheduled_program` once per (netlist, roots, record
    cycles, cycle count, schedule) and cached in the program LRU; it does
    not depend on the lane count, so every block width shares one entry.
    Per-cycle structures are flat integer arrays behind ``(n_cycles + 1)``
    offset arrays -- cycle ``t`` owns ``x[x_off[t]:x_off[t + 1]]`` -- and
    every array is read-only, because the cache shares them:

    * ``stim_nets`` -- the stimulus slots: every needed primary input and
      every scheduled net, sorted;
    * ``in_net`` / ``in_slot`` -- the needed inputs of each cycle;
    * ``chk_slot`` / ``chk_bit`` -- the scheduled nets checked each cycle
      against their declared bit;
    * ``rd_net`` / ``rd_reg`` -- register outputs restored before the
      cycle, ``cap_net`` / ``cap_reg`` -- register inputs captured after;
    * ``op_code`` / ``op_out`` / ``op_a`` / ``op_b`` / ``op_c`` -- the
      active cells, level-major, as ``_OP_CELLS`` codes with operand nets
      (0 where unused); dispatch group ``g`` (one level and cell type) is
      ``op_*[disp_start[g]:disp_start[g + 1]]`` and cycle ``t`` owns the
      groups ``disp_off[t]:disp_off[t + 1]``;
    * ``const1`` -- the constant-one nets.
    """

    n_nets: int
    n_dffs: int
    n_comb_cells: int
    n_cycles: int
    roots: Tuple[int, ...]
    record_cycles: Tuple[int, ...]
    stim_nets: np.ndarray
    in_off: np.ndarray
    in_slot: np.ndarray
    in_net: np.ndarray
    chk_off: np.ndarray
    chk_slot: np.ndarray
    chk_bit: np.ndarray
    rd_off: np.ndarray
    rd_net: np.ndarray
    rd_reg: np.ndarray
    cap_off: np.ndarray
    cap_net: np.ndarray
    cap_reg: np.ndarray
    op_off: np.ndarray
    op_code: np.ndarray
    op_out: np.ndarray
    op_a: np.ndarray
    op_b: np.ndarray
    op_c: np.ndarray
    disp_off: np.ndarray
    disp_start: np.ndarray
    const1: np.ndarray

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def stats(self) -> Dict[str, float]:
        """Active vs. full cell evaluations over the whole run."""
        full = self.n_comb_cells * self.n_cycles
        active = int(self.op_code.size)
        return {
            "cell_cycles_full": full,
            "cell_cycles": active,
            "cell_cycle_ratio": round(full / max(1, active), 3),
            "dispatches": int(self.disp_start.size) - 1,
            "n_cycles": self.n_cycles,
            "record_cycles": len(self.record_cycles),
        }

    def record_list(self, record_nets: Optional[Iterable[int]]) -> List[int]:
        """``record_nets`` (default: the roots), checked to be roots.

        The scheduled cone only guarantees values for the roots at the
        record cycles.
        """
        record = (
            list(self.roots) if record_nets is None else list(record_nets)
        )
        roots = set(self.roots)
        for net in record:
            if net not in roots:
                raise SimulationError(
                    f"net {net} is not a root of this scheduled slice"
                )
        return record

    def stimulus_cycle(
        self,
        netlist: Netlist,
        provided: Mapping[int, np.ndarray],
        cycle: int,
        row: np.ndarray,
    ) -> None:
        """Write one cycle's stimulus into ``row`` (one row per slot).

        Raises for a needed or scheduled input missing from ``provided``,
        a word vector whose shape is not ``(n_words,)``, and a scheduled
        net off its declared value (see :meth:`check_cycle`).
        """
        n_words = row.shape[1]
        lo, hi = self.in_off[cycle], self.in_off[cycle + 1]
        chk_lo, chk_hi = self.chk_off[cycle], self.chk_off[cycle + 1]
        chk_slot = self.chk_slot[chk_lo:chk_hi]
        for role, nets, slots in (
            ("primary", self.in_net[lo:hi], self.in_slot[lo:hi]),
            ("scheduled", self.stim_nets[chk_slot], chk_slot),
        ):
            for net, slot in zip(nets.tolist(), slots.tolist()):
                if net not in provided:
                    raise SimulationError(
                        f"stimulus missing {role} input "
                        f"{netlist.net_name(net)!r} at cycle {cycle}"
                    )
                words = np.asarray(provided[net], dtype=np.uint64)
                if words.shape != (n_words,):
                    raise SimulationError(
                        f"stimulus for {netlist.net_name(net)!r} has shape "
                        f"{words.shape}, expected ({n_words},)"
                    )
                row[slot] = words
        self.check_cycle(netlist, row, cycle)

    def check_cycle(
        self, netlist: Netlist, row: np.ndarray, cycle: int
    ) -> None:
        """Raise unless every scheduled slot of ``row`` holds its bit.

        A scheduled net must carry its declared constant on every lane
        (all 64 bits of every word): that is what makes executing only
        the selected mux branch bit-identical.
        """
        lo, hi = self.chk_off[cycle], self.chk_off[cycle + 1]
        bits = self.chk_bit[lo:hi]
        expected = np.where(bits, _FULL_WORD, np.uint64(0))
        words = row[self.chk_slot[lo:hi]]
        bad = np.flatnonzero((words != expected[:, None]).any(axis=1))
        if bad.size:
            index = int(bad[0])
            net = int(self.stim_nets[self.chk_slot[lo + index]])
            raise SimulationError(
                f"stimulus for scheduled net {netlist.net_name(net)!r} at "
                f"cycle {cycle} does not match its declared value "
                f"{int(bits[index])}"
            )


def _offsets(parts: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Per-part offsets and the concatenation of ``parts`` (int64)."""
    offsets = np.zeros(len(parts) + 1, dtype=np.int64)
    np.cumsum([part.size for part in parts], out=offsets[1:])
    return offsets, np.concatenate(parts).astype(np.int64)


def _lower_scheduled(
    netlist: Netlist,
    roots: List[int],
    cycles: List[int],
    n_cycles: int,
    values: Mapping[int, Tuple[int, ...]],
    needed: Sequence[FrozenSet[int]],
) -> ScheduledProgram:
    """Compile per-cycle needed-net sets into a :class:`ScheduledProgram`.

    Each cycle's active cells are sorted by (level, cell type) into
    dispatch groups -- ordering within a level is free, since same-level
    cells never feed each other -- and a mux whose select is scheduled is
    folded into a copy of its selected branch, sorted first within its
    level.
    """
    arrays = _driver_arrays(netlist)
    kind = arrays["kind"]
    ctype = arrays["ctype"]
    in0, in1, in2 = arrays["in0"], arrays["in1"], arrays["in2"]
    dff_index = arrays["dff_index"]
    level = arrays["level"]
    sched_row, sched_bits = _schedule_table(netlist, values, n_cycles)
    needed_arrays = [
        np.sort(np.fromiter(per, dtype=np.int64, count=len(per)))
        for per in needed
    ]

    inputs, reads, captures, const1 = [], [], [], []
    codes, outs, srcs, group_starts = [], [], [], []
    n_ops = 0
    for t, nets in enumerate(needed_arrays):
        kinds = kind[nets]
        inputs.append(nets[kinds == _KIND_INPUT])
        reads.append(nets[kinds == _KIND_DFF])
        const1.append(nets[kinds == _KIND_CONST1])
        upcoming = needed_arrays[t + 1] if t + 1 < n_cycles else nets[:0]
        captures.append(upcoming[kind[upcoming] == _KIND_DFF])
        mux = nets[kinds == _KIND_MUX]
        rows = sched_row[in0[mux]]
        folded = mux[rows >= 0]
        active = np.concatenate(
            [nets[kinds == _KIND_COMB], mux[rows < 0]]
        )
        out = np.concatenate([folded, active])
        src = np.concatenate([
            np.where(
                sched_bits[rows[rows >= 0], t], in2[folded], in1[folded]
            ),
            in0[active],
        ])
        composite = level[out] * 64 + np.concatenate([
            np.zeros(folded.size, dtype=np.int64),
            ctype[active].astype(np.int64),
        ])
        order = np.argsort(composite, kind="stable")
        composite = composite[order]
        codes.append(_OP_OF_ORDER[composite % 64])
        outs.append(out[order])
        srcs.append(src[order])
        group_starts.append(
            n_ops + np.flatnonzero(np.diff(composite, prepend=-1))
        )
        n_ops += int(composite.size)

    in_off, in_net = _offsets(inputs)
    stim_nets = np.unique(
        np.concatenate([in_net, np.asarray(sorted(values), np.int64)])
    )
    rd_off, rd_net = _offsets(reads)
    cap_off, cap_q = _offsets(captures)
    op_off, op_code = _offsets(codes)
    op_out = np.concatenate(outs).astype(np.int64)
    disp_off, disp_start = _offsets(group_starts)
    n_sched = len(values)
    sched_slots = np.searchsorted(
        stim_nets, np.asarray(sorted(values), dtype=np.int64)
    )
    return ScheduledProgram(
        n_nets=netlist.n_nets,
        n_dffs=arrays["n_dffs"],
        n_comb_cells=arrays["n_comb_cells"],
        n_cycles=n_cycles,
        roots=tuple(roots),
        record_cycles=tuple(cycles),
        stim_nets=stim_nets,
        in_off=in_off,
        in_slot=np.searchsorted(stim_nets, in_net).astype(np.int64),
        in_net=in_net,
        chk_off=np.arange(n_cycles + 1, dtype=np.int64) * n_sched,
        chk_slot=np.tile(sched_slots, n_cycles).astype(np.int64),
        chk_bit=sched_bits.T.astype(np.uint8).ravel(),
        rd_off=rd_off,
        rd_net=rd_net,
        rd_reg=dff_index[rd_net].astype(np.int64),
        cap_off=cap_off,
        cap_net=in0[cap_q].astype(np.int64),
        cap_reg=dff_index[cap_q].astype(np.int64),
        op_off=op_off,
        op_code=op_code,
        op_out=op_out,
        op_a=np.concatenate(srcs).astype(np.int64),
        op_b=np.where(op_code >= 2, in1[op_out], 0).astype(np.int64),
        op_c=np.where(op_code == _OP_MUX, in2[op_out], 0).astype(np.int64),
        disp_off=disp_off,
        disp_start=np.append(disp_start, n_ops).astype(np.int64),
        const1=np.unique(np.concatenate(const1)).astype(np.int64),
    )


def scheduled_program(
    netlist: Netlist,
    roots: Iterable[int],
    record_cycles: Iterable[int],
    n_cycles: int,
    schedule: Mapping[int, Sequence[int]],
) -> ScheduledProgram:
    """The cached :class:`ScheduledProgram` of :func:`scheduled_cone`.

    Shares the bounded program LRU with full and sliced programs, keyed
    by netlist content hash plus the cone parameters (never the lane
    count); a hit runs neither the cone traversal nor the lowering.
    """
    root_list = sorted(set(roots))
    cycles = sorted(set(int(t) for t in record_cycles))
    values = _validate_schedule(netlist, schedule, n_cycles)
    digest = _schedule_digest(root_list, cycles, n_cycles, values)
    key = f"{netlist_content_hash(netlist)}:sched:{digest}"
    cached = program_cache_get(key)
    if cached is not None:
        return cached
    needed = scheduled_cone(netlist, root_list, cycles, n_cycles, schedule)
    program = _lower_scheduled(
        netlist, root_list, cycles, n_cycles, values, needed
    )
    program_cache_put(key, program)
    return program


class ScheduledSimulator:
    """Bitsliced simulation restricted to per-cycle scheduled cones.

    Executes, at each cycle, only the cells whose outputs
    :func:`scheduled_cone` proved necessary to reproduce the root nets at
    the record cycles -- in a protocol-driven design with recirculating
    registers this skips nearly every cell on nearly every cycle, where
    the static :func:`sequential_cone` would retain the whole netlist.

    The numpy executor of a :class:`ScheduledProgram`: one vectorized
    dispatch per (cycle, level, cell type) over an ``(n_nets, n_words)``
    state matrix, exactly like
    :class:`~repro.netlist.compile.CompiledSimulator`.  Every stimulus
    word driven on a scheduled net is verified against the declared
    schedule (all lanes, all 64 bits of each word), so the result is
    bit-identical to the full simulation at every recorded (net, cycle)
    pair -- a wrong schedule raises instead of silently diverging.
    """

    def __init__(
        self,
        netlist: Netlist,
        n_lanes: int,
        roots: Iterable[int],
        record_cycles: Iterable[int],
        n_cycles: int,
        schedule: Mapping[int, Sequence[int]],
    ):
        from repro.netlist.simulate import words_for_lanes

        if n_lanes <= 0:
            raise SimulationError("n_lanes must be positive")
        self.program = scheduled_program(
            netlist, roots, record_cycles, n_cycles, schedule
        )
        self.netlist = netlist
        self.n_lanes = n_lanes
        self.n_words = words_for_lanes(n_lanes)
        self.n_cycles = n_cycles
        self.roots = list(self.program.roots)
        self.record_cycles = list(self.program.record_cycles)

    def stats(self) -> Dict[str, float]:
        """Active vs. full cell evaluations over the whole run."""
        return self.program.stats()

    def run(self, stimulus, record_nets: Optional[Iterable[int]] = None):
        """Simulate and record ``record_nets`` at the record cycles.

        ``record_nets`` defaults to the cone roots and must be a subset of
        them.  The stimulus must drive every needed primary input, with
        each scheduled net held at its declared per-cycle constant.  The
        simulator carries no mutable state between runs, so one instance
        can evaluate many stimulus streams.
        """
        from repro.netlist.simulate import Trace

        program = self.program
        record_list = program.record_list(record_nets)
        record_set = set(program.record_cycles)
        trace = Trace(self.n_lanes, record_list)
        n_words = self.n_words
        state = np.zeros((program.n_nets, n_words), dtype=np.uint64)
        state[program.const1] = _FULL_WORD
        reg_state = np.zeros((program.n_dffs, n_words), dtype=np.uint64)
        row = np.zeros(
            (max(program.stim_nets.size, 1), n_words), dtype=np.uint64
        )
        in_off = program.in_off.tolist()
        rd_off = program.rd_off.tolist()
        cap_off = program.cap_off.tolist()
        disp_off = program.disp_off.tolist()
        starts = program.disp_start.tolist()
        code, out = program.op_code, program.op_out
        op_a, op_b, op_c = program.op_a, program.op_b, program.op_c

        for cycle in range(self.n_cycles):
            program.stimulus_cycle(self.netlist, stimulus(cycle), cycle, row)
            lo, hi = in_off[cycle], in_off[cycle + 1]
            state[program.in_net[lo:hi]] = row[program.in_slot[lo:hi]]
            lo, hi = rd_off[cycle], rd_off[cycle + 1]
            state[program.rd_net[lo:hi]] = reg_state[program.rd_reg[lo:hi]]
            for group in range(disp_off[cycle], disp_off[cycle + 1]):
                lo, hi = starts[group], starts[group + 1]
                state[out[lo:hi]] = _OP_EVAL[code[lo]](
                    state, op_a[lo:hi], op_b[lo:hi], op_c[lo:hi]
                )
            if cycle in record_set:
                trace.values.append(
                    {net: state[net].copy() for net in record_list}
                )
            else:
                trace.values.append({})
            lo, hi = cap_off[cycle], cap_off[cycle + 1]
            reg_state[program.cap_reg[lo:hi]] = state[program.cap_net[lo:hi]]
        return trace
