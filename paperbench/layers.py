"""Which public functions make up each layer, and their event counters.

``install`` wraps them with :class:`spans.Patcher`; span names are the
per-layer metric names without their ``_s``/``.calls`` suffix.
"""

from __future__ import annotations

from typing import Dict

from spans import Patcher, SpanRecorder

GTEST = "leakage.gtest"

#: Event counters the wrappers add to (reported as zero when unused).
COUNTERS = (GTEST + ".tables", "leakage.exact.assignments")

#: The evaluators' own public stage clocks, read after each iteration.
STAGES = ("stimulus", "simulate", "extract", "histogram")


class Accumulators:
    """Histogram accumulators touched while a root span is open."""

    def __init__(self):
        self.touched: Dict[int, object] = {}

    def note(self, rec: SpanRecorder, args, kwargs) -> None:
        self.touched[id(args[0])] = args[0]

    def max_keys(self) -> int:
        """Distinct keys held by the largest touched accumulator."""
        best = 0
        for acc in self.touched.values():
            keys = sum(acc.counts(t)[0].size for t in acc.table_ids())
            best = max(best, keys)
        return best


def _gtest_single(rec: SpanRecorder, args, kwargs) -> None:
    if not rec.inside(GTEST):
        rec.count(GTEST + ".calls")
        rec.count(GTEST + ".tables")


def _gtest_batch(rec: SpanRecorder, args, kwargs):
    outer = not rec.inside(GTEST)
    if outer:
        rec.count(GTEST + ".calls")
    if args:
        pairs, rest = args[0], args[1:]
    else:
        pairs, rest = kwargs.pop("pairs"), ()

    def counted():
        for item in pairs:
            if outer:
                rec.count(GTEST + ".tables")
            yield item

    return (counted(),) + tuple(rest), kwargs


def _assignments(rec: SpanRecorder, args, kwargs) -> None:
    """Lanes one ``count_shard`` call enumerates."""
    bits = kwargs.get("shard_lane_bits", args[3] if len(args) > 3 else None)
    if bits is None:
        setup = kwargs.get("setup", args[4] if len(args) > 4 else None)
        bits = setup.total_bits if setup is not None else None
    if bits is not None:
        rec.count("leakage.exact.assignments", 1 << bits)


def install(patcher: Patcher, accumulators: Accumulators) -> None:
    """Wrap every layer's public functions."""
    fn, meth = patcher.function, patcher.method
    fn("repro.service.runner", "build_design", "core.build")
    fn("repro.core.aes_core", "build_masked_aes_core", "core.build")

    fn("repro.netlist.slice", "sequential_cone", "netlist.slice.cone")
    fn("repro.netlist.slice", "scheduled_cone", "netlist.slice.cone")
    fn("repro.netlist.slice", "slice_program", "netlist.slice.program")

    native = "repro.netlist.native"
    fn(native, "build_kernel", "netlist.native.kernel_load")
    fn(native, "build_pipeline_kernel", "netlist.native.kernel_load")
    meth(native, "NativeSimulator", "__init__", "netlist.native.sim_init")
    meth(native, "NativeScheduledSimulator", "__init__",
         "netlist.native.sched_lower")
    meth(native, "NativeSimulator", "run_pipeline", "netlist.native.pipeline")
    meth(native, "NativeScheduledSimulator", "run_pipeline",
         "netlist.native.pipeline")

    evaluator = "repro.leakage.evaluator"
    for attr, name in (
        ("add", "hist_add"),
        ("add_counts", "hist_add_counts"),
        ("merge", "hist_merge"),
    ):
        meth(evaluator, "HistogramAccumulator", attr,
             f"leakage.evaluator.{name}", accumulators.note)
    meth(evaluator, "HistogramAccumulator", "counts",
         "leakage.evaluator.hist_counts")
    meth(evaluator, "HistogramAccumulator", "state_arrays",
         "leakage.evaluator.hist_state_arrays")

    gtest = "repro.leakage.gtest"
    fn(gtest, "g_test", GTEST, _gtest_single)
    fn(gtest, "g_test_from_counts", GTEST, _gtest_single)
    fn(gtest, "g_test_batch", GTEST, _gtest_batch)
    fn(gtest, "g_test_counts_batch", GTEST, _gtest_batch)

    for attr in ("first_order_report", "pairs_report", "batched_report"):
        meth(evaluator, "LeakageEvaluator", attr, "leakage.report")
    meth("repro.leakage.report", "LeakageReport", "to_json", "leakage.report")
    meth("repro.leakage.exact", "ExactReport", "to_json", "leakage.report")
    meth("repro.leakage.campaign", "EvaluationCampaign", "_save_checkpoint",
         "leakage.campaign.checkpoint")

    exact = "repro.leakage.exact"
    meth(exact, "ExactAnalyzer", "enumeration_setup", "leakage.exact.setup")
    meth(exact, "ExactAnalyzer", "count_shard", "leakage.exact.count_shard",
         _assignments)
    meth(exact, "ExactAnalyzer", "finalize", "leakage.exact.finalize")
    fn("repro.leakage.certify", "merge_shard_counts", "leakage.certify.merge")
