"""One workload in one fresh process; prints its measurements as JSON.

Started by ``run.py`` with the repository's ``src`` on ``PYTHONPATH``.
Modes:

* ``warm``  -- set up and run one iteration untimed, filling the
  benchmark's on-disk kernel cache;
* ``setup`` -- report the seconds from process start to steady state;
* ``run``   -- set up, then time closed-loop iterations (one evaluation
  at a time) for ``--seconds``, check every verdict, report;
* ``trace`` -- as ``run``, but half the time untraced and half with the
  layer spans installed, reporting per-layer self times.

``setup`` and ``run`` probe the host's speed while they time (see
``calibrate.py``) and report, next to each wall time, the part spent
outside the probes and the mean probe time over it.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

import calibrate  # noqa: E402

#: Layers whose setup-phase self time the traced run reports.
SETUP_LAYERS = (
    "core.build",
    "netlist.slice.cone",
    "netlist.slice.program",
    "netlist.native.kernel_load",
)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cache_counts() -> Dict[str, int]:
    from repro.netlist.compile import program_cache_info
    from repro.netlist.native import native_kernel_cache_info

    kernel = native_kernel_cache_info()
    program = program_cache_info()
    return {
        "netlist.native.kernel_cache_hits": kernel.hits,
        "netlist.native.kernel_cache_misses": kernel.misses,
        "netlist.native.kernel_builds": kernel.builds,
        "netlist.slice.cache_hits": program.hits,
        "netlist.slice.cache_misses": program.misses,
    }


class Runner:
    """Closed-loop timing of one workload, optionally traced."""

    def __init__(self, workload, trace: bool, sampler=None):
        self.workload = workload
        self.sampler = sampler
        self.digests: List[str] = []
        self.problems: List[str] = []
        self.failed = 0
        self.facts: List[Dict] = []
        self.recorder = self.patcher = self.accumulators = None
        if trace:
            import layers
            from spans import Patcher, SpanRecorder

            self.recorder = SpanRecorder()
            self.recorder.active = False
            self.patcher = Patcher(self.recorder)
            self.accumulators = layers.Accumulators()

    def install(self) -> None:
        """Wrap the layers (untraced phases run with the originals)."""
        import layers

        layers.install(self.patcher, self.accumulators)

    def _problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    def one(self, traced: bool) -> Dict:
        """Time one verdict; traced, its record carries the layers."""
        wl, rec = self.workload, self.recorder
        before = _cache_counts()
        if traced:
            self.accumulators.touched.clear()
            rec.active = True
            root = rec.begin("iteration")
        mark = self.sampler.mark() if self.sampler else None
        start = time.perf_counter()
        try:
            text, facts = wl.iterate()
        except Exception:  # noqa: BLE001 - a failed iteration is counted
            text = None
            self._problem(traceback.format_exc(limit=4))
        finally:
            seconds = time.perf_counter() - start
            calibration = self._calibration(mark, seconds) if mark else {}
            if traced:
                rec.end(root)
                rec.active = False
            wl.cleanup()
        if text is None:
            self.failed += 1
            return {"seconds": seconds, "ok": False, **calibration}
        problems = wl.check_facts(json.loads(text))
        if problems:
            self.failed += 1
            for problem in problems:
                self._problem(problem)
        self.digests.append(_digest(text))
        self.facts.append(facts)
        record = {"seconds": seconds, "ok": not problems, "text": text,
                  **calibration}
        if traced:
            record["layers"] = self._layers(
                root, before, _cache_counts(), facts
            )
        return record

    def _calibration(self, mark, seconds: float) -> Dict[str, float]:
        """Seconds outside the probes, and the mean probe time (None when
        no probe fell inside the interval)."""
        probes, paused = self.sampler.since(mark)
        return {
            "active_s": seconds - paused,
            "probe_s": statistics.fmean(probes) if probes else None,
        }

    def _layers(self, root: int, before, after, facts) -> Dict[str, float]:
        import layers

        rec = self.recorder
        out: Dict[str, float] = defaultdict(float)
        for name in self.patcher.names:
            out[f"{name}_s"] = out[f"{name}.calls"] = 0.0
        for name in layers.COUNTERS:
            out[name] = 0.0
        for stage in layers.STAGES:
            out[f"leakage.{stage}_s"] = 0.0
        for name, seconds in rec.self_times(root).items():
            out["unaccounted_s" if name is None else f"{name}_s"] += seconds
        for name, calls in rec.calls(root).items():
            out[f"{name}.calls"] += calls
        # Wrapper counters replace span counts of the same name: they
        # count only outermost calls (g_test_batch nests no G-test span).
        for name, value in rec.counters(root).items():
            out[name] = value
        for name, value in after.items():
            out[name] += value - before[name]
        for stage, seconds in facts.get("stages", {}).items():
            out[f"leakage.{stage}_s"] += seconds
        out["leakage.campaign.chunks"] += facts.get("chunks", 0)
        out["engines.degradations"] += len(facts.get("degradations", []))
        out["leakage.evaluator.hist_keys"] += self.accumulators.max_keys()
        out["traced.verdict_s"] += rec.duration(root)
        return dict(out)

    def verify(self, records: List[Dict], reference: Optional[str]) -> None:
        """Fail every iteration whose report bytes differ from the
        reference run's (all of them when the reference is missing)."""
        expected = None if reference is None else _digest(reference)
        for record in records:
            if record["ok"] and _digest(record["text"]) != expected:
                record["ok"] = False
                self.failed += 1
                self._problem("report bytes differ from the compiled run")

    def loop(self, seconds: float, traced: bool) -> List[Dict]:
        """Iterate until ``seconds`` have passed (at least once)."""
        records = []
        start = time.perf_counter()
        while not records or time.perf_counter() - start < seconds:
            records.append(self.one(traced))
        return records


def _setup(workload, recorder) -> Dict[str, float]:
    """Run the workload's set-up; traced, return setup-phase layers."""
    if recorder is None:
        workload.setup()
        return {}
    recorder.active = True
    root = recorder.begin("setup")
    try:
        workload.setup()
    finally:
        recorder.end(root)
        recorder.active = False
    selfs = recorder.self_times(root)
    out = {"setup.traced_s": recorder.duration(root)}
    out["setup.unaccounted_s"] = selfs.pop(None, 0.0)
    for layer in SETUP_LAYERS:
        out[f"setup.{layer}_s"] = selfs.pop(layer, 0.0)
    out["setup.other_layers_s"] = sum(selfs.values())
    out["setup.import_s"] = recorder.spans[root][2] - _T0
    return out


def _setup_timing(sampler) -> Dict[str, float]:
    """Set-up seconds since process start, the part outside the probes
    and the mean probe time over it."""
    seconds = time.perf_counter() - _T0
    return {
        "setup_s": seconds,
        "setup_active_s": seconds - sampler.paused,
        "setup_probe_s": statistics.fmean(sampler.times),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", required=True,
                        choices=("warm", "setup", "run", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    # Set-up and timed loop are probed, imports included; the probes
    # must stop before the process exits, or a late SIGALRM kills it.
    sampler = calibrate.Sampler() if args.mode in ("setup", "run") else None
    try:
        if sampler:
            sampler.start()
        return _measure(args, sampler)
    finally:
        if sampler:
            sampler.stop()


def _measure(args, sampler) -> int:
    import workloads

    workload = workloads.make(args.workload, args.seed, args.workdir)
    if args.mode == "warm":
        workload.setup()
        workload.iterate()
        workload.cleanup()
        print(json.dumps({"warm": True}))
        return 0
    if args.mode == "setup":
        workload.setup()
        print(json.dumps(_setup_timing(sampler)))
        return 0

    trace = args.mode == "trace"
    runner = Runner(workload, trace, sampler)
    if trace:
        runner.install()
    setup_layers = _setup(workload, runner.recorder)
    setup = ({"setup_s": time.perf_counter() - _T0} if trace
             else _setup_timing(sampler))

    budget = args.seconds / 2 if trace else args.seconds
    traced: List[Dict] = []
    if trace:
        runner.patcher.restore()
    plain = runner.loop(budget, traced=False)
    if trace:
        runner.install()
        traced = runner.loop(budget, traced=True)
        runner.patcher.restore()
    if sampler:
        sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checks: List[str] = []
    records = plain + traced
    if workload.sampled:
        try:
            reference = workload.reference()
        except Exception:  # noqa: BLE001 - reported as a failed check
            reference = None
            checks.append(traceback.format_exc(limit=4))
        runner.verify(records, reference)
    try:
        checks.extend(workload.extra_checks())
    except Exception:  # noqa: BLE001 - reported as a failed check
        checks.append(traceback.format_exc(limit=4))

    first_ok = next((r for r in records if r["ok"]), None)
    work = workload.work(json.loads(first_ok["text"])) if first_ok else 0
    engines = sorted({str(f.get("engine")) for f in runner.facts})
    degradations = sorted(
        {str(d) for f in runner.facts for d in f.get("degradations", [])}
    )
    out = {
        "workload": args.workload,
        "seed": args.seed,
        **setup,
        "seconds": [r["seconds"] for r in plain],
        "active_s": [r.get("active_s") for r in plain],
        "probe_s": [r.get("probe_s") for r in plain],
        "attempted": len(records),
        "failed": runner.failed,
        "problems": runner.problems,
        "checks": checks,
        "work": work,
        "peak_rss_mb": peak_rss_mb,
        "engines": engines,
        "degradations": degradations,
        "distinct_reports": len(set(runner.digests)),
    }
    if trace:
        layers = [r["layers"] for r in traced if "layers" in r]
        names = sorted({name for rec in layers for name in rec})
        per_layer = {
            name: statistics.fmean(rec.get(name, 0.0) for rec in layers)
            for name in names
        } if layers else {}
        per_layer.update(setup_layers)
        per_layer["traced.iterations"] = len(layers)
        if layers and plain:
            per_layer["trace_overhead_s"] = per_layer[
                "traced.verdict_s"
            ] - statistics.median(r["seconds"] for r in plain)
        out["per_layer"] = per_layer
        out["unpatched"] = sorted(set(runner.patcher.missing))
        if args.trace_out:
            runner.recorder.dump(
                args.trace_out,
                {"workload": args.workload, "seed": args.seed},
            )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
