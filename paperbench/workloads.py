"""The four paper workloads of the benchmark.

Each workload drives the program only through the entry points a user
calls -- ``EvaluationSpec`` -> ``evaluator_for`` -> ``EvaluationCampaign``
(E3, E8), ``ShardedExactAnalyzer`` (E6, what ``run_exact_analysis``
wraps) and ``PeriodicLeakageEvaluator`` (E11) -- and checks every verdict it times against the paper's facts.
Sampled workloads also compare each report byte for byte with one untimed
run of the same seed on the ``compiled`` engine (the simulated statistics
are deterministic, so every engine must produce the same bytes).

Names are looked up through their modules at call time so that the span
recorder's patches (see ``layers.py``) see every call.
"""

from __future__ import annotations

import dataclasses
import glob
import os
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import aes_core
from repro.core.optimizations import RandomnessScheme
from repro.leakage import certify, exact
from repro.leakage.campaign import EvaluationCampaign
from repro.leakage.model import ProbingModel
from repro.leakage.periodic import PeriodicLeakageEvaluator
from repro.service import runner
from repro.spec import EvaluationSpec

class Workload:
    """One paper experiment, timed from spec to finished report."""

    name = ""
    #: True when the workload samples stimulus from the benchmark seed.
    sampled = True

    def __init__(self, seed: int, workdir: str, scale: float = 1.0):
        """``scale`` shrinks the sample budget (the harness self-test)."""
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Build the design, construct the evaluator, load the kernels."""
        raise NotImplementedError

    def iterate(self) -> Tuple[str, Dict]:
        """One timed verdict: ``(report_json, facts)``."""
        raise NotImplementedError

    def cleanup(self) -> None:
        """Remove what one iteration left on disk (untimed)."""

    def reference(self) -> Optional[str]:
        """Report bytes of one untimed ``compiled`` run, or None."""
        return None

    def check_facts(self, report: Dict) -> List[str]:
        """Paper facts the report must show; returns the violations."""
        raise NotImplementedError

    def extra_checks(self) -> List[str]:
        """Untimed checks run once per benchmark run."""
        return []

    def work(self, report: Dict) -> int:
        """Simulations per group (or enumerated assignments) per verdict."""
        raise NotImplementedError


def _complete(report: Dict) -> List[str]:
    if report.get("status") != "complete":
        return [f"status is {report.get('status')!r}, not 'complete'"]
    return []


class CampaignWorkload(Workload):
    """A chunked, checkpointed campaign, as the service runs a job."""

    SPEC: Dict = {}

    def __init__(self, seed: int, workdir: str, scale: float = 1.0):
        super().__init__(seed, workdir, scale)
        params = dict(self.SPEC)
        params["n_simulations"] = max(
            4096, int(params["n_simulations"] * scale)
        )
        self.spec = EvaluationSpec(seed=seed, engine="native", **params)
        self.checkpoint = os.path.join(workdir, f"{self.name}.ckpt")

    def _run(self, spec: EvaluationSpec,
             checkpoint: Optional[str]) -> Tuple[str, Dict]:
        evaluator = runner.evaluator_for(spec)
        config = spec.campaign_config(
            checkpoint=checkpoint, default_chunking=True
        )
        campaign = EvaluationCampaign(evaluator, config)
        report = campaign.run()
        text = report.to_json(top=None)
        # The report carries the campaign's and the evaluator's ladder
        # steps (engine, pipeline and executor fallbacks).
        facts = {
            "engine": evaluator.engine,
            "degradations": [d.get("kind") for d in report.degradations],
            "stages": dict(evaluator.stage_seconds),
            "chunks": campaign.progress.chunks_done,
        }
        return text, facts

    def setup(self) -> None:
        # One chunk through the same code path loads the sliced program
        # and the kernels that every timed iteration then reuses.
        warm = dataclasses.replace(
            self.spec, n_simulations=min(self.spec.n_simulations, 8192)
        )
        self._run(warm, self.checkpoint)
        self.cleanup()

    def iterate(self) -> Tuple[str, Dict]:
        return self._run(self.spec, self.checkpoint)

    def cleanup(self) -> None:
        for path in glob.glob(self.checkpoint + "*"):
            os.unlink(path)

    def reference(self) -> str:
        spec = dataclasses.replace(self.spec, engine="compiled")
        return self._run(spec, None)[0]

    def work(self, report: Dict) -> int:
        return self.spec.n_simulations


class SboxEq6(CampaignWorkload):
    """E3: masked S-box, Eq. (6), first order -- leaks in g7."""

    name = "e3_sbox_eq6"
    SPEC = dict(
        design="sbox", scheme="eq6", model="glitch", mode="first",
        n_simulations=100_000, fixed_secret=0,
    )

    def check_facts(self, report: Dict) -> List[str]:
        problems = _complete(report)
        leaking = [r["probe_names"] for r in report["results"] if r["leaking"]]
        if report["passed"] or not leaking:
            problems.append("E3 must FAIL (Eq. (6) leaks)")
        outside = [name for name in leaking if not name.startswith("g7.")]
        if outside:
            problems.append(f"E3 leaks outside g7: {outside[:3]}")
        return problems


class Kron2Pairs(CampaignWorkload):
    """E8: 3-share Kronecker delta, 13 fresh bits, orders one and two."""

    name = "e8_kron2_pairs"
    SPEC = dict(
        design="kronecker", scheme="second_order_opt_13", model="glitch",
        mode="both", n_simulations=50_000, max_pairs=400, fixed_secret=0,
    )

    def check_facts(self, report: Dict) -> List[str]:
        problems = _complete(report)
        names = [r["probe_names"] for r in report["results"]]
        pairs = [name for name in names if " x " in name]
        if not pairs or len(pairs) == len(names):
            problems.append("E8 must test first-order classes and pairs")
        if not report["passed"]:
            worst = report["results"][0]["probe_names"]
            problems.append(f"E8 must PASS at both orders (worst: {worst})")
        return problems


class KronEq9Exact(Workload):
    """E6: exhaustive sweep of the Kronecker delta under Eq. (9)."""

    name = "e6_exact_eq9"
    sampled = False
    N_CLASSES = 92
    #: E4's total-variation distance of the six leaking Eq. (6) g7 classes.
    EQ6_G7_TV = 0.0703
    EQ6_G7_LEAKS = 6

    def __init__(self, seed: int, workdir: str, scale: float = 1.0):
        super().__init__(seed, workdir, scale)
        self.spec = EvaluationSpec(
            design="kronecker", scheme="eq9", model="glitch", mode="exact",
            max_enum_bits=24, engine="native", workers=1,
        )

    def setup(self) -> None:
        built = runner.build_design(self.spec.design, self.spec.scheme)
        analyzer = exact.ExactAnalyzer(
            built.dut, ProbingModel.GLITCH,
            max_enum_bits=self.spec.max_enum_bits, engine=self.spec.engine,
        )
        # One shard of one class loads the native simulator stack.
        analyzer.count_shard(
            analyzer.probe_classes[0], shard_index=0,
            shard_lane_bits=self.spec.shard_lane_bits,
        )

    def iterate(self) -> Tuple[str, Dict]:
        # What ``run_exact_analysis`` does, keeping hold of the analyzer:
        # its engine and degradation list are the provenance, and
        # ``ExactReport`` does not carry them.
        spec = self.spec
        built = runner.build_design(spec.design, spec.scheme)
        sharded = certify.ShardedExactAnalyzer(
            built.dut,
            ProbingModel.GLITCH,
            max_enum_bits=spec.max_enum_bits,
            shard_lane_bits=spec.shard_lane_bits,
            engine=spec.engine,
        )
        report = sharded.analyze(
            fixed_secret=spec.fixed_secret, workers=spec.workers
        )
        text = report.to_json(top=None)
        facts = {
            "engine": sharded.analyzer.engine,
            "degradations": [
                d.get("kind") for d in sharded.analyzer.degradations
            ],
            "stages": {},
            "chunks": 0,
        }
        return text, facts

    def check_facts(self, report: Dict) -> List[str]:
        problems = _complete(report)
        results = report["results"]
        if len(results) != self.N_CLASSES:
            problems.append(
                f"E6 must decide {self.N_CLASSES} classes, got {len(results)}"
            )
        if report["n_skipped"]:
            problems.append(f"E6 has {report['n_skipped']} infeasible classes")
        bad = [
            r["probe_names"] for r in results
            if r["leaking"] or r["tv_fixed_vs_random"] != 0.0
        ]
        if bad or not report["passed"]:
            problems.append(f"E6 classes not exactly secure: {bad[:3]}")
        return problems

    def extra_checks(self) -> List[str]:
        """The leak side: Eq. (6) g7 classes still leak with E4's TV."""
        built = runner.build_design("kronecker", "eq6")
        netlist = built.dut.netlist
        analyzer = exact.ExactAnalyzer(
            built.dut, ProbingModel.GLITCH,
            max_enum_bits=self.spec.max_enum_bits, engine=self.spec.engine,
        )
        g7 = [
            pc for pc in analyzer.probe_classes
            if pc.member_names(netlist).startswith("g7.")
        ]
        leaks = [r for r in analyzer.analyze(g7).results if r.leaking]
        problems = []
        if len(leaks) != self.EQ6_G7_LEAKS:
            problems.append(
                f"Eq. (6) must leak in {self.EQ6_G7_LEAKS} g7 classes, "
                f"found {len(leaks)}"
            )
        off = [
            (r.probe_names, r.tv_fixed_vs_random) for r in leaks
            if round(r.tv_fixed_vs_random, 4) != self.EQ6_G7_TV
        ]
        if off:
            problems.append(f"Eq. (6) g7 TV differs from E4: {off[:3]}")
        return problems

    def work(self, report: Dict) -> int:
        return sum(
            1 << (r["n_random_bits"] + r["n_secret_bits"])
            for r in report["results"]
        )


class CoreScheduled(Workload):
    """E11: the whole AES core, periodic evaluation on the scheduled cone."""

    name = "e11_core_sched"
    KEY = bytes(range(16))
    PHASES = (3, 4, 5, 6)
    N_PERIODS = 2
    LANES = 6000
    DESIGN = "masked_aes_core_demeyer_eq6"

    def __init__(self, seed: int, workdir: str, scale: float = 1.0):
        super().__init__(seed, workdir, scale)
        self.lanes = max(64, int(self.LANES * scale))

    def setup(self) -> None:
        self.core = aes_core.build_masked_aes_core(
            RandomnessScheme.DEMEYER_EQ6
        )
        self.harness = aes_core.AesCoreHarness(self.core)
        self.probes = [
            cell.output for cell in self.core.netlist.cells
            if cell.name.startswith("sb0.")
        ]
        self.schedule = self.harness.control_net_schedule()
        self._evaluate(256, "native")

    def _evaluate(self, lanes: int, engine: str) -> Tuple[str, Dict]:
        evaluator = PeriodicLeakageEvaluator(
            self.core.netlist,
            aes_core.ENCRYPTION_CYCLES,
            ProbingModel.GLITCH,
            probe_nets=self.probes,
            slice_cones=True,
            control_schedule=self.schedule,
            engine=engine,
        )
        n_words = (lanes + 63) // 64
        fixed = self.harness.bitsliced_stimulus(
            np.random.default_rng([self.seed, 0]), n_words, self.KEY,
            self.KEY,
        )
        random = self.harness.bitsliced_stimulus(
            np.random.default_rng([self.seed, 1]), n_words, self.KEY, None,
        )
        report = evaluator.evaluate(
            fixed, random, lanes, phases=self.PHASES,
            n_periods=self.N_PERIODS, design_name=self.DESIGN,
        )
        text = report.to_json(top=None)
        info = evaluator.last_slice_info or {}
        facts = {
            "engine": info.get("engine"),
            "degradations": [d.get("kind") for d in evaluator.degradations],
            "stages": dict(evaluator.last_stage_seconds or {}),
            "chunks": 0,
        }
        return text, facts

    def iterate(self) -> Tuple[str, Dict]:
        return self._evaluate(self.lanes, "native")

    def reference(self) -> str:
        return self._evaluate(self.lanes, "compiled")[0]

    def check_facts(self, report: Dict) -> List[str]:
        problems = _complete(report)
        if report["passed"]:
            problems.append("E11 must FAIL (Eq. (6) core leaks)")
        worst = report["results"][0]["probe_names"] if report["results"] else ""
        if not worst.startswith("sb0.g7"):
            problems.append(f"E11 worst probe must be in sb0.g7, got {worst!r}")
        return problems

    def work(self, report: Dict) -> int:
        return self.lanes * self.N_PERIODS


WORKLOADS = {
    cls.name: cls
    for cls in (SboxEq6, Kron2Pairs, KronEq9Exact, CoreScheduled)
}


def make(name: str, seed: int, workdir: str, scale: float = 1.0) -> Workload:
    """Instantiate a workload by its benchmark name."""
    return WORKLOADS[name](seed, workdir, scale)
