"""Self-test of the benchmark harness at tiny budgets.

Run from the repository root::

    python3 -m pytest paperbench -q
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
import steady  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


@pytest.fixture
def bench_env(monkeypatch):
    """Kernel cache and temp files under the benchmark's work directory."""
    work = os.path.join(HERE, ".work")
    for sub in ("kernels", "tmp"):
        os.makedirs(os.path.join(work, sub), exist_ok=True)
    monkeypatch.setenv("REPRO_NATIVE_CACHE", os.path.join(work, "kernels"))
    monkeypatch.setenv("TMPDIR", os.path.join(work, "tmp"))
    return os.path.join(work, "tmp")


def tiny_e3(workdir):
    import workloads

    return workloads.make("e3_sbox_eq6", 5, workdir, scale=0.05)


# ------------------------------------------------------------- span algebra


def test_self_times_sum_to_root_with_fake_clock():
    ticks = iter(range(100))
    rec = spans.SpanRecorder(clock=lambda: float(next(ticks)))
    root = rec.begin("iteration")        # t=0
    a = rec.begin("a")                   # t=1
    b = rec.begin("b")                   # t=2
    rec.end(b)                           # t=3
    rec.end(a)                           # t=4
    c = rec.begin("b")                   # t=5
    rec.end(c)                           # t=6
    rec.end(root)                        # t=7
    selfs = rec.self_times(root)
    assert selfs == {None: 3.0, "a": 2.0, "b": 2.0}
    assert sum(selfs.values()) == rec.duration(root)
    assert rec.calls(root) == {"a": 1, "b": 2}


def test_patcher_wraps_name_bindings_and_restores():
    from repro.leakage import evaluator, gtest, periodic

    original = gtest.g_test_counts_batch
    rec = spans.SpanRecorder()
    patcher = spans.Patcher(rec)
    patcher.function("repro.leakage.gtest", "g_test_counts_batch", "g")
    patcher.function("repro.leakage.gtest", "no_such_function", "x")
    try:
        assert periodic.g_test_counts_batch is not original
        assert gtest.g_test_counts_batch is periodic.g_test_counts_batch
        assert patcher.missing == ["repro.leakage.gtest.no_such_function"]
    finally:
        patcher.restore()
    assert periodic.g_test_counts_batch is original
    assert evaluator.g_test_from_counts is gtest.g_test_from_counts


# --------------------------------------------------------- traced iteration


def test_traced_layers_add_up_to_verdict(bench_env):
    import worker

    workload = tiny_e3(bench_env)
    runner = worker.Runner(workload, trace=True)
    runner.install()
    try:
        setup_layers = worker._setup(workload, runner.recorder)
        record = runner.one(traced=True)
    finally:
        runner.patcher.restore()
    assert record["ok"], runner.problems
    layers = record["layers"]
    selfs = sum(layers[f"{name}_s"] for name in runner.patcher.names)
    assert selfs + layers["unaccounted_s"] == pytest.approx(
        layers["traced.verdict_s"], abs=1e-9
    )
    assert layers["leakage.evaluator.hist_add_counts.calls"] > 0
    assert layers["leakage.gtest.tables"] == layers["leakage.gtest.calls"]
    produced = set(layers) | set(setup_layers) | {
        "traced.iterations", "trace_overhead_s"
    }
    wanted = {m["name"] for m in SPEC["per_layer"]}
    assert wanted <= produced, sorted(wanted - produced)


# ----------------------------------------------------------- correctness gate


def test_corrupted_count_is_marked_failed(bench_env, monkeypatch):
    import worker
    from repro.leakage.evaluator import HistogramAccumulator

    workload = tiny_e3(bench_env)
    runner = worker.Runner(workload, trace=False)
    workload.setup()
    clean = runner.one(traced=False)

    original = HistogramAccumulator.add_counts
    fired = []

    def corrupt(self, table_id, counts, group):
        if not fired:
            counts = counts.copy()
            counts[counts.nonzero()[0][0]] += 1
            fired.append(table_id)
        return original(self, table_id, counts, group)

    monkeypatch.setattr(HistogramAccumulator, "add_counts", corrupt)
    corrupted = runner.one(traced=False)
    monkeypatch.setattr(HistogramAccumulator, "add_counts", original)
    assert fired, "the corruption never reached a table"

    runner.verify([clean, corrupted], workload.reference())
    assert clean["ok"]
    assert not corrupted["ok"]
    assert runner.failed == 1


def test_exact_facts_reject_one_corrupted_class(tmp_path):
    import workloads

    workload = workloads.make("e6_exact_eq9", 0, str(tmp_path))
    row = {"probe_names": "g1.x", "leaking": False,
           "tv_fixed_vs_random": 0.0, "n_random_bits": 3,
           "n_secret_bits": 2}
    report = {"status": "complete", "passed": True, "n_skipped": 0,
              "results": [dict(row) for _ in range(workload.N_CLASSES)]}
    assert workload.check_facts(report) == []
    assert workload.work(report) == workload.N_CLASSES * 32
    report["results"][7]["tv_fixed_vs_random"] = 1 / 2 ** 20
    assert workload.check_facts(report)


# ------------------------------------------------------------- provenance


def test_sampled_degradation_comes_from_the_report(bench_env, monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
    text, facts = tiny_e3(bench_env).iterate()
    assert facts["engine"] == "compiled"
    assert facts["degradations"] == ["engine_compiled"]


def test_exact_degradation_comes_from_the_analyzer(bench_env, monkeypatch):
    import dataclasses

    import workloads

    workload = workloads.make("e6_exact_eq9", 0, bench_env)
    workload.spec = dataclasses.replace(workload.spec, max_enum_bits=8)
    text, facts = workload.iterate()
    assert facts["engine"] == "native"
    assert facts["degradations"] == []
    monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
    text, facts = workload.iterate()
    assert facts["engine"] == "compiled"
    assert facts["degradations"] == ["engine_compiled"]


# ------------------------------------------------------ host-speed probes


def test_sampler_probes_during_work_and_stops():
    import time

    import calibrate

    sampler = calibrate.Sampler(period=0.02).start()
    try:
        mark = sampler.mark()
        deadline = time.perf_counter() + 0.4
        while time.perf_counter() < deadline:
            sum(range(1000))
        probes, paused = sampler.since(mark)
    finally:
        sampler.stop()
    assert len(probes) >= 2
    assert sum(probes) <= paused < sum(probes) + 0.05
    count = len(sampler.times)
    time.sleep(0.1)
    assert len(sampler.times) == count


def test_end_to_end_times_are_probe_scaled():
    import calibrate
    import run

    ref = calibrate.REFERENCE_S
    result = {"active_s": [1.0, 2.0, 3.0], "probe_s": [ref, 2 * ref, None],
              "work": 100, "peak_rss_mb": 5.0}
    setups = [{"setup_active_s": 4.0, "setup_probe_s": ref / 2}]
    metrics = run.end_to_end(result, setups)
    # Iterations read 1.0, 1.0 and 3.0 / 1.5 (the run's mean probe).
    assert metrics["verdict_s"] == pytest.approx(1.0)
    assert metrics["sims_per_s"] == pytest.approx(100.0)
    assert metrics["setup_s"] == pytest.approx(8.0)
    assert metrics["peak_rss_mb"] == 5.0


# ---------------------------------------------------------- steadiness mode


def _fake_runner(values):
    def run(workload, seed, seconds):
        value = values[seed % len(values)]
        return {
            "correct": True, "failed": 0, "wall_s": 1.0,
            "metrics": {
                m["name"]: {"value": value, "unit": m["unit"]}
                for m in SPEC["end_to_end"]
            },
        }
    return run


def test_steady_mode_prints_spread_against_bound(capsys):
    name = SPEC["workloads"][0]["name"]
    args = ["--workload", name, "--runs", "4", "--sets", "2"]
    assert steady.main(args, runner=_fake_runner([1.0, 1.01, 0.99])) == 0
    out = capsys.readouterr().out
    for metric in SPEC["end_to_end"]:
        assert f"{metric['name']:<12} bound {metric['bound']:.2f}" in out
    assert "OVER" not in out
    assert steady.main(args, runner=_fake_runner([1.0, 3.0])) == 1
    assert "OVER" in capsys.readouterr().out


def test_spread_is_interquartile_share_of_median():
    assert steady.spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    buf = io.StringIO()
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "m", "bound": 0.1, "better": "lower"}]}
    runs = [{"w": [{"correct": True, "failed": 0, "wall_s": 1.0,
                    "metrics": {"m": {"value": v}}}
                   for v in (1.0, 1.0, 2.0, 2.0)]}]
    assert not steady.evaluate(spec, runs, out=buf)


# ------------------------------------------------------- BENCHMARK.json


def test_benchmark_json_names_match_the_harness():
    import workloads

    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert all(w["why"] and "\n" not in w["why"] for w in SPEC["workloads"])
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))


def test_run_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "paperbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "paperbench/run.py", "--workload",
         SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
