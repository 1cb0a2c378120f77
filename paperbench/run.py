"""Paper benchmark: spec-to-verdict time of four paper experiments.

Usage (from the repository root)::

    python3 paperbench/run.py --workload e3_sbox_eq6 --seed 1 \\
        --seconds 10 --trace 0

Runs one workload, named in ``BENCHMARK.json``, as a closed loop -- one
caller, one evaluation at a time -- in fresh worker processes, and
prints one JSON object as its last line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the ``end_to_end`` metrics with ``--trace 0``,
the ``per_layer`` metrics with ``--trace 1``).  Lines before it describe
the run: sample counts and provenance.

The benchmark writes only below ``paperbench/.work``: the native kernel
cache (warmed once per source tree, so set-up never times the C
compiler), temporary files, checkpoints, span dumps and a full record of
every run.  It needs the repository's ``src`` tree; without it, it exits
with code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")

#: Seed used when none is given, and a held-out seed for re-checking a
#: claimed gain on inputs it was not tuned on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 977

#: Extra fresh processes that only measure set-up; with the measuring
#: worker's own set-up, ``setup_s`` is the median of this many + 1.
SETUP_PROBES = 2
WARM_TIMEOUT = 840
CHILD_TIMEOUT = 150


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def load_spec() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def source_digest() -> str:
    """Digest of the program's Python sources (checkout has no git)."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "repro")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def child_env(threads: int) -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_NATIVE_CACHE"] = os.path.join(WORK, "kernels")
    env["REPRO_NATIVE_THREADS"] = str(threads)
    env["TMPDIR"] = os.path.join(WORK, "tmp")
    # String hashing is randomized per process; fixing it removes one
    # source of run-to-run spread in the dict-heavy table layer.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(mode: str, args, env: Dict[str, str], timeout: float,
               extra: List[str] = ()) -> Dict:
    """Run ``worker.py`` to completion; returns its last-line JSON."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--mode", mode, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--workdir", os.path.join(WORK, "tmp"), *extra,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker timed out after {timeout}s") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} worker printed nothing")
    return json.loads(lines[-1])


def compiler_version() -> str:
    for cc in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cc and shutil.which(cc):
            out = subprocess.run(
                [cc, "--version"], capture_output=True, text=True,
                timeout=30,
            ).stdout
            return out.splitlines()[0] if out else cc
    return "none"


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    out = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
        text=True, timeout=30,
    )
    return out.stdout.strip() or "unknown"


def versions(env: Dict[str, str]) -> Dict[str, str]:
    out = subprocess.run(
        [sys.executable, "-c",
         "import json, numpy, scipy; print(json.dumps("
         "{'numpy': numpy.__version__, 'scipy': scipy.__version__}))"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    found = json.loads(out.stdout) if out.returncode == 0 else {}
    found["python"] = sys.version.split()[0]
    return found


def end_to_end(result: Dict, setups: List[Dict]) -> Dict[str, float]:
    """The end-to-end metrics, timed outside the host-speed probes and
    scaled to the reference host (see ``calibrate.py``)."""
    known = [p for p in result["probe_s"] if p is not None]
    fallback = statistics.fmean(known) if known else calibrate.REFERENCE_S
    seconds = [
        calibrate.scale(active, fallback if probe is None else probe)
        for active, probe in zip(result["active_s"], result["probe_s"])
    ]
    setup = [calibrate.scale(s["setup_active_s"], s["setup_probe_s"])
             for s in setups]
    return {
        "verdict_s": statistics.median(seconds),
        "sims_per_s": statistics.median(result["work"] / s for s in seconds),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: no src/repro tree next to paperbench/; nothing to "
              "benchmark", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    for sub in ("kernels", "tmp", "traces", "results"):
        os.makedirs(os.path.join(WORK, sub), exist_ok=True)
    threads = nproc()
    env = child_env(threads)
    digest = source_digest()
    started = time.time()
    try:
        # The first run in a checkout compiles every workload's kernels,
        # so no later run (of any workload) times or waits for gcc.
        stamp = os.path.join(WORK, "kernels", f"warm-{digest}")
        if not os.path.exists(stamp):
            deadline = time.monotonic() + WARM_TIMEOUT
            for workload in spec["workloads"]:
                warm = argparse.Namespace(**vars(args))
                warm.workload = workload["name"]
                run_worker("warm", warm, env,
                           max(1.0, deadline - time.monotonic()))
            open(stamp, "w").close()
        if args.trace:
            trace_out = os.path.join(
                WORK, "traces", f"{args.workload}-seed{args.seed}.json.gz"
            )
            result = run_worker(
                "trace", args, env, CHILD_TIMEOUT,
                ["--trace-out", trace_out],
            )
            setups = []
        else:
            setups = [
                run_worker("setup", args, env, CHILD_TIMEOUT)
                for _ in range(SETUP_PROBES)
            ]
            result = run_worker("run", args, env, CHILD_TIMEOUT)
            setups.append({key: result[key] for key in setups[0]})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    if args.trace:
        wanted = spec["per_layer"]
        values = result["per_layer"]
    else:
        wanted = spec["end_to_end"]
        values = end_to_end(result, setups)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        for m in wanted
    }
    failed = result["failed"] + len(result["checks"])
    correct = (
        failed == 0
        and not missing
        and result["distinct_reports"] <= 1
        and result["work"] > 0
    )
    provenance = {
        "commit": git_commit(),
        "source_digest": digest,
        "seeds": {"default": DEFAULT_SEED, "held_out": HELD_OUT_SEED},
        "nproc": threads,
        "native_threads": threads,
        "cc": compiler_version(),
        **versions(env),
        "engines": result["engines"],
        "degradations": result["degradations"],
        "unpatched": result.get("unpatched", []),
    }
    print(f"# workload {args.workload} seed {args.seed}: "
          f"{len(result['seconds'])} timed iterations"
          + (f", {int(result['per_layer'].get('traced.iterations', 0))} "
             "traced" if args.trace else "")
          + f", setup samples {len(setups)}")
    if not args.trace:
        print(f"# raw wall: verdict median "
              f"{statistics.median(result['seconds']):.4f} s, setup median "
              f"{statistics.median(x['setup_s'] for x in setups):.4f} s; "
              f"metrics are probe-scaled (calibrate.py)")
    print("# provenance " + json.dumps(provenance, sort_keys=True))
    for problem in result["problems"] + result["checks"]:
        print("# problem: " + problem.strip().replace("\n", "\n#   "))
    if missing:
        print(f"# missing metrics: {missing}")
    record = {
        "args": vars(args),
        "started": started,
        "provenance": provenance,
        "setup_samples": setups,
        "worker": result,
        "metrics": metrics,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK, "results", name), "w") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
