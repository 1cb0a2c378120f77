"""Tests for chunked, checkpointable evaluation campaigns."""

import io
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.errors import BudgetExceeded, CheckpointError, SimulationError
from repro.leakage.campaign import (
    CHECKPOINT_VERSION,
    CampaignConfig,
    EvaluationCampaign,
    pack_checkpoint,
    run_campaign,
)
from repro.leakage.evaluator import HistogramAccumulator, LeakageEvaluator
from repro.leakage.model import ProbingModel
from tests.test_leakage_evaluator import DictAccumulator

N_SIMS = 20_000


def _evaluator(design, seed=7):
    return LeakageEvaluator(design.dut, ProbingModel.GLITCH, seed=seed)


def _assert_identical(report_a, report_b):
    assert len(report_a.results) == len(report_b.results)
    for a, b in zip(report_a.results, report_b.results):
        assert a.probe_names == b.probe_names
        assert a.g_statistic == b.g_statistic
        assert a.dof == b.dof
        assert a.mlog10p == b.mlog10p


class TestChunkedIdentity:
    def test_chunked_equals_single_pass(self, kronecker_eq6):
        single = _evaluator(kronecker_eq6).evaluate(n_simulations=N_SIMS)
        campaign = EvaluationCampaign(
            _evaluator(kronecker_eq6),
            CampaignConfig(n_simulations=N_SIMS, chunk_size=5_000),
        )
        chunked = campaign.run()
        assert chunked.status == "complete"
        assert campaign.progress.chunks_done > 1
        _assert_identical(single, chunked)

    def test_tables_identical_across_chunkings(self, kronecker_eq6):
        campaign = EvaluationCampaign(
            _evaluator(kronecker_eq6),
            CampaignConfig(n_simulations=N_SIMS, chunk_size=5_000),
        )
        campaign.run()
        reference = HistogramAccumulator()
        evaluator = _evaluator(kronecker_eq6)
        evaluator.accumulate(
            reference, 0, evaluator.n_lanes_for(N_SIMS, 1), 1
        )
        for table_id in reference.table_ids():
            keys_a, fixed_a, random_a = campaign.accumulator.counts(table_id)
            keys_b, fixed_b, random_b = reference.counts(table_id)
            assert np.array_equal(keys_a, keys_b)
            assert np.array_equal(fixed_a, fixed_b)
            assert np.array_equal(random_a, random_b)

    def test_pairs_mode_matches_evaluate_pairs(self, kronecker_full):
        single = _evaluator(kronecker_full).evaluate_pairs(
            n_simulations=5_000, max_pairs=30
        )
        chunked = run_campaign(
            _evaluator(kronecker_full),
            CampaignConfig(
                n_simulations=5_000,
                chunk_size=4_096,
                mode="pairs",
                max_pairs=30,
            ),
        )
        _assert_identical(single, chunked)

    def test_run_campaign_wrapper(self, kronecker_full):
        report = run_campaign(
            _evaluator(kronecker_full), CampaignConfig(n_simulations=5_000)
        )
        assert report.status == "complete"
        assert report.passed


def _write_v1_checkpoint(path, campaign, next_block, ids, arrays):
    """Write a v1 checkpoint by hand: ``meta`` plus ``t{i}_keys`` /
    ``t{i}_counts`` per sorted table id, in the integrity envelope."""
    meta = {
        "version": 1,
        "fingerprint": campaign.fingerprint(),
        "next_block": next_block,
        "blocks_total": campaign._blocks_total(),
        "table_ids": ids,
    }
    buffer = io.BytesIO()
    np.savez(
        buffer,
        meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        **arrays,
    )
    with open(path, "wb") as handle:
        handle.write(pack_checkpoint(buffer.getvalue()))


class TestCheckpointResume:
    def _partial_checkpoint(self, design, path, blocks):
        """Run only the first ``blocks`` blocks and checkpoint there."""
        campaign = EvaluationCampaign(
            _evaluator(design),
            CampaignConfig(
                n_simulations=N_SIMS, chunk_size=4_096, checkpoint=path
            ),
        )
        campaign.progress.blocks_total = campaign._blocks_total()
        campaign._run_chunk_with_retry(0, blocks)
        campaign.progress.blocks_done = blocks
        campaign._save_checkpoint(path, blocks)
        return campaign

    def test_resume_midway_reaches_identical_verdict(
        self, kronecker_eq6, tmp_path
    ):
        path = str(tmp_path / "ck.npz")
        self._partial_checkpoint(kronecker_eq6, path, blocks=2)
        resumed = EvaluationCampaign(
            _evaluator(kronecker_eq6),
            CampaignConfig(
                n_simulations=N_SIMS, chunk_size=8_192, checkpoint=path
            ),
        )
        report = resumed.run(resume=True)
        assert resumed.progress.resumed_from_block == 2
        assert report.status == "complete"
        single = _evaluator(kronecker_eq6).evaluate(n_simulations=N_SIMS)
        _assert_identical(single, report)

    @pytest.mark.parametrize("engine", ["compiled", "native"])
    def test_resumes_from_hand_built_v1_checkpoint(
        self, kronecker_eq6, tmp_path, engine
    ):
        """Pin the v1 checkpoint layout: ``meta`` plus, per sorted table
        id ``i``, ``t{i}_keys`` (sorted uint64) and ``t{i}_counts``
        (int64, fixed row then random row).  A file written by hand in
        that layout, from per-key dict tables, resumes to the report bytes
        of an uninterrupted run."""
        assert CHECKPOINT_VERSION == 1
        path = str(tmp_path / "ck.npz")
        blocks = 2
        evaluator = LeakageEvaluator(
            kronecker_eq6.dut, ProbingModel.GLITCH, seed=7, engine=engine
        )
        tables = DictAccumulator()
        evaluator.accumulate(
            tables, 0, evaluator.n_lanes_for(N_SIMS, 1), 1,
            blocks=range(blocks),
        )
        ids, arrays = tables.state_arrays()
        assert ids

        def campaign(checkpoint=None):
            return EvaluationCampaign(
                LeakageEvaluator(
                    kronecker_eq6.dut, ProbingModel.GLITCH, seed=7,
                    engine=engine,
                ),
                CampaignConfig(
                    n_simulations=N_SIMS, chunk_size=4_096,
                    checkpoint=checkpoint,
                ),
            )

        resumed = campaign(path)
        _write_v1_checkpoint(path, resumed, blocks, ids, arrays)
        report = resumed.run(resume=True)
        assert resumed.progress.resumed_from_block == blocks
        assert report.to_json() == campaign().run().to_json()

    def test_checkpoint_with_unsorted_table_is_quarantined(
        self, kronecker_eq6, tmp_path
    ):
        """A well-formed file whose table keys are out of order is corrupt
        (the keyed folds would miscount it): quarantined, restarted from
        block 0, and the report is that of an uninterrupted run."""
        path = str(tmp_path / "ck.npz")
        evaluator = _evaluator(kronecker_eq6)
        acc = HistogramAccumulator()
        evaluator.accumulate(
            acc, 0, evaluator.n_lanes_for(N_SIMS, 1), 1, blocks=range(1)
        )
        ids, arrays = acc.state_arrays()
        assert arrays["t0_keys"].size > 1
        arrays["t0_keys"] = arrays["t0_keys"][::-1].copy()
        arrays["t0_counts"] = arrays["t0_counts"][:, ::-1].copy()
        events = []
        resumed = EvaluationCampaign(
            _evaluator(kronecker_eq6),
            CampaignConfig(n_simulations=N_SIMS, checkpoint=path),
            hook=lambda event, payload: events.append(event),
        )
        _write_v1_checkpoint(path, resumed, 1, ids, arrays)
        report = resumed.run(resume=True)
        assert resumed.progress.resumed_from_block == 0
        assert "checkpoint_corrupt" in events
        assert os.path.exists(path + ".corrupt")
        single = _evaluator(kronecker_eq6).evaluate(n_simulations=N_SIMS)
        _assert_identical(single, report)

    def test_resume_without_checkpoint_starts_fresh(
        self, kronecker_full, tmp_path
    ):
        campaign = EvaluationCampaign(
            _evaluator(kronecker_full),
            CampaignConfig(
                n_simulations=5_000,
                checkpoint=str(tmp_path / "missing.npz"),
            ),
        )
        report = campaign.run(resume=True)
        assert campaign.progress.resumed_from_block == 0
        assert report.status == "complete"

    def test_fingerprint_mismatch_rejected(self, kronecker_eq6, tmp_path):
        path = str(tmp_path / "ck.npz")
        self._partial_checkpoint(kronecker_eq6, path, blocks=1)
        other_seed = EvaluationCampaign(
            _evaluator(kronecker_eq6, seed=99),
            CampaignConfig(n_simulations=N_SIMS, checkpoint=path),
        )
        with pytest.raises(CheckpointError):
            other_seed.run(resume=True)

    def test_corrupt_checkpoint_quarantined_and_restarted(
        self, kronecker_eq6, tmp_path
    ):
        """A rotten checkpoint is quarantined, never trusted: the campaign
        restarts from block 0 and reaches the identical clean verdict."""
        path = str(tmp_path / "ck.npz")
        with open(path, "wb") as handle:
            handle.write(b"not an npz file")
        events = []
        campaign = EvaluationCampaign(
            _evaluator(kronecker_eq6),
            CampaignConfig(n_simulations=N_SIMS, checkpoint=path),
            hook=lambda event, payload: events.append((event, payload)),
        )
        report = campaign.run(resume=True)
        assert campaign.progress.resumed_from_block == 0
        assert report.status == "complete"
        assert os.path.exists(path + ".corrupt")
        names = [event for event, _ in events]
        assert "checkpoint_corrupt" in names
        assert "checkpoint_fallback" in names
        single = _evaluator(kronecker_eq6).evaluate(n_simulations=N_SIMS)
        _assert_identical(single, report)

    def test_corrupt_current_falls_back_to_prev_generation(
        self, kronecker_eq6, tmp_path
    ):
        """Torn current generation -> resume from ``.prev``, bit-identical."""
        path = str(tmp_path / "ck.npz")
        self._partial_checkpoint(kronecker_eq6, path, blocks=2)
        os.replace(path, path + ".prev")
        with open(path, "wb") as handle:
            handle.write(b"RPCKPT01 torn mid-write")
        resumed = EvaluationCampaign(
            _evaluator(kronecker_eq6),
            CampaignConfig(
                n_simulations=N_SIMS, chunk_size=8_192, checkpoint=path
            ),
        )
        report = resumed.run(resume=True)
        assert resumed.progress.resumed_from_block == 2
        assert os.path.exists(path + ".corrupt")
        single = _evaluator(kronecker_eq6).evaluate(n_simulations=N_SIMS)
        _assert_identical(single, report)

    def test_kill_and_resume_subprocess(self, kronecker_eq6, tmp_path):
        """SIGKILL a campaign mid-run; the resume completes from disk."""
        path = str(tmp_path / "ck.npz")
        child_code = (
            "from repro.core.kronecker import build_kronecker_delta\n"
            "from repro.core.optimizations import RandomnessScheme\n"
            "from repro.leakage.campaign import CampaignConfig, "
            "EvaluationCampaign\n"
            "from repro.leakage.evaluator import LeakageEvaluator\n"
            "design = build_kronecker_delta(RandomnessScheme.DEMEYER_EQ6)\n"
            "ev = LeakageEvaluator(design.dut, seed=7)\n"
            f"cfg = CampaignConfig(n_simulations={N_SIMS}, chunk_size=4096, "
            f"checkpoint={path!r})\n"
            "EvaluationCampaign(ev, cfg).run()\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        child = subprocess.Popen(
            [sys.executable, "-c", child_code],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while not os.path.exists(path):
                if child.poll() is not None or time.monotonic() > deadline:
                    break
                time.sleep(0.01)
            child.kill()
        finally:
            child.wait()
        assert os.path.exists(path), "child never wrote a checkpoint"

        resumed = EvaluationCampaign(
            _evaluator(kronecker_eq6),
            CampaignConfig(
                n_simulations=N_SIMS, chunk_size=4_096, checkpoint=path
            ),
        )
        report = resumed.run(resume=True)
        assert report.status == "complete"
        single = _evaluator(kronecker_eq6).evaluate(n_simulations=N_SIMS)
        _assert_identical(single, report)


class TestBudgetsAndEarlyStop:
    def test_time_budget_truncates(self, kronecker_full):
        report = run_campaign(
            _evaluator(kronecker_full),
            CampaignConfig(
                n_simulations=N_SIMS, chunk_size=4_096, time_budget=1e-9
            ),
        )
        assert report.status == "truncated:time-budget"
        assert report.truncated
        assert "INCONCLUSIVE" in report.format_summary()

    def test_time_budget_raises_in_strict_mode(self, kronecker_full):
        with pytest.raises(BudgetExceeded):
            run_campaign(
                _evaluator(kronecker_full),
                CampaignConfig(
                    n_simulations=N_SIMS,
                    chunk_size=4_096,
                    time_budget=1e-9,
                    on_budget="raise",
                ),
            )

    def test_early_stop_on_decisive_leak(self, kronecker_eq6):
        campaign = EvaluationCampaign(
            _evaluator(kronecker_eq6),
            CampaignConfig(
                n_simulations=N_SIMS, chunk_size=4_096, early_stop=10.0
            ),
        )
        report = campaign.run()
        assert report.status == "truncated:early-stop"
        assert not report.passed
        assert campaign.progress.blocks_done < campaign.progress.blocks_total

    def test_memory_error_retries_with_smaller_chunks(
        self, kronecker_full, monkeypatch
    ):
        evaluator = _evaluator(kronecker_full)
        single = _evaluator(kronecker_full).evaluate(n_simulations=N_SIMS)
        original = LeakageEvaluator.accumulate
        failed = []

        def flaky(self, acc, fixed_secret, n_lanes, n_windows, **kwargs):
            blocks = list(kwargs.get("blocks") or [])
            if len(blocks) > 1 and not failed:
                failed.append(blocks)
                raise MemoryError("simulated allocation failure")
            return original(
                self, acc, fixed_secret, n_lanes, n_windows, **kwargs
            )

        monkeypatch.setattr(LeakageEvaluator, "accumulate", flaky)
        campaign = EvaluationCampaign(
            evaluator, CampaignConfig(n_simulations=N_SIMS)
        )
        report = campaign.run()
        assert failed, "fault was never injected"
        assert campaign.progress.retries >= 1
        assert report.status == "complete"
        _assert_identical(single, report)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "third"},
            {"on_budget": "explode"},
            {"chunk_size": 0},
            {"time_budget": 0.0},
            {"early_stop": -1.0},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(SimulationError):
            CampaignConfig(n_simulations=1000, **kwargs)

    def test_fingerprint_excludes_chunk_size(self, kronecker_full):
        small = EvaluationCampaign(
            _evaluator(kronecker_full),
            CampaignConfig(n_simulations=N_SIMS, chunk_size=1_000),
        )
        large = EvaluationCampaign(
            _evaluator(kronecker_full),
            CampaignConfig(n_simulations=N_SIMS, chunk_size=10_000),
        )
        assert small.fingerprint() == large.fingerprint()
