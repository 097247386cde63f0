"""The one model-based suggest loop: recorded behaviour and shared machinery.

The goldens under ``tests/data/`` were recorded *before* the seven optimizers
were moved onto :class:`~repro.optimizers.ModelBasedOptimizer` (see
``tests/data/make_suggest_goldens.py``); every class must keep reproducing
them bit for bit, and the two recorded journals must keep replaying clean.
"""

from __future__ import annotations

import inspect
import json
import shutil

import pytest

from repro.core import SessionManager
from repro.core.stores import JsonJournalStore
from repro.optimizers import BayesianOptimizer, ModelBasedOptimizer, MultiFidelityBO
from repro.optimizers.parego import _ScalarizingBO
from repro.telemetry import SessionTrace

from .conftest import assert_healthy
from .data.make_suggest_goldens import (
    GOLDEN_PATH,
    JOURNAL_DIR,
    JOURNAL_SESSIONS,
    build_optimizers,
    run_script,
)

GOLDENS = json.loads(GOLDEN_PATH.read_text())
NAMES = sorted(GOLDENS)


def test_goldens_cover_every_class():
    assert NAMES == sorted(build_optimizers())
    for golden in GOLDENS.values():
        assert len(golden["suggestions"]) >= 12


@pytest.mark.parametrize("name", NAMES)
def test_reproduces_recorded_suggestions_and_digest(name):
    optimizer = build_optimizers()[name]
    result = run_script(optimizer)
    assert_healthy(optimizer)
    golden = GOLDENS[name]
    assert result["suggestions"] == golden["suggestions"]
    assert result["digest_state"] == golden["digest_state"]
    assert result["digest"] == golden["digest"]


@pytest.mark.parametrize("optimizer", sorted(JOURNAL_SESSIONS))
def test_recorded_journal_replays_without_divergence(optimizer, tmp_path):
    session_id = JOURNAL_SESSIONS[optimizer]
    for path in JOURNAL_DIR.glob(f"{session_id}.*"):
        shutil.copy(path, tmp_path / path.name)  # never open the recording for writing
    manager = SessionManager(JsonJournalStore(tmp_path, fsync=False))
    records = manager.store.load_trials(session_id)
    assert len(records) >= 30
    assert any(r["status"] == "failed" for r in records)
    assert any(r["provenance"]["ask"]["n"] == 3 for r in records)
    report = manager.replay_session(session_id)
    assert report.ok, report.format()
    assert report.divergence is None
    assert report.n_verified == len(records)
    # Replay only proves the journal self-consistent; resuming it fits the
    # surrogate on the whole recorded history, which must not degrade either.
    resumed = manager.resume(session_id)
    resumed.ask()
    assert_healthy(resumed.optimizer)


class TestSharedMachinery:
    def test_one_loop(self):
        """No optimizer re-types the loop: ``_suggest`` lives in the base only."""
        for opt in build_optimizers().values():
            owners = [c for c in type(opt).__mro__ if "_suggest" in vars(c) and c is not object]
            assert owners[0] is ModelBasedOptimizer, type(opt).__name__
        assert "_suggest" not in vars(_ScalarizingBO)

    def test_one_pick(self):
        """Techniques override ``_scores``; only multi-fidelity picks a (level, candidate) pair itself."""
        for opt in build_optimizers().values():
            owner = next(c for c in type(opt).__mro__ if "_pick" in vars(c))
            assert owner is (MultiFidelityBO if isinstance(opt, MultiFidelityBO) else ModelBasedOptimizer)

    @pytest.mark.parametrize(
        "name",
        ["ConstrainedBayesianOptimizer", "LinearScalarizationOptimizer", "MultiTaskOptimizer", "ParEGOOptimizer"],
    )
    def test_the_gp_family_gets_bo_fit(self, name):
        """ParEGO, linear, constrained and multi-task BO are BO, so they condition
        between hyper-fits through the incremental Cholesky."""
        opt = build_optimizers()[name]
        assert isinstance(opt, BayesianOptimizer)
        run_script(opt)
        assert opt.surrogate_stats()["cholesky_incremental"] > 0

    def test_the_loop_branches_on_no_technique(self):
        source = inspect.getsource(ModelBasedOptimizer._suggest)
        assert "isinstance" not in source and "__name__" not in source

    @pytest.mark.parametrize("name", NAMES)
    def test_spans_stats_and_cache_come_from_the_base(self, name):
        opt = build_optimizers()[name]
        trace = SessionTrace()
        with trace.activated():
            result = run_script(opt)
        spans = {op.name for op in trace.ops}
        assert {"surrogate.fit", "acquisition.optimize"} <= spans
        assert_healthy(opt)
        assert opt.surrogate_stats()["encode_cache_misses"] > 0
        assert opt._encoding_cache.encoder is opt.encoder
        # The blocking work gate: same suggestions from more fits, kernel
        # constructions or full factorisations is a regression too.
        assert result["counters"] == GOLDENS[name]["counters"]
