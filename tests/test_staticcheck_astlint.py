"""AST invariant-checker tests: every rule, scoping subtleties, and
``# repro: noqa`` suppression accounting."""

from __future__ import annotations

import textwrap

import pytest

from repro.staticcheck import AST_RULES, Severity, lint_paths, lint_source


def rules_of(findings, *, include_suppressed: bool = False):
    return sorted({
        f.rule for f in findings if include_suppressed or not f.suppressed
    })


def lint(code: str, path: str = "src/repro/service/mod.py"):
    return lint_source(textwrap.dedent(code), path)


class TestBlockingInAsync:
    def test_time_sleep_in_async_service_code(self):
        findings = lint("""
            import time
            async def handler():
                time.sleep(1)
        """)
        assert rules_of(findings) == ["AST101"]

    def test_storage_backed_manager_call(self):
        findings = lint("""
            class H:
                async def host(self, sid):
                    return self.manager.meta(sid)
        """)
        assert rules_of(findings) == ["AST101"]

    def test_to_thread_dispatch_is_the_fix(self):
        findings = lint("""
            import asyncio
            class H:
                async def host(self, sid):
                    return await asyncio.to_thread(self.manager.meta, sid)
        """)
        assert findings == []

    def test_open_and_read_text_block(self):
        findings = lint("""
            async def handler(p):
                open("f").read()
                p.read_text()
        """)
        assert [f.rule for f in findings] == ["AST101", "AST101"]

    def test_sync_def_nested_in_async_leaves_scope(self):
        # The inner sync function typically runs on a worker thread; calls
        # inside it are not event-loop hazards.
        findings = lint("""
            import time
            async def handler():
                def work():
                    time.sleep(1)
                return work
        """)
        assert findings == []

    def test_sync_code_never_flagged(self):
        findings = lint("""
            import time
            def handler():
                time.sleep(1)
        """)
        assert findings == []

    def test_non_service_paths_exempt(self):
        findings = lint("""
            import time
            async def handler():
                time.sleep(1)
        """, path="src/repro/optimizers/mod.py")
        assert findings == []


class TestRngHygiene:
    def test_numpy_global_seed_and_draw(self):
        findings = lint("""
            import numpy as np
            np.random.seed(0)
            x = np.random.rand(3)
        """, path="src/repro/anywhere.py")
        assert [f.rule for f in findings] == ["AST201", "AST201"]

    def test_stdlib_random_module_calls(self):
        findings = lint("""
            import random
            random.seed(1)
            v = random.random()
        """, path="src/repro/anywhere.py")
        assert [f.rule for f in findings] == ["AST202", "AST202"]

    def test_unseeded_default_rng_warns(self):
        findings = lint("""
            import numpy as np
            rng = np.random.default_rng()
        """, path="src/repro/anywhere.py")
        assert rules_of(findings) == ["AST203"]
        assert findings[0].severity is Severity.WARNING

    def test_seeded_default_rng_and_generator_methods_clean(self):
        findings = lint("""
            import numpy as np
            rng = np.random.default_rng(42)
            x = rng.normal(size=3)
            y = np.random.default_rng(seed)
        """, path="src/repro/anywhere.py")
        assert findings == []

    def test_instance_rng_seed_not_confused_with_global(self):
        findings = lint("""
            r = random.Random(3)
            v = r.random()
        """, path="src/repro/anywhere.py")
        assert findings == []


class TestSwallowedExceptions:
    def test_bare_except_pass_in_service(self):
        findings = lint("""
            def f():
                try:
                    g()
                except:
                    pass
        """)
        assert rules_of(findings) == ["AST301"]

    def test_broad_except_without_evidence_in_executor(self):
        findings = lint("""
            def f():
                try:
                    g()
                except Exception:
                    result = None
        """, path="src/repro/execution/retry.py")
        assert rules_of(findings) == ["AST301"]

    def test_reraise_counts_as_evidence(self):
        findings = lint("""
            def f():
                try:
                    g()
                except Exception as err:
                    raise RuntimeError("wrapped") from err
        """)
        assert findings == []

    def test_metric_or_event_counts_as_evidence(self):
        findings = lint("""
            def f(self):
                try:
                    g()
                except Exception:
                    self.metrics.inc("service.requests.crashed")
        """)
        assert findings == []

    def test_narrow_except_is_fine(self):
        findings = lint("""
            def f():
                try:
                    g()
                except ValueError:
                    pass
        """)
        assert findings == []

    @pytest.mark.parametrize("package", ["optimizers", "online", "core"])
    def test_broad_except_as_fallback_in_tuner_code(self, package):
        findings = lint("""
            def move(self, values):
                try:
                    return self.space.make(values)
                except Exception:
                    return self.current
        """, path=f"src/repro/{package}/mod.py")
        assert rules_of(findings) == ["AST301"]

    def test_library_code_outside_scope(self):
        findings = lint("""
            def f():
                try:
                    g()
                except Exception:
                    pass
        """, path="src/repro/sysim/mod.py")
        assert findings == []


class TestTelemetryNames:
    def test_registered_span_and_event_names_pass(self):
        findings = lint("""
            def f(trace):
                with trace.span("optimizer.suggest"):
                    trace.emit_event("executor.timeout")
        """, path="src/repro/anywhere.py")
        assert findings == []

    def test_typo_span_name_flagged(self):
        findings = lint("""
            def f(trace):
                with trace.span("optimzer.sugest"):
                    pass
        """, path="src/repro/anywhere.py")
        assert rules_of(findings) == ["AST401"]
        assert "SPAN_NAMES" in findings[0].message

    def test_unregistered_event_kind_flagged(self):
        findings = lint("""
            def f(trace):
                trace.emit_event("totally.new.event")
        """, path="src/repro/anywhere.py")
        assert rules_of(findings) == ["AST401"]

    def test_dynamic_names_not_checkable(self):
        findings = lint("""
            def f(trace, name):
                trace.emit_event(name)
        """, path="src/repro/anywhere.py")
        assert findings == []


class TestSuppression:
    def test_noqa_marks_finding_suppressed(self):
        findings = lint("""
            import numpy as np
            rng = np.random.default_rng()  # repro: noqa AST203
        """, path="src/repro/anywhere.py")
        assert len(findings) == 1 and findings[0].suppressed

    def test_noqa_for_other_rule_does_not_apply(self):
        findings = lint("""
            import numpy as np
            rng = np.random.default_rng()  # repro: noqa AST101
        """, path="src/repro/anywhere.py")
        assert len(findings) == 1 and not findings[0].suppressed

    def test_noqa_multiple_rules(self):
        findings = lint("""
            import time
            async def handler():
                time.sleep(1)  # repro: noqa AST101, AST203
        """)
        assert len(findings) == 1 and findings[0].suppressed


class TestReportAndPaths:
    def test_lint_paths_aggregates_and_counts_suppressed(self, tmp_path):
        service = tmp_path / "repro" / "service"
        service.mkdir(parents=True)
        (service / "bad.py").write_text(textwrap.dedent("""
            import time
            async def handler():
                time.sleep(1)
        """))
        (service / "waived.py").write_text(textwrap.dedent("""
            import numpy as np
            rng = np.random.default_rng()  # repro: noqa AST203
        """))
        (tmp_path / "note.txt").write_text("not python")
        report = lint_paths([tmp_path], root=tmp_path)
        assert len(report.errors) == 1
        assert report.errors[0].rule == "AST101"
        assert len(report.suppressed) == 1
        assert not report.ok
        # Subjects are root-relative path:line anchors.
        assert report.errors[0].subject.startswith("repro/service/bad.py:")
        summary = report.summary()
        assert "1 error(s)" in summary and "suppressed" in summary

    def test_syntax_error_is_reported_not_raised(self):
        findings = lint_source("def broken(:\n", path="src/repro/bad.py")
        assert len(findings) == 1 and findings[0].severity is Severity.ERROR

    def test_own_tree_is_clean(self):
        # The acceptance criterion: the shipped tree passes its own linter.
        report = lint_paths(["src"])
        assert report.ok, report.format()

    def test_rule_catalog_is_well_formed(self):
        for rule, (severity, desc) in AST_RULES.items():
            assert rule.startswith("AST") and isinstance(severity, Severity) and desc


class TestLoopSampling:
    """AST204: per-iteration space.sample/neighbor in optimizer loops."""

    OPT = "src/repro/optimizers/mod.py"

    def test_sample_in_for_loop(self):
        findings = lint("""
            def suggest(self):
                out = []
                for _ in range(512):
                    out.append(self.space.sample(self.rng))
                return out
        """, path=self.OPT)
        assert rules_of(findings) == ["AST204"]
        assert findings[0].severity is Severity.WARNING
        assert "sample_many" in findings[0].hint

    def test_neighbor_in_comprehension(self):
        findings = lint("""
            def candidates(self, best):
                return [self.space.neighbor(best, self.rng) for _ in range(64)]
        """, path=self.OPT)
        assert rules_of(findings) == ["AST204"]
        assert "neighbor_many" in findings[0].hint

    def test_while_loop_flagged(self):
        findings = lint("""
            def fill(self):
                while len(self.pool) < 10:
                    self.pool.append(self.space.sample(self.rng))
        """, path=self.OPT)
        assert rules_of(findings) == ["AST204"]

    def test_single_draw_outside_loop_clean(self):
        findings = lint("""
            def suggest(self):
                return self.space.sample(self.rng)
        """, path=self.OPT)
        assert findings == []

    def test_loop_iterable_evaluates_once(self):
        # The iterable expression runs once, before the loop body.
        findings = lint("""
            def walk(self):
                for knob in self.space.sample(self.rng):
                    use(knob)
        """, path=self.OPT)
        assert findings == []

    def test_batched_calls_clean(self):
        findings = lint("""
            def suggest(self):
                for _ in range(3):
                    cands = self.space.sample_many(512, self.rng)
                return cands
        """, path=self.OPT)
        assert findings == []

    def test_non_space_receiver_clean(self):
        # random.sample / list methods named sample are not the space API.
        findings = lint("""
            def pick(self, population):
                for _ in range(4):
                    yield self.sampler.sample(population)
        """, path=self.OPT)
        assert findings == []

    def test_non_optimizer_paths_exempt(self):
        findings = lint("""
            def suggest(self):
                for _ in range(512):
                    yield self.space.sample(self.rng)
        """, path="src/repro/analysis/mod.py")
        assert findings == []

    def test_noqa_suppression_accounted(self):
        findings = lint("""
            def suggest(self):
                for _ in range(2):
                    yield self.space.sample(self.rng)  # repro: noqa AST204
        """, path=self.OPT)
        assert rules_of(findings) == []
        assert rules_of(findings, include_suppressed=True) == ["AST204"]


class TestRetrySleepInService:
    def test_asyncio_sleep_in_retry_loop_fires(self):
        findings = lint("""
            import asyncio
            async def retry():
                for attempt in range(5):
                    await asyncio.sleep(0.2)
        """)
        assert rules_of(findings) == ["AST105"]
        assert all(f.severity is Severity.WARNING for f in findings)

    def test_policy_delay_argument_is_exempt(self):
        findings = lint("""
            import asyncio
            async def retry(policy, rng):
                for attempt in range(5):
                    await asyncio.sleep(policy.delay(attempt, rng=rng))
        """)
        assert findings == []

    def test_sleep_outside_loop_is_fine(self):
        findings = lint("""
            import asyncio
            async def once():
                await asyncio.sleep(0.1)
        """)
        assert findings == []

    def test_while_loop_time_sleep_in_sync_service_helper(self):
        findings = lint("""
            import time
            def wait_for_port():
                while True:
                    time.sleep(0.5)
        """)
        assert rules_of(findings) == ["AST105"]

    def test_outside_service_tree_not_checked(self):
        findings = lint("""
            import asyncio
            async def retry():
                for _ in range(3):
                    await asyncio.sleep(0.2)
        """, path="src/repro/core/mod.py")
        assert findings == []

    def test_noqa_suppression_accounted(self):
        findings = lint("""
            import asyncio
            async def retry():
                for _ in range(3):
                    await asyncio.sleep(0.2)  # repro: noqa AST105
        """)
        assert rules_of(findings) == []
        assert rules_of(findings, include_suppressed=True) == ["AST105"]
