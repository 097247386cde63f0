"""Wiring tests: the space linter at session-create time (library and
service), the structured serialisation errors, and the lint CLI."""

from __future__ import annotations

import asyncio

import pytest

from repro.cli import main as cli_main
from repro.core.manager import SessionManager
from repro.core.stores import MemoryTrialStore
from repro.service.client import ServiceClient, ServiceError
from repro.service.handlers import ServiceHandlers
from repro.service.server import TuningServer
from repro.space import ConfigurationSpace, FloatParameter
from repro.space.conditions import (
    CallableCondition,
    GreaterThanCondition,
    LessThanCondition,
)
from repro.space.constraints import CallableConstraint, LinearConstraint
from repro.space.serialize import SpaceCodecError, space_to_dict
from repro.staticcheck import SpaceLintError


def dead_param_space() -> ConfigurationSpace:
    """x > 6 AND x < 4 — 'c' can never activate (SP203, ERROR)."""
    space = ConfigurationSpace("doomed", seed=0)
    space.add(FloatParameter("x", 0.0, 10.0, default=5.0))
    space.add(FloatParameter("c", 0.0, 1.0, default=0.5))
    space.add_condition(GreaterThanCondition("c", "x", 6.0))
    space.add_condition(LessThanCondition("c", "x", 4.0))
    return space


def warn_only_space() -> ConfigurationSpace:
    """A vacuous and an opaque constraint — WARNING-severity findings only (SP302/SP402)."""
    space = ConfigurationSpace("loose", seed=0)
    space.add(FloatParameter("x", 0.0, 10.0, default=5.0))
    space.add_constraint(LinearConstraint({"x": 1.0}, bound=1000.0, name="loose"))
    space.add_constraint(CallableConstraint(lambda v: v["x"] < 1000.0, name="cap"))
    return space


class TestManagerWiring:
    def test_create_warns_by_default_and_attaches_report(self):
        manager = SessionManager(MemoryTrialStore())
        with pytest.warns(UserWarning, match="SP203"):
            session = manager.create(dead_param_space(), max_trials=5)
        assert session.lint_report is not None
        assert not session.lint_report.ok
        assert {f.rule for f in session.lint_report.errors} == {"SP203"}

    def test_strict_create_rejects_with_rule_id(self):
        manager = SessionManager(MemoryTrialStore())
        with pytest.raises(SpaceLintError) as err:
            manager.create(dead_param_space(), strict=True)
        assert "SP203" in str(err.value)
        assert "SP203" in err.value.rules
        assert not err.value.report.ok
        # Nothing was persisted: the reject happens before the store write.
        assert manager.list_sessions() == []

    def test_strict_allows_warning_level_findings(self):
        manager = SessionManager(MemoryTrialStore())
        with pytest.warns(UserWarning):
            session = manager.create(warn_only_space(), strict=True, max_trials=5)
        assert session.lint_report.ok and not session.lint_report.clean

    def test_lint_ignore_suppresses_rule(self):
        manager = SessionManager(MemoryTrialStore())
        session = manager.create(
            dead_param_space(), strict=True, lint_ignore=["SP203"], max_trials=5
        )
        assert session.lint_report.ok
        assert {f.rule for f in session.lint_report.suppressed} == {"SP203"}

    def test_lint_false_skips_entirely(self):
        manager = SessionManager(MemoryTrialStore())
        session = manager.create(dead_param_space(), lint=False, max_trials=5)
        assert session.lint_report is None

    def test_clean_space_creates_without_warning(self):
        manager = SessionManager(MemoryTrialStore())
        space = ConfigurationSpace("ok", seed=0)
        space.add(FloatParameter("x", 0.0, 1.0, default=0.5))
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            session = manager.create(space, max_trials=5)
        assert session.lint_report.clean


class TestServiceWiring:
    @staticmethod
    async def _start():
        server = TuningServer(ServiceHandlers(SessionManager(MemoryTrialStore())), port=0)
        await server.start()
        return server, ServiceClient(server.host, server.port, timeout_s=10)

    def test_strict_create_is_http_400_with_rule_id(self):
        async def main():
            server, client = await self._start()
            try:
                with pytest.raises(ServiceError) as err:
                    await client.create_session(
                        space=space_to_dict(dead_param_space()), strict=True
                    )
                assert err.value.status == 400
                assert "SP203" in str(err.value)
                assert await client.list_sessions() == []
            finally:
                await server.stop()

        asyncio.run(main())

    def test_default_create_reports_findings_in_response(self):
        async def main():
            server, client = await self._start()
            try:
                created = await client.create_session(
                    space=space_to_dict(dead_param_space()), session_id="s1"
                )
                assert created["session_id"] == "s1"
                rules = {f["rule"] for f in created["lint"]["findings"]}
                assert "SP203" in rules
            finally:
                await server.stop()

        asyncio.run(main())

    def test_lint_ignore_passes_through_the_wire(self):
        async def main():
            server, client = await self._start()
            try:
                created = await client.create_session(
                    space=space_to_dict(dead_param_space()),
                    strict=True,
                    lint_ignore=["SP203"],
                    session_id="s2",
                )
                assert created["session_id"] == "s2"
            finally:
                await server.stop()

        asyncio.run(main())


class TestSerializeErrors:
    def test_callable_condition_error_names_parameter_and_rule(self):
        space = ConfigurationSpace("s")
        space.add(FloatParameter("p", 0.0, 1.0, default=0.5))
        space.add(FloatParameter("child", 0.0, 1.0, default=0.5))
        space.add_condition(CallableCondition("child", "p", lambda v: v > 0.5))
        with pytest.raises(SpaceCodecError) as err:
            space_to_dict(space)
        assert err.value.rule == "SP401"
        assert err.value.subject == "child"
        assert "SP401" in str(err.value) and "'child'" in str(err.value)
        assert "strict=False" in str(err.value)

    def test_constraint_error_names_constraint_and_rule(self):
        space = warn_only_space()
        with pytest.raises(SpaceCodecError) as err:
            space_to_dict(space)
        assert err.value.rule == "SP402"
        assert err.value.subject == "cap"
        assert "SP402" in str(err.value) and "'cap'" in str(err.value)

    def test_non_strict_drops_and_lists(self):
        space = warn_only_space()
        data = space_to_dict(space, strict=False)
        assert len(data["dropped"]) == 1


class TestLintCli:
    def test_lint_code_clean_tree(self, capsys):
        assert cli_main(["lint", "code", "src/repro/staticcheck"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_lint_code_flags_violation(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "service" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nasync def h():\n    time.sleep(1)\n")
        assert cli_main(["lint", "code", str(bad)]) == 1
        assert "AST101" in capsys.readouterr().out

    def test_lint_space_all_registered_targets(self, capsys):
        assert cli_main(["lint", "space"]) == 0
        out = capsys.readouterr().out
        for name in ("dbms", "redis", "nginx", "spark"):
            assert f"lint {name}:" in out

    def test_lint_space_single_system_with_ignore(self, capsys):
        assert cli_main(["lint", "space", "--system", "dbms", "--ignore", "SP402"]) == 0
        # Nothing left to suppress: the DBMS space's linear constraint serialises.
        assert capsys.readouterr().out == "lint dbms: 0 error(s), 0 warning(s)\n"
