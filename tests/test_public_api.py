"""Sanity tests for the package-level public API and exception hierarchy."""

from __future__ import annotations

import pytest

import repro
from repro import exceptions


class TestPublicApi:
    def test_version_is_exposed(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"{name} listed in __all__ but missing"

    def test_key_entry_points_importable(self):
        assert callable(repro.run_sweep)
        assert callable(repro.build_workload)
        assert callable(repro.default_config)
        assert callable(repro.format_comparison_table)

    def test_default_config_round_trip(self):
        config = repro.default_config("NYC")
        assert config.num_orders > 0
        assert config.deadline_scale == pytest.approx(1.6)


class TestExceptionHierarchy:
    def test_all_library_errors_derive_from_repro_error(self):
        for name in dir(exceptions):
            obj = getattr(exceptions, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is not exceptions.ReproError:
                    assert issubclass(obj, exceptions.ReproError) or obj in (
                        Exception,
                    ), name

    def test_specific_errors_carry_context(self):
        error = exceptions.UnknownNodeError(42)
        assert error.node_id == 42
        assert "42" in str(error)
        unreachable = exceptions.UnreachableError(1, 2)
        assert (unreachable.source, unreachable.target) == (1, 2)
        duplicate = exceptions.DuplicateOrderError(7)
        assert duplicate.order_id == 7
        missing = exceptions.MissingOrderError(9)
        assert missing.order_id == 9

    def test_catching_the_base_class_catches_everything(self):
        with pytest.raises(exceptions.ReproError):
            raise exceptions.InfeasibleGroupError("no route")
        with pytest.raises(exceptions.ReproError):
            raise exceptions.DatasetError("bad data")


def test_runtime_imports_leave_networkx_unloaded():
    """The library and its CLI run without networkx: the tests alone use it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    probe = (
        "import sys, repro.cli, repro.api; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'networkx'))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert completed.stdout.strip() == "[]"
