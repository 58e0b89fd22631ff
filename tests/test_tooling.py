"""The test configuration itself: how a failure reaches the report."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_is_reported_not_an_internal_error(pytester):
    # hypothesis reports a falsifying example through a module whose imports
    # warn; under the repo's warning filters that must not end the session
    filters = tomllib.loads(PYPROJECT.read_text())["tool"]["pytest"]["ini_options"][
        "filterwarnings"
    ]
    pytester.makepyprojecttoml(
        f"[tool.pytest.ini_options]\nfilterwarnings = {json.dumps(filters)}\n"
    )
    pytester.makepyfile(
        test_property="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_negative(n):
            assert n < 0
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=1)
