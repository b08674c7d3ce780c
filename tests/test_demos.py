"""The walkthroughs in demos/ run against the public API."""

import contextlib
import io
import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert [d.name for d in DEMOS] == [
        "demo_baire.py", "demo_hi.py", "demo_tsirelson.py",
    ]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue().strip()
