"""The sources parse as the oldest Python that pyproject.toml admits.

Tier-1 runs on one interpreter, so syntax newer than `requires-python`
would pass here and fail on the floor; `ast.parse` with `feature_version`
refuses it on any interpreter.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = tuple(int(part) for part in re.search(
    r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()).groups())
SOURCES = sorted(path for tree in ("src", "tests", "demos", "perfbench") for path in (ROOT / tree).rglob("*.py"))


def test_the_floor_is_3_10_and_every_tree_has_sources():
    assert FLOOR == (3, 10)
    assert {path.relative_to(ROOT).parts[0] for path in SOURCES} == {"src", "tests", "demos", "perfbench"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_source_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)
