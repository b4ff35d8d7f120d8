"""The package's public surface: its exports, the README's API table and
the version."""

import inspect
import re
from pathlib import Path

import pytest

import hzeta

ROOT = Path(__file__).resolve().parent.parent


def readme_api_rows() -> list[str]:
    """The function named in each row of README's table of entry points."""
    text = (ROOT / "README.md").read_text()
    table = text.split("Key entry points", 1)[1].split("\n\n", 2)[1]
    return re.findall(r"^\| `(\w+)\(", table, flags=re.MULTILINE)


def test_readme_api_table_matches_exports():
    rows = readme_api_rows()
    exported = {name for name in hzeta.__all__ if inspect.isfunction(getattr(hzeta, name))}
    assert len(rows) == len(set(rows)), "a function has two rows"
    assert exported - set(rows) == set(), "exported functions without a README row"
    assert set(rows) - exported == set(), "README rows naming no exported function"


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert hzeta.__version__ == tomllib.load(fh)["project"]["version"]
