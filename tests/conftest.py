import re
from pathlib import Path

import pytest

from cmgamma.constants import DEFAULT_CONSTANTS_PATH, load_constants


@pytest.fixture(scope="session")
def consts():
    return load_constants()


@pytest.fixture
def mutate_constants(tmp_path):
    """Write a copy of the constants file with one literal token replaced.

    Returns a function (old_line_regex, replacement, *more) -> Path of the
    mutated file; exactly one line must match.  Each of more is a further
    (old_line_regex, replacement) pair, applied the same way.
    """
    def _mutate(pattern: str, replacement: str, *more: tuple[str, str]) -> Path:
        text = DEFAULT_CONSTANTS_PATH.read_text()
        lines = text.splitlines()
        for old, new in ((pattern, replacement), *more):
            hits = [i for i, line in enumerate(lines) if re.fullmatch(old, line)]
            assert len(hits) == 1, f"pattern {old!r} matched {len(hits)} lines"
            lines[hits[0]] = new
        out = tmp_path / "mutated_constants.txt"
        out.write_text("\n".join(lines) + "\n")
        return out

    return _mutate
