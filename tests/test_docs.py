"""The README's library example runs as printed, and the public API it
draws on resolves."""

import ast
import re
from pathlib import Path

import cmgamma

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    *body, last = ast.parse(block).body
    namespace = {}
    exec(compile(ast.Module(body, []), "README.md", "exec"), namespace)
    # the block ends with `replay_proof().overall  # True`
    assert eval(compile(ast.Expression(last.value), "README.md", "eval"),
                namespace) is True


def test_public_names_resolve_once():
    assert len(set(cmgamma.__all__)) == len(cmgamma.__all__)
    for name in cmgamma.__all__:
        assert hasattr(cmgamma, name), name
    assert set(cmgamma.__all__) <= set(dir(cmgamma))
    assert not hasattr(cmgamma, "verify_initial_values")  # a certificate fragment
