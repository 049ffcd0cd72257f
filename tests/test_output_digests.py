"""Byte stability: every output of the byte-identity set of
`tools/output_digests.py` has the digest and exit code committed in
`tests/golden/output_digests.txt`."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL_PATH = ROOT / "tools" / "output_digests.py"
GOLDEN_PATH = ROOT / "tests" / "golden" / "output_digests.txt"


def test_outputs_match_the_golden_digests():
    spec = importlib.util.spec_from_file_location("output_digests", TOOL_PATH)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    golden = GOLDEN_PATH.read_text(encoding="utf-8").splitlines()
    lines = list(tool.digest_lines())
    # a line is `<stdout sha256>  <stderr sha256>  rc=<code>  <command>`
    changed = [got.split("  ", 3)[-1]
               for want, got in zip(golden, lines) if want != got]
    assert not changed and len(lines) == len(golden), (
        f"{len(changed)} of {len(golden)} golden lines differ, {len(lines)} "
        "lines made; regenerate the file only for an intended change.\n"
        "Changed commands:\n" + "\n".join(changed))
