"""The README's library examples run as written.

Its python blocks run in order in one namespace, as a reader would paste
them, so a renamed or broken documented call fails here.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 3
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k + 1}", "exec"), namespace)
    assert (tmp_path / "rate-zero.json").exists()
