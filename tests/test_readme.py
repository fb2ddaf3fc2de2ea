"""The README's library example runs as written."""

import re
from pathlib import Path

from ttnmf.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs(tmp_path, monkeypatch):
    # the block after "## Library use", run verbatim on the quick-start data
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--out", "data", "--seed", "42",
                 "--split", "300"]) == 0
    scope = {}
    exec(compile(code, str(README), "exec"), scope)
    x_hat, y_test = scope["x_hat"], scope["y_test"]
    assert x_hat.shape == (scope["routing"].n_pairs, y_test.shape[1])
    assert x_hat.min() >= 0
