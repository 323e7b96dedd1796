"""The README's library quick start runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_prints_its_commented_lines():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S).group(1)
    want = [
        line.split("# ", 1)[1].strip()
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    assert want == ["KaluzaNumber<1*e6>", "(1024, 992)", "KaluzaNumber<1*e6>", "(512, 576)"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == want
