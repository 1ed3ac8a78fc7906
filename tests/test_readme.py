"""The README's Python examples run as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_examples_run(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    # in an empty directory, so no example leans on files of the checkout
    monkeypatch.chdir(tmp_path)
    for number, code in enumerate(blocks, 1):
        exec(compile(code, f"README.md python block {number}", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out
