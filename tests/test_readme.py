"""The README's Python examples, run as doctests."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_as_doctests():
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S))
    assert blocks
    parser, runner, report = doctest.DocTestParser(), doctest.DocTestRunner(), []
    for block in blocks:
        lineno = text.count("\n", 0, block.start(1))
        test = parser.get_doctest(block[1], {}, f"README.md:{lineno + 1}", str(README), lineno)
        # a block with no example would pass without running anything
        assert test.examples, test.name
        runner.run(test, out=report.append)
    assert runner.summarize(verbose=False).failed == 0, "".join(report)
