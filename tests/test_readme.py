"""The README's library tour runs as written."""

import doctest
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_tour_runs_as_a_doctest():
    # Only the python block is parsed: doctest.testfile would read the
    # closing fence as the last example's expected output.
    text = README.read_text(encoding="utf-8")
    (block,) = re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S)
    lineno = text.count("\n", 0, block.start(1))
    test = doctest.DocTestParser().get_doctest(block[1], {}, "README tour", str(README), lineno)
    report = io.StringIO()
    results = doctest.DocTestRunner().run(test, out=report.write)
    assert (results.failed, results.attempted) == (0, 6), report.getvalue()
