"""The README's Python tour runs as written, so the API it shows
(``recognize(quotient_names=)``, ``TStarExtension.dual_ideal``) cannot
change unnoticed."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_tour_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.S | re.M)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["dec"].parity_case == "even"
    assert namespace["ext3"].base.basis.names == ("e1", "e2", "e3")
