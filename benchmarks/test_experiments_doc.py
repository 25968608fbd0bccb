"""EXPERIMENTS.md's marked blocks are exactly what ``python -m repro
<artifact>`` prints at the bench data sets on 8 processors, and every
claim in them has a verdict.

Check:    PYTHONPATH=src python -m pytest -q benchmarks/test_experiments_doc.py
Rewrite:  PYTHONPATH=src python benchmarks/test_experiments_doc.py
"""

import functools
import pathlib
import re

from repro.harness import experiments as ex

DOC = pathlib.Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
#: One marked block: the command whose output it holds, then the output.
BLOCK = re.compile(r"(<!-- python -m repro (\w+) -->\n```text\n)(.*?)(```)",
                   re.S)


@functools.lru_cache(maxsize=None)
def marked_rows() -> dict:
    """Each marked artifact's rows, computed once for both tests."""
    return {m[2]: ex.ARTIFACTS[m[2]].rows()
            for m in BLOCK.finditer(DOC.read_text())}


def generated(text: str) -> str:
    return BLOCK.sub(lambda m: m[1] + ex.ARTIFACTS[m[2]].render(
        marked_rows()[m[2]]) + "\n" + m[4], text)


def test_experiments_md_blocks_are_the_generated_output():
    text = DOC.read_text()
    assert set(marked_rows()) == set(ex.ARTIFACTS), "an artifact has no block"
    assert generated(text) == text, "EXPERIMENTS.md is stale: rewrite it " \
        "with PYTHONPATH=src python benchmarks/test_experiments_doc.py"


def test_every_claim_has_a_verdict():
    """Each claim holds, or misses only as far as its cited Known
    deviation explains (tier-1's test_harness checks that the file
    defines every cited deviation)."""
    for name, rows in marked_rows().items():
        for claim in ex.ARTIFACTS[name].claims:
            assert claim.verdict(rows) is not None, f"{claim.id}: no verdict"


if __name__ == "__main__":
    DOC.write_text(generated(DOC.read_text()))
