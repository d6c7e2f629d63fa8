"""The README's examples run, and the exit codes the README and the CLI's
docstring list are the ones the CLI defines."""
import re
from pathlib import Path

import pytest

from cliquesep import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)


def listed_codes(text):
    """The codes of the one "Exit codes: ..." sentence in ``text``: each
    number, bare or in backticks, that a word follows."""
    sentences = re.findall(r"Exit codes:(.*?)\.(?:\s|$)", text, re.S)
    assert len(sentences) == 1, sentences
    return sorted(int(c) for c in re.findall(r"`?(\d+)`?\s+[a-z]",
                                             sentences[0]))


def test_readme_has_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(block):
    exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("text", [README, cli.__doc__],
                         ids=["README", "cli_docstring"])
def test_exit_codes_match_the_cli(text):
    defined = sorted(v for k, v in vars(cli).items() if k.startswith("EXIT_"))
    assert listed_codes(text) == defined
