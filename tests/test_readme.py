"""README examples: every `$ diqkd-cc ...` line of the "Command line" block
that is directly followed by printed output runs through cli.main, and its
stdout must match the printed lines exactly. Examples that write files
(`--out`) or elide arguments (`...`) print nothing to compare and are skipped."""
import shlex
from pathlib import Path

import pytest

from diqkd_cc.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples() -> list[tuple[list[str], str]]:
    block = README.read_text().split("## Command line", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    examples = []
    for i, line in enumerate(lines):
        if not line.startswith("$ diqkd-cc "):
            continue
        argv = shlex.split(line[2:], comments=True)[1:]
        output = []
        for out in lines[i + 1:]:
            if not out.strip() or out.lstrip().startswith(("#", "$")):
                break
            output.append(out)
        if output and "--out" not in argv and "..." not in argv:
            examples.append((argv, "".join(f"{out}\n" for out in output)))
    return examples


EXAMPLES = _examples()


def test_examples_are_found():
    assert [argv[0] for argv, _ in EXAMPLES] == [
        "idmax", "vcrit", "vcrit", "table", "check-local", "check-local", "asymptotic"]


@pytest.mark.parametrize("argv, expected", EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_readme_example_output(argv, expected, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
