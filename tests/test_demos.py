"""Every demo script runs to the end in-process and prints what it printed
when its stdout was pinned: the sha256 of stdout is recorded below.  The
README's quick start prints what its closing comment lines say, and its
command-line synopsis spells every command as `cli.COMMANDS` declares it."""

import argparse
import hashlib
import re
import runpy
from pathlib import Path

import pytest

from cyclicblocks.cli import COMMANDS

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# demo file name -> sha256 of its stdout
DEMO_STDOUT = {
    "01_roots_of_unity.py": (
        "1e0cc0e11d323c387521361a2ac1c207bed7846b8c783adea36c167c2f3d2b59"
    ),
    "02_local_characters.py": (
        "068095b58d15ae15edb1ed7ab0b24529a2fce8de8e496aad635369cba79eebc1"
    ),
    "03_brauer_trees.py": (
        "2d92ae5200d0eb880919540eef14529aac00dbdb3fb1731f69e67995b051df66"
    ),
    "04_trivial_source_modules.py": (
        "052c800578ab3b77c61bb06f2488aa25742e11a0e6fb5efc2e4831d71e6d8236"
    ),
    "05_consistency_oracle.py": (
        "cf1eadb7722c80a1b4e0c994854acad3adaeb13be1cc9cc93e50f4f72e65d585"
    ),
}


def test_demos_are_found():
    assert len(DEMOS) >= 5
    assert {demo.name for demo in DEMOS} == set(DEMO_STDOUT)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    captured = capsys.readouterr()
    assert captured.err == ""
    digest = hashlib.sha256(captured.out.encode("utf-8")).hexdigest()
    assert digest == DEMO_STDOUT[demo.name]


def test_readme_quick_start_prints_what_it_says(capsys):
    # the first python block under "## Quick start"; the comment lines that
    # close it are the output it promises
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    promised = []
    while lines[-1].startswith("# "):
        promised.insert(0, lines.pop()[2:])
    assert promised
    exec(compile(block, "README.md", "exec"), {})
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == promised


def _synopsis() -> dict[str, str]:
    """Each command's line in the README's `## Command line` block, after
    its `cyclicblocks <command>`."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1]
    block = section.split("```\n", 1)[1].split("```", 1)[0]
    lines = [line.split(None, 2) for line in block.splitlines()]
    return {words[1]: words[2] if len(words) > 2 else "" for words in lines}


def _spelled(text: str, word: str) -> bool:
    """Whether `word` stands in `text` as a whole word."""
    return re.search(rf"(?<![\w-]){re.escape(word)}(?![\w-])", text) is not None


@pytest.mark.parametrize("name", COMMANDS)
def test_readme_synopsis_names_every_argument_of_each_command(name):
    # an option by name, a positional by its name in capitals, a choices
    # argument by its choices joined with "|", an oracle option with its
    # default; an argument suppressed from help need not appear
    line = _synopsis()[name]
    for arg, keywords in COMMANDS[name].arguments.items():
        if keywords.get("help") == argparse.SUPPRESS:
            continue
        if arg.startswith("-"):
            assert _spelled(line, arg), arg
        elif "choices" not in keywords:
            assert _spelled(line, arg.upper()), arg
        if "choices" in keywords:
            assert _spelled(line, "|".join(keywords["choices"])), arg
        if name == "oracle":
            default = keywords["default"]
            if isinstance(default, tuple):
                default = " ".join(map(str, default))
            assert f"[{arg} {default}]" in line, arg
