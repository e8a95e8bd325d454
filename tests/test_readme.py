"""README's examples run, and the names it quotes exist.

Every python block and every command-line example line runs, and every
backticked ``module.name`` of a ``dualrail`` module resolves.  A renamed or
deleted function, subcommand or flag that the README still shows fails here.
"""

import importlib
import pathlib
import pkgutil
import re
import shlex

import pytest

import dualrail
from dualrail import cli

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", README, re.S)
# each line starting "dualrail " in a command block under "## Command line"
_COMMAND_SECTION = README.partition("\n## Command line\n")[2].partition("\n## ")[0]
COMMAND_LINES = [shlex.split(line, comments=True)
                 for block in re.findall(r"```\n(.*?)```", _COMMAND_SECTION, re.S)
                 for line in block.splitlines() if line.startswith("dualrail ")]
MODULES = {module.name for module in pkgutil.iter_modules(dualrail.__path__)}
# each backticked `module.name`, such as `machine.stages(config)`, whose module is a dualrail one
QUOTED_NAMES = sorted({(module, name) for module, name in re.findall(r"`(\w+)\.(\w+)", README)
                       if module in MODULES})


def test_readme_holds_python_blocks_and_command_lines():
    assert PYTHON_BLOCKS, "README.md holds no python block"
    assert COMMAND_LINES, "README.md's command line section holds no dualrail line"
    assert QUOTED_NAMES, "README.md quotes no `module.name` of dualrail"


@pytest.mark.parametrize("module, name", QUOTED_NAMES, ids=[".".join(q) for q in QUOTED_NAMES])
def test_readme_quoted_name_resolves(module, name):
    assert hasattr(importlib.import_module(f"dualrail.{module}"), name)


@pytest.mark.parametrize("block", PYTHON_BLOCKS,
                         ids=[f"block{i}" for i in range(len(PYTHON_BLOCKS))])
def test_readme_python_block_runs(block):
    exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("argv", COMMAND_LINES, ids=[" ".join(a[1:]) for a in COMMAND_LINES])
def test_readme_command_line_exits_0(argv, tmp_path, monkeypatch):
    (tmp_path / "results").mkdir()
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv[1:]) == 0
