"""The package's public surface: every exported name resolves, and the
README's library quick start runs as written."""

import re
from pathlib import Path

import hiddencluster

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    for name in hiddencluster.__all__:
        getattr(hiddencluster, name)
    namespace = {}
    exec("from hiddencluster import *", namespace)
    assert set(hiddencluster.__all__) <= set(namespace)


def test_readme_quick_start_runs():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None
    exec(compile(block.group(1), f"{README.name} quick start", "exec"), {})
