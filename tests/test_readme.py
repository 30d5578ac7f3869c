"""The README's library example runs, its config example parses, and every
exported name exists."""

import re
from pathlib import Path

import socialcell
from socialcell.config import load_config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_block_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})


def test_readme_config_block_parses(tmp_path):
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```ini\n(.*?)```", text, re.DOTALL)
    assert blocks
    path = tmp_path / "readme.cfg"
    for block in blocks:
        path.write_text(block, encoding="utf-8")
        load_config(str(path))


def test_every_exported_name_imports():
    for name in socialcell.__all__:
        assert hasattr(socialcell, name), name
