"""Every fenced Python block in README.md runs to completion, and its
config block lists the defaults."""

import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from eddyopt.cli import load_config

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", README,
                    flags=re.DOTALL | re.MULTILINE)
CONFIG = re.findall(r"^```json\n(.*?)^```", README,
                    flags=re.DOTALL | re.MULTILINE)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=lambda c: c.splitlines()[0])
def test_readme_block_runs(code, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command", ["validate", "grad-check", "gen-mesh"])
def test_readme_config_block_is_the_defaults(command, tmp_path):
    # "all keys optional; these are the defaults": resolving the block must
    # give what an empty config gives
    assert len(CONFIG) == 1
    (tmp_path / "readme.json").write_text(CONFIG[0], encoding="utf-8")
    (tmp_path / "empty.json").write_text("{}", encoding="utf-8")
    doc, empty = (load_config(str(tmp_path / name), command)
                  for name in ("readme.json", "empty.json"))
    assert [tag for tag, _ in doc.family] == [tag for tag, _ in empty.family]
    for f in fields(doc.problem):
        a, b = getattr(doc.problem, f.name), getattr(empty.problem, f.name)
        assert a is b or np.array_equal(a, b), f.name
    assert doc.electrode == empty.electrode
    for name in ("order", "tol", "max_iter", "n_probes", "fit_floor", "seed",
                 "vtk"):
        assert getattr(doc, name) == getattr(empty, name), name
    assert np.array_equal(doc.t_list, empty.t_list)


def test_readme_module_table_names_every_module_once():
    rows = re.findall(r"^\| `eddyopt\.(\w+)`", README, flags=re.MULTILINE)
    modules = [p.stem for p in (ROOT / "src" / "eddyopt").glob("*.py")
               if p.stem != "__init__"]
    assert sorted(rows) == sorted(modules)
