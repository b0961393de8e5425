"""README.md is the user's manual: its examples run or load, and every name it
cites from a ``sparselms`` module exists."""

import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import yaml

import sparselms
from sparselms.experiments import spec_from_dict
from sparselms.sensing import RepeatedPass

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
MODULES = {m.name for m in pkgutil.iter_modules(sparselms.__path__)}
# backticked module.name spans that are not Python names: config keys
CONFIG_KEYS = {"sensing.n", "sensing.count"}


def test_the_library_example_recovers_the_spectrum():
    (block,) = re.findall(r"```python\n(.*?)```", README, re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert float(out.getvalue()) < 0.2


def test_the_config_example_loads():
    (block,) = re.findall(r"```yaml\n(.*?)```", README, re.S)
    spec = spec_from_dict(yaml.safe_load(block))
    assert [a.label for a in spec.algorithms] == ["HARD-EST", "LMS"]
    assert spec.sensing.mode == RepeatedPass(100)
    assert spec.sensing.m == 200


def test_every_cited_module_name_resolves():
    cited = set(re.findall(r"`(\w+)\.(\w+)`", README))
    cited = {(m, name) for m, name in cited if m in MODULES and name != "py"}
    assert len(cited) > 10  # the pattern still finds the citations
    for module, name in sorted(cited):
        if f"{module}.{name}" in CONFIG_KEYS:
            continue
        assert not name.startswith("_"), f"README cites the private {module}.{name}"
        assert hasattr(importlib.import_module(f"sparselms.{module}"), name), (
            f"README cites {module}.{name}, which does not exist"
        )
