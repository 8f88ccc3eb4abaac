"""The names the benchmark in `perfbench/` binds must exist in the package.

`perfbench/spans.py` wraps the functions its `LAYERS` table names, and
`perfbench/run.py` calls the package through the module object `ns`.  A
name deleted from the package would break only a traced or untraced bench
run; these tests catch it first.  Neither bench file is edited or run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import newstead

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", PERFBENCH / "spans.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_names():
    """Every attribute read off the name `ns` in `perfbench/run.py`."""
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "ns"
    }


@pytest.mark.parametrize("qualname", load_spans().layer_names())
def test_every_traced_layer_exists(qualname):
    module, name = qualname.split(".")
    assert callable(getattr(importlib.import_module(f"newstead.{module}"), name))


def test_every_name_the_bench_calls_is_public():
    names = {n for n in run_names() if not n.startswith("__")}
    assert names and names <= set(newstead.__all__)


def test_every_public_name_resolves():
    assert len(set(newstead.__all__)) == len(newstead.__all__)
    for name in newstead.__all__:
        assert hasattr(newstead, name), name
