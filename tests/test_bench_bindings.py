"""The names the benchmark in `perfbench/` binds must exist in the package.

`perfbench/spans.py` wraps the functions its `LAYERS` table names, and
`perfbench/run.py` calls the package through the module object `ns`.  A
name deleted from the package would break only a traced or untraced bench
run; these tests catch it first.  So does one traced `verify` run for a
result attribute that a `spans.Tracer` count reads.  Neither bench file is
edited, and `run.py` is only parsed.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import newstead
import newstead.cli
import newstead.groebner

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


def test_traced_verify_observes_every_count(tmp_path, capsys):
    # the second run loads both bases from the cache, so every count moves
    spans = load_spans()
    honest = newstead.groebner.normal_form
    argv = ["verify", "-g", "2..3", "--cache-dir", str(tmp_path), "--format", "json"]
    with spans.Tracer() as tracer:
        assert [newstead.cli.main(argv) for _ in range(2)] == [0, 0]
    capsys.readouterr()
    assert all(tracer.counts[name] > 0 for name in spans.COUNTS), tracer.counts
    assert newstead.groebner.normal_form is honest
