"""What the benchmark in perfbench/ relies on in the package.

perfbench/ is only read here.  Its tracer patches package functions by
(module, attribute) name, and its input set-up assigns ids and survey
weights through `Dataset.series[i].id` / `.weight` before saving.  A
rename, or a data model whose series are copies, breaks the benchmark;
these tests say so without a bench run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from walshscape import load_dataset, series

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    tracer = _load("tracer")
    for module_name, attr, *_ in tracer.WRAPS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (module_name, attr)


def test_lloyd_keeps_the_arguments_the_tracer_reads():
    # the tracer reads max_iters as the third positional argument and
    # passes on_iteration by keyword
    params = list(inspect.signature(importlib.import_module("walshscape.dcc").lloyd).parameters)
    assert params[2] == "max_iters"
    assert "on_iteration" in params


@pytest.mark.parametrize("fmt", ["csv", "binary"])
def test_input_set_up_writes_the_ids_and_weights_it_assigns(tmp_path, monkeypatch, fmt):
    runner = _load("runner")
    generate, generated = series.generate_synthetic, []

    def capturing(*args):
        dataset = generate(*args)
        generated.append(dataset)
        return dataset

    monkeypatch.setattr(series, "generate_synthetic", capturing)
    out = tmp_path / f"input.{fmt}"
    runner.make_input(str(out), fmt, 3, 16, 0.05, 4, 1)
    [assigned] = generated
    written = load_dataset(out, format=fmt)
    plain = generate(3, 16, 0.05, 4)
    assert written.N == 9
    assert [s.id for s in written.series] == [s.id for s in assigned.series]
    assert [s.weight for s in written.series] == [s.weight for s in assigned.series]
    assert [s.id for s in written.series] != [s.id for s in plain.series]
    assert [s.weight for s in written.series] != [s.weight for s in plain.series]
