"""The names the benchmark's span tracer patches still exist.

``perfbench/spans.py`` wraps layer ``__call__`` methods, ``Model.forward``
and its ``__call__`` alias, ``Adam.step`` and module-level training,
pipeline, synthesis and serialization functions, looking each one up in
its owner's own namespace. Moving or renaming one of them breaks only a
traced benchmark run; this test catches it in the ordinary suite.
"""

import importlib.util
from pathlib import Path

import numpy as np

from tripcast.models import ModelSpec, build
from tripcast.tensor import no_grad

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_name():
    spans = load_spans()
    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        assert patched
        for owner, attribute, original in patched:
            assert getattr(owner, attribute).__wrapped__ is original
        # package callers reach the wrappers
        model = build(ModelSpec(kind="lstm", window=4, horizon=2,
                                n_features=15, d_model=8, n_heads=2,
                                lstm_layers=1), seed=0)
        with no_grad():
            model(np.zeros((1, 4, 15)))
        names = {span[spans.NAME] for span in tracer.spans}
        assert {"models.Model.forward", "layers.Linear",
                "layers.Lstm"} <= names
    finally:
        tracer.uninstall()
    for owner, attribute, original in patched:
        assert vars(owner)[attribute] is original
