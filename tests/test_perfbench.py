"""The benchmark's layer trace resolves against the package.

``perfbench/layers.py`` wraps named functions and methods of wavext and
skips a name that no longer exists, so a change that deletes or renames a
traced layer would still run the benchmark, with that layer silently absent
from the per-layer split.
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_every_benchmark_span_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    tracer = layers.Tracer()
    try:
        assert tracer.install() == []
    finally:
        tracer.uninstall()
