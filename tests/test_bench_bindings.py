"""The traced benchmark run (benchmarks/layers.py) wraps program functions
by module and name. A refactor that drops or renames one of them removes
its per-layer metric from every traced run without an error, so this
test installs the wrappers on a fresh import of the package and asserts
that every binding a metric needs was found."""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


def _package_modules() -> dict:
    return {n: m for n, m in sys.modules.items()
            if n == "unlearnlab" or n.startswith("unlearnlab.")}


def test_every_traced_binding_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    bench_names = [n for n in ("layers", "spans") if n not in sys.modules]
    saved = _package_modules()
    for name in saved:
        del sys.modules[name]
    try:
        layers = importlib.import_module("layers")
        spans = importlib.import_module("spans")
        pkg = {m: importlib.import_module(f"unlearnlab.{m}") for m in layers.MODULES}
        patches = layers.install(spans.Tracer(), pkg)
        try:
            assert patches.missing == []
        finally:
            patches.restore()
    finally:
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(saved)
        for name in bench_names:
            sys.modules.pop(name, None)
