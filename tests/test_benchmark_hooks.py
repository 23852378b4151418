"""The names the benchmark tracer wraps must stay resolvable.

`benchmarks/tracing.py` replaces foldlang names it looks up at call time
(`_boundaries`, plus `foldlang.fsystem.fold`), and `benchmarks/child.py`
reads `RegularLang.enumerate_length.cache_info()`.  A renamed or removed
name breaks the benchmark only when it runs; this test breaks first.
"""

import importlib.util
from pathlib import Path

import foldlang
import foldlang.cli  # noqa: F401  (the package does not import it; the tracer wraps it)

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    hooks = [(owner, attr) for owner, attr, _, _ in load_tracing()._boundaries(foldlang)]
    for owner, attr in hooks + [(foldlang.fsystem, "fold")]:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
    info = foldlang.RegularLang.enumerate_length.cache_info()
    assert info.maxsize is not None and info.currsize >= 0
