"""The benchmark's tracer wraps package functions at the names their callers
look them up by; a rename in src/ must fail here, not only in a traced run."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _fresh_package(names):
    """Modules adjtorelli.<name> from a new import; sys.modules is restored."""
    saved = {m: mod for m, mod in sys.modules.items()
             if m == "adjtorelli" or m.startswith("adjtorelli.")}
    for m in saved:
        del sys.modules[m]
    try:
        return {name: importlib.import_module(f"adjtorelli.{name}") for name in names}
    finally:
        for m in [m for m in sys.modules if m == "adjtorelli" or m.startswith("adjtorelli.")]:
            del sys.modules[m]
        sys.modules.update(saved)


def test_every_traced_path_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    paths = [path for _, paths, _ in tracer.SPANS for path in paths]
    paths += ["polyring.multivariate_gcd", "exactla.Echelon.insert",
              "exactla.Echelon.reduce"]  # counted by install() as well
    mods = _fresh_package({path.split(".")[0] for path in paths})
    missing = []
    for path in paths:
        try:
            owner, attr = tracer._resolve(mods, path)
            if not callable(getattr(owner, attr)):
                missing.append(path)
        except AttributeError:
            missing.append(path)
    assert missing == []
