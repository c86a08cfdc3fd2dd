"""Every memo table in the package has a finite size."""

import importlib
import pkgutil

import setdifflab


def lru_caches():
    """(qualified name, maxsize) of every lru_cache at module or class level."""
    for info in pkgutil.iter_modules(setdifflab.__path__):
        module = importlib.import_module(f"setdifflab.{info.name}")
        scopes = [(module.__name__, vars(module))]
        scopes += [(f"{module.__name__}.{name}", vars(obj))
                   for name, obj in vars(module).items()
                   if isinstance(obj, type) and obj.__module__ == module.__name__]
        for prefix, namespace in scopes:
            for name, obj in namespace.items():
                if hasattr(obj, "cache_parameters"):
                    yield f"{prefix}.{name}", obj.cache_parameters()["maxsize"]


def test_every_lru_cache_is_bounded():
    caches = dict(lru_caches())
    assert "setdifflab.fpforms._product_table" in caches
    assert "setdifflab.patterns.pattern_table" in caches
    for table in ("universe._window_runs", "universe._embed_table",
                  "covering._demo_rows",
                  "reductions._orbits", "reductions._compositions"):
        assert f"setdifflab.{table}" in caches
    unbounded = [name for name, maxsize in caches.items() if maxsize is None]
    assert unbounded == []
