"""The package keeps three memo tables, each with a finite size."""

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


def test_memo_tables_are_exactly_the_per_member_ones_and_bounded():
    # each is re-read once per member by one command: embed_lower_degree by
    # `reduce --mode embed`, beta_bijection by `reduce --mode beta`; a table
    # only its builder reads back is built per call instead
    caches = dict(lru_caches())
    assert set(caches) == {"setdifflab.universe._embed_table",
                           "setdifflab.reductions._orbits",
                           "setdifflab.reductions._compositions"}
    unbounded = [name for name, maxsize in caches.items() if maxsize is None]
    assert unbounded == []
