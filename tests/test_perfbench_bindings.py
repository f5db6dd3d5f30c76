"""Every pvtower name the traced benchmark wraps must still exist.

``perfbench/tracing.py`` binds functions and methods by module and
attribute name, so a rename or deletion in ``src/`` breaks ``--trace 1``
without failing any other test.  Six bound names have no caller in
``src/``: ``kernel_basis``, ``column_span_basis``, ``solve_exact``,
``subquotient``, ``kernel_rank`` and ``rational_rank``.  Only tests and
their oracles call them; they stay while the trace binds them by name.
A wrapped name must also still be the one the datum path calls, or its
span silently stops covering that path.
"""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracing():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _module(name):
    return importlib.import_module(f"pvtower.{name}")


def test_traced_functions_resolve():
    missing = [
        span
        for span, (home, attr) in tracing.FUNCTIONS.items()
        if not callable(getattr(_module(home), attr, None))
    ]
    assert missing == []


def test_traced_methods_resolve():
    missing = [
        span
        for span, (home, cls_name, attr) in tracing.METHODS.items()
        if not callable(vars(getattr(_module(home), cls_name)).get(attr))
    ]
    assert missing == []


def test_traced_validation_is_a_classmethod():
    raw = vars(_module("koszul").ModuleDatum).get("from_json_dict")
    assert isinstance(raw, classmethod)


def test_traced_cokernel_covers_the_datum_path():
    # Install the tracer's wrappers as `--trace 1` does, then count the
    # cokernel spans.  No 1 - beta_i acts as 0 on (Z/3)^2 or on Z here, so
    # build_datum splits no direction off and eliminates delta_1..delta_(n+1)
    # per parity; on top of those it tests each even direction against the
    # relations.
    modules = {layer: _module(layer) for layer in tracing.LAYERS}
    datum = modules["koszul"].ModuleDatum.from_json_dict({
        "n": 3,
        "even": {"free_rank": 2, "relations": [[3, 0], [0, 3]]},
        "odd": {"free_rank": 1, "relations": []},
        "endos": [
            {"even": [[0, 1], [1, 0]], "odd": [[-1]]},
            {"even": [[-1, 0], [0, -1]], "odd": [[-1]]},
            {"even": [[0, -1], [-1, 0]], "odd": [[-1]]},
        ],
    })
    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        modules["koszul"].datum_cohomology(datum)
    finally:
        tracer.remove()
    calls = sum(1 for span in tracer.spans if span[0] == "abgroup.cokernel")
    assert calls >= 2 * (datum.n + 1)
