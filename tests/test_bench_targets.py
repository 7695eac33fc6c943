"""The benchmark tracer's targets name callables that exist in hmfcert.

bench/tracing.py wraps each (module, qualified name) in TARGETS; a renamed
or deleted target would only fail in a traced benchmark run.  The file is
parsed, not imported, so the test leaves bench/ as it is.
"""

import ast
import importlib
import os

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "bench", "tracing.py")


def _targets():
    with open(TRACING, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), TRACING)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TARGETS")


def test_every_target_is_a_callable_in_hmfcert():
    targets = _targets()
    assert targets
    for module_name, qualname in targets:
        assert module_name.startswith("hmfcert."), module_name
        obj = importlib.import_module(module_name)
        for part in qualname.split("."):
            assert hasattr(obj, part), f"{module_name}.{qualname}"
            obj = getattr(obj, part)
        assert callable(obj), f"{module_name}.{qualname}"
