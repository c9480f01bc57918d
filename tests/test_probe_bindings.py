"""The module bindings that bench/tests/test_probes.py reads or deletes.

The benchmark's probes wrap names where the consumer module binds them,
and its self-test reads these bindings directly, so removing one breaks
the benchmark's own tests even when every caller inside the package was
updated.
"""

import pytest

from openroots import descent, matcher, tracer

BINDINGS = [
    (descent, "eval_poly"),
    (descent, "descent_step"),
    (tracer, "eval_jet"),
    (matcher, "solve_root"),
    (descent, "eval_with_derivative"),
    (matcher, "eval_with_derivative"),
    (tracer, "eval_with_derivative"),
]


@pytest.mark.parametrize("module, name", BINDINGS,
                         ids=[f"{m.__name__}.{n}" for m, n in BINDINGS])
def test_binding_exists(module, name):
    assert callable(getattr(module, name, None))
