"""The names the benchmark's per-layer tracer (`perfbench/tracer.py`) wraps:
installed around two exponent curves it counts golden searches, their
probes, `HUpEvaluator.value` calls and `h_up` calls per family, and
`restore` puts every original back. A refactor that drops or renames one of
those names fails here."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import cqsw.cli  # noqa: F401  (the tracer wraps every cqsw layer, cli included)
import cqsw.coding  # noqa: F401
import cqsw.hypotest  # noqa: F401
import cqsw.variational  # noqa: F401
from cqsw import conditional, exponents, presets
from cqsw.conditional import conditional_entropy


def _tracer_module():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_the_pinned_names_and_restores_them():
    originals = (exponents.golden_max, exponents.h_up, conditional.h_up,
                 exponents.HUpEvaluator.__dict__["value"])
    tracer = _tracer_module().Tracer()
    s = presets.doubly_symmetric(0.11)
    h = conditional_entropy(s)
    tracer.install()
    try:
        exponents.exponent_family(s, [h + 0.1, h + 0.2], "sphere_packing")
        exponents.exponent_family(s, [h - 0.1], "strong_converse_star")
    finally:
        tracer.restore()
    metrics = tracer.metrics()
    for name in ("exponents.golden_calls", "exponents.golden_evals",
                 "exponents.hup_evaluator_calls", "conditional.h_up_calls.petz",
                 "conditional.h_up_calls.sandwiched"):
        assert metrics[name] > 0, name
    assert (exponents.golden_max, exponents.h_up, conditional.h_up,
            exponents.HUpEvaluator.__dict__["value"]) == originals
