"""The benchmark tracer's spans name attributes the library still defines.

``perfbench/tracing.py`` replaces each ``(owner, attr)`` of ``SPANS`` with a
timing wrapper, looking the attribute up in the owner's ``__dict__``; a name
that a refactor moved or deleted breaks the traced benchmark run.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_span_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(owner, attr) for owner, attr, _, _ in tracing.SPANS if attr not in vars(tracing._resolve(owner))]
    assert not missing
    # the tracer also wraps the optimiser's dispatch table and the standing-score update
    assert tracing._resolve("rankdesign.design")._EVALUATORS
    assert "update" in vars(tracing._resolve("rankdesign.oracle:_StandingScores"))
