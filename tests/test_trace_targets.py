"""The benchmark's per-layer tracer wraps module-level names of the package.
A rename that drops one of them must fail here rather than silently lower
the traced coverage."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_trace_wrappers_find_every_target():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    missing, restore = tracing.install(tracing.Tracer())
    try:
        assert missing == []
    finally:
        restore()
