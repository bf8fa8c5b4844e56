"""The benchmark refuses to report when its inputs drift from the pinned
fingerprints in ``perfbench/fingerprints.json``.  A change to the generator,
the printer, ``normalize`` or the evaluated n/m must fail here first, at
toy scale."""

import sys
from pathlib import Path

import pytest

from graphexpr import evaluate, parse

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

sys.path.insert(0, str(PERFBENCH))
try:
    import reference
    import workloads
finally:
    sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_toy_inputs_match_committed_fingerprints(name):
    instances = workloads.generate(workloads.get(name, "toy"))
    got = [reference.fingerprint(inst, evaluate(parse(inst.text))) for inst in instances]
    assert got == reference.committed(name, "toy")
