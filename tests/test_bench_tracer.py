"""The benchmark's tracer against this program, in-process.

``bench/tracer.py`` times the program's layers by swapping functions it
reaches from outside: each family module's ``build_array`` global, the
``CellProgram(step, init)`` fields, ``engine.run``, ``engine.Array.tick`` and
``toeplitz.bareiss_forward``.  A change that moves one of these points
would leave a layer untimed, or break the traced run; this test catches it
at the benchmark's tiny sizes.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up here
    spec.loader.exec_module(mod)
    return mod


workloads = _load("workloads")
tracing = _load("tracer")


@pytest.mark.parametrize("name", sorted(workloads.FAMILIES))
def test_tracer_observes_every_layer_and_changes_no_result(name):
    wl, instances = workloads.prepare(name, 3, "tiny")
    plain = [wl.attempt(inst) for inst in instances]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [wl.attempt(inst) for inst in instances]
    finally:
        tracer.uninstall()
    failed = [o.error for o in plain + traced if not o.ok]
    assert not failed, failed
    assert [o.canon for o in traced] == [o.canon for o in plain]
    family = name.split("-")[0]
    calls = {key: acc[1] for key, acc in tracer.accs.items()}
    for key in ("engine:build_array", "engine:tick", f"{family}.cell"):
        assert calls.get(key, 0) > 0, (key, calls)
