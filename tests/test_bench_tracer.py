"""The benchmark's tracer against this program, in-process.

``bench/tracer.py`` times the program's layers by swapping functions it
reaches from outside: each family module's ``build_array`` global, the
``CellProgram(step, init)`` fields, ``engine.run``, ``engine.Array.tick`` and
``toeplitz.bareiss_forward``.  A change that moves one of these points
would leave a layer untimed, or break the traced run; this test catches it
at the benchmark's tiny sizes.
"""

import dataclasses
import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest
from test_golden_traces import RUNS

from systolic import intgcd, toeplitz
from systolic.engine import to_jsonl

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


@pytest.mark.parametrize("mod, cached_spec", [
    (toeplitz, lambda: toeplitz._toeplitz_inputs(8)[0]),
    (intgcd, lambda: intgcd._gcd_pipeline(intgcd.cell_count(16), 18)[0]),
], ids=["toeplitz", "intgcd"])
def test_a_replaced_spec_gets_its_own_plan_and_gives_the_same_trace(monkeypatch, mod, cached_spec):
    # the tracer builds on dataclasses.replace(spec, activation=wrapped): each
    # copy makes a plan of its own, the cached spec keeps its plan, and the
    # golden run's trace bytes do not change
    make, records, digest = RUNS[mod.__name__.split(".")[-1]]
    make()
    spec = cached_spec()
    plan = spec.plan
    real, copies = mod.build_array, []

    def build_array(spec, cell_programs):
        copies.append(dataclasses.replace(spec, activation=lambda cell: spec.activation(cell)))
        return real(copies[-1], cell_programs)

    monkeypatch.setattr(mod, "build_array", build_array)
    for _ in range(2):
        tr = make()
        assert len(tr) == records
        assert hashlib.sha256(to_jsonl(tr).encode()).hexdigest() == digest
    assert [c.wiring is spec.wiring and c.plan is c.plan for c in copies] == [True, True]
    assert len({id(plan), *(id(c.plan) for c in copies)}) == 3
    assert spec.plan is plan
