"""Plan reuse across all four families, as one hypothesis state machine.

Every run of every family builds on a cached spec, and every later run of
that shape shares the spec's plan and the plan's parts.  The machine's moves
are runs of any family at any shape: traced or not, traced from tick 0 or
from a later tick, clean, breaking down, or stopped by an engine
SimulationError.  The moves interleave the families and run past the
intgcd, Toeplitz and delayed Jacobi cache bounds.  Each run must show what a
fresh build shows, with every driver cache bypassed through its
``__wrapped__``.  A run the engine did not stop must also give what the
serial path gives.
"""

import contextlib
import random
from unittest import mock

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from systolic import cli, eigen, engine, intgcd, oracle, polygcd, toeplitz
from systolic.engine import CellId, CellProgram, SimulationError
from systolic.gfield import Field
from systolic.oracle import SingularMatrixError

# each driver's bounded cache of specs, by module and name
CACHES = ((polygcd, "_chain_spec"), (intgcd, "_gcd_pipeline"),
          (toeplitz, "_toeplitz_inputs"), (eigen, "_delayed_inputs"))

SEEDS = st.integers(0, 2**32 - 1)
# None: untraced; k: traced, from tick k on
TRACED_FROM = st.none() | st.integers(0, 12)
# None: a clean run; t: cell (0, 0) breaks the engine's rules on its first
# activation at or after tick t
FAIL_AT = st.none() | st.integers(0, 20)


def fresh_builds():
    """Every driver cache bypassed: each run builds a new spec and plan."""
    stack = contextlib.ExitStack()
    for module, name in CACHES:
        stack.enter_context(mock.patch.object(module, name, getattr(module, name).__wrapped__))
    return stack


def traced_from(tick):
    """``engine.run`` as two runs of one array: ``tick`` ticks untraced,
    then the rest, traced if asked.  So the trace begins mid-run."""
    whole = engine.run

    def run(array, feed, n_ticks, trace=False):
        k = min(tick, n_ticks)
        head, _ = whole(array, feed, k)
        tail, tr = whole(array, feed, n_ticks - k, trace=trace)
        return {key: head[key][:k + 1] + line[k + 1:] for key, line in tail.items()}, tr

    return mock.patch.object(engine, "run", run)


def failing_at(module, tick):
    """The family's ``build_array``, with cell (0, 0) returning one output
    too many from ``tick`` on, which the engine refuses with a
    SimulationError."""
    build = module.build_array

    def build_failing(spec, programs):
        prog = programs[CellId(0, 0)]

        def step(state, ins, t):
            state, outs = prog.step(state, ins, t)
            return state, (outs + (None,) if t >= tick else outs)

        return build(spec, {**programs, CellId(0, 0): CellProgram(step, prog.init)})

    return mock.patch.object(module, "build_array", build_failing)


def answer(solve):
    """What ``solve()`` returns, or its breakdown's type and message."""
    try:
        return solve()
    except SingularMatrixError as exc:
        return type(exc).__name__, str(exc)


def outcome(run, since, patches):
    """Under ``patches``, a run's (answer, costs) and its trace from tick
    ``since`` on, or its error's type and message."""
    with contextlib.ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        try:
            result, trace = run()
        except (SimulationError, SingularMatrixError) as exc:
            return type(exc).__name__, str(exc)
    return result, engine.to_jsonl(r for r in trace if r.tick >= since)


def toeplitz_system(kind, n, seed):
    rng = random.Random(seed)
    if kind == "dominant":
        return cli.gen_toeplitz(rng, n)
    rhs = tuple(rng.uniform(-1.0, 1.0) for _ in range(n + 1))
    if kind == "last-tick":  # x_0 overflows on the run's last tick
        return toeplitz.ToeplitzBands(n, (0.0,) * n + (1e-300,) + (0.0,) * n, (1e10,) + rhs[1:])
    # a_0 = 0 breaks down on tick 0; near-singular a_0 = 1e-9 on step 1's
    # multiplier, unless n = 0
    if kind == "zero-a0":
        col = [0.0] + [1.0] * n
    else:
        col = [1e-9, 1.0] + [0.1 ** k for k in range(2, n + 1)]
    return toeplitz.ToeplitzBands(n, tuple(col[abs(k)] for k in range(-n, n + 1)), rhs)


class PlanReuse(RuleBasedStateMachine):

    def check(self, module, run, since, fail, serial):
        """``run`` on the cached plans, then on fresh builds (a whole run,
        its trace cut at ``since``); unless the engine stopped it, its
        answer is ``serial()``'s."""
        failing = [failing_at(module, fail)] if fail is not None else []
        reused = outcome(run, since, failing + ([traced_from(since)] if since else []))
        assert outcome(run, since, failing + [fresh_builds()]) == reused
        if reused[0] == "SimulationError":
            assert fail is not None, reused
        elif isinstance(reused[0], str):
            assert answer(serial) == reused
        else:
            assert reused[0][0] == answer(serial)

    @rule(p=st.sampled_from((2, 7, 257)), max_deg=st.integers(0, 8), seed=SEEDS,
          variant=st.sampled_from(polygcd.VARIANTS), since=TRACED_FROM, fail=FAIL_AT)
    def polygcd_run(self, p, max_deg, seed, variant, since, fail):
        field = Field(p)
        a, b = cli.gen_poly_pair(random.Random(seed), p, max_deg)

        def run():
            r = polygcd.systolic_poly_gcd(field, a, b, variant, trace=since is not None)
            return (r.gcd, r.latency, r.cells, r.ticks), r.trace

        self.check(polygcd, run, since or 0, fail, lambda: oracle.euclid_poly_gcd(field, a, b))

    @rule(n=st.integers(1, 20), seed=SEEDS, since=TRACED_FROM, fail=FAIL_AT)
    def intgcd_run(self, n, seed, since, fail):
        a, b = cli.gen_int_pair(random.Random(seed), n)

        def run():
            r = intgcd.systolic_int_gcd(a, b, n, trace=since is not None)
            return (r.gcd, r.cells, r.ticks, r.raw_output), r.trace

        self.check(intgcd, run, since or 0, fail, lambda: oracle.euclid_int_gcd(a, b))

    # orders 64 to 85 run past the schedule's first stretch of 256 ticks,
    # and cell 4n - 256's last window ends on tick 256, where the second
    # stretch begins
    @rule(kind=st.sampled_from(("dominant", "zero-a0", "growth", "last-tick")),
          n=st.integers(0, 12) | st.integers(64, 85), seed=SEEDS, since=TRACED_FROM, fail=FAIL_AT)
    def toeplitz_run(self, kind, n, seed, since, fail):
        bands = toeplitz_system(kind, n, seed)

        def run():
            r = toeplitz.systolic_toeplitz_solve(bands, trace=since is not None)
            return (r.x.tobytes(), r.ticks, r.cells), r.trace

        self.check(toeplitz, run, since or 0, fail, lambda: toeplitz.bareiss_solve(bands).tobytes())

    @rule(n=st.integers(1, 9), seed=SEEDS, max_sweeps=st.integers(1, 10), traced=st.booleans(),
          fail=FAIL_AT)
    def eigen_run(self, n, seed, max_sweeps, traced, fail):
        a = cli.gen_symmetric(random.Random(seed), n)

        def sweeps(mode):
            res = eigen.run_sweeps(a, max_sweeps=max_sweeps, mode=mode, trace=traced)
            rep = res.report
            return (res.eigenvalues.tobytes(), rep.sweeps_used, rep.converged, rep.off_norms), res

        def run():
            result, res = sweeps("delayed")
            return (result, res.report.ticks), res.report.trace or ()

        self.check(eigen, run, 0, fail, lambda: sweeps("broadcast")[0])


PlanReuse.TestCase.settings = settings(max_examples=10, stateful_step_count=12,
                                       deadline=None, derandomize=True)
TestPlanReuse = PlanReuse.TestCase
