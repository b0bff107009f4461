"""Self-test of the benchmark harness at tiny sizes.

    python3 bench/selftest.py

Runs every workload untraced once and traced twice, each in a fresh process,
and checks that:

- every metric ``BENCHMARK.json`` names is emitted, with its unit;
- the layer self times of a traced pass sum to its wall time;
- tracing only observes: the results digest is the same traced and
  untraced, and the exact counts repeat from one traced run to the next;
- ``bench/README.md`` documents every workload and every metric;
- without the program beside it, the benchmark fails and prints no result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 3
EXACT = ("engine.ticks", "engine.activations", "engine.polls", "engine.trace_records")
FAMILIES = ("intgcd", "polygcd", "toeplitz", "eigen")
# every layer's self time; with the tracer's own cost they cover the pass
LAYER_SELF = (["engine.self_s", "oracle.self_s", "gfield.self_s", "bench.self_s",
               "trace.wrapper_s"]
              + [f"{f}.{part}.self_s" for f in FAMILIES
                 for part in ("cell", "activation", "driver")])


def run(runner: Path, workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(runner), "--workload", workload, "--seed", str(SEED),
           "--seconds", "0.3", "--trace", str(trace), "--profile", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


def result_of(proc, workload: str, trace: int):
    assert proc.returncode == 0, (workload, trace, proc.stderr[-2000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, (workload, trace, result)
    report = json.loads((BENCH_DIR / "out" / f"report-{workload}-seed{SEED}-trace{trace}.json")
                        .read_text())
    return result, report


def check_units(result, declared, workload):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    assert got == want, (workload, set(got) ^ set(want),
                         {k: (got.get(k), want.get(k)) for k in got if got.get(k) != want.get(k)})


def check_layers_sum(result, workload):
    m = {k: v["value"] for k, v in result["metrics"].items()}
    total = sum(m[k] for k in LAYER_SELF)
    assert abs(total - m["trace.wall_s"]) <= 1e-9 * m["trace.wall_s"], (workload, total, m)
    assert m["trace.overhead_ratio"] > 0, workload


def check_bare_directory():
    """Only BENCHMARK.json and the benchmark's files: a non-zero exit, no result."""
    bare = BENCH_DIR / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare / BENCH_DIR.name / "run.py", "intgcd-bitserial", 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0, proc.stdout
    assert not proc.stdout.strip(), proc.stdout


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    readme = (BENCH_DIR / "README.md").read_text()
    runner = BENCH_DIR / "run.py"
    for w in spec["workloads"]:
        name = w["name"]
        assert f"`{name}`" in readme, name
        plain, plain_report = result_of(run(runner, name, 0), name, 0)
        check_units(plain, spec["end_to_end"], name)
        traced = []
        for _ in range(2):
            result, report = result_of(run(runner, name, 1), name, 1)
            check_units(result, spec["per_layer"], name)
            check_layers_sum(result, name)
            assert report["results_digest"] == plain_report["results_digest"], name
            traced.append({k: result["metrics"][k]["value"] for k in EXACT})
        assert traced[0] == traced[1], (name, traced)
        print(f"selftest {name}: ok")
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert f"`{m['name']}`" in readme, m["name"]
    check_bare_directory()
    print("selftest bare checkout: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
