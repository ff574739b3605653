"""Self-test of the benchmark, at reduced sizes. Run from anywhere:

    python3 benchmarks/selftest.py

For every workload it checks that the untraced run prints each end-to-end
metric of BENCHMARK.json (plus fail_frac, and the step latencies on
stream_track) with its unit, that two traced runs at one seed print each
per-layer metric with its unit and give identical integer counts, and that a
directory holding only BENCHMARK.json and the benchmark's files makes the
benchmark exit non-zero without a result line.
"""
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def run(script, workload, trace, cwd):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
           "--seconds", "0", "--trace", str(trace), "--size", "small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def parse(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if line.startswith("#") or len(fields) < 3:
            continue
        printed[fields[0]] = fields[2]
    return json.loads(lines[-1]), printed


def expect_units(result, printed, expected):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, f"result metrics {sorted(got)} != {sorted(expected)}"
    for name, unit in expected.items():
        assert printed.get(name) == unit, f"{name} not printed with unit {unit}"


def check_workload(workload):
    result, printed = parse(run(BENCH / "run.py", workload, 0, ROOT))
    expect_units(result, printed, {m["name"]: m["unit"] for m in SPEC["end_to_end"]})
    extra = {"fail_frac": "ratio"}
    if workload == "stream_track":
        extra.update(step_p50_us="us", step_p99_us="us")
    for name, unit in extra.items():
        assert printed.get(name) == unit, f"{name} not printed with unit {unit}"
    assert result["attempted"] >= 1 and isinstance(result["failed"], int)

    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    first, printed = parse(run(BENCH / "run.py", workload, 1, ROOT))
    expect_units(first, printed, per_layer)
    second, _ = parse(run(BENCH / "run.py", workload, 1, ROOT))
    for name, unit in per_layer.items():
        if unit in ("count", "bytes"):
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            assert isinstance(a, int), f"{name} is not an integer: {a!r}"
            assert a == b, f"{name} differs between traced runs: {a} vs {b}"
    return result["correct"] and first["correct"]


def check_bare_directory():
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=out))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = run(bare / "benchmarks" / "run.py", "estimate", 0, bare)
        assert done.returncode != 0, "benchmark ran without the source tree"
        assert '"metrics"' not in done.stdout, "benchmark printed a result without the source tree"
    finally:
        shutil.rmtree(bare)


def main():
    for workload in (w["name"] for w in SPEC["workloads"]):
        correct = check_workload(workload)
        note = "" if correct else " (some checks fail at reduced size)"
        print(f"ok {workload}: every metric printed with its unit, counts repeat{note}")
    check_bare_directory()
    print("ok bare directory: exits non-zero without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
