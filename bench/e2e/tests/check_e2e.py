"""Checks of the esw_e2e benchmark binary, registered with ctest as e2e_checks.

* Every workload, run with --smoke and the traced replay, prints every
  BENCHMARK.json metric with its unit, ends with the one-line JSON result
  (per-layer metrics for --trace 1) and writes a loadable Chrome trace.
* Each planted fault trips its own check and makes the run exit non-zero.
* --repeat writes a result file that --compare reads back.

usage: check_e2e.py ESW_E2E BENCHMARK.json
"""
import json
import os
import subprocess
import sys
import tempfile

# Fault -> the check it must trip.  lb is the fastest workload to set up, and
# its traffic reaches its highest port (41), so one port short must show.
FAULTS = {
    "too_few_ports": "bad_port",
    "table_capacity": "mods_refused",
    "flip_verdict": "verdict_accounting",
    "count_mismatch": "pass_b_counts",
}


def run(exe, args):
    return subprocess.run([exe, "--smoke", "--seconds", "1"] + args,
                          capture_output=True, text=True, timeout=600)


def check_workload(exe, spec, workload, out_dir, errors):
    p = run(exe, ["--workload", workload, "--trace", "1", "--out", out_dir])
    if p.returncode != 0:
        errors.append(f"{workload}: exit {p.returncode}: {p.stderr.strip()[-400:]}")
    lines = p.stdout.strip().splitlines()
    if not lines:
        errors.append(f"{workload}: no output")
        return
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] == workload:
            printed[parts[1]] = parts[3]
    for m in spec["end_to_end"] + spec["per_layer"]:
        if printed.get(m["name"]) != m["unit"]:
            errors.append(f"{workload}: {m['name']} not printed with unit {m['unit']}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{workload}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{workload}: result not correct: {lines[-1][:200]}")
    want = {m["name"]: m["unit"] for m in spec["per_layer"]}
    got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
    if got != want:
        errors.append(f"{workload}: JSON metrics differ from per_layer")
    with open(os.path.join(out_dir, f"trace_{workload}.json")) as f:
        events = json.load(f)["traceEvents"]
    if not any(e.get("name") == "core.process_burst" for e in events):
        errors.append(f"{workload}: trace has no core.process_burst span")


def check_fault(exe, fault, check, out_dir, errors):
    trace = "1" if fault == "count_mismatch" else "0"
    p = run(exe, ["--workload", "lb", "--fault", fault, "--trace", trace, "--out", out_dir])
    if p.returncode != 1:
        errors.append(f"fault {fault}: exit {p.returncode}, expected 1")
    if f"check failed: {check}" not in p.stderr:
        errors.append(f"fault {fault}: check {check} did not fire: {p.stderr.strip()[-300:]}")
    lines = p.stdout.strip().splitlines()
    if not lines or json.loads(lines[-1]).get("correct") is not False:
        errors.append(f"fault {fault}: result line does not report correct=false")


def check_repeat_compare(exe, bench_json, out_dir, errors):
    path = os.path.join(out_dir, "repeat.json")
    p = subprocess.run([exe, "--repeat", "1", "--workload", "lb", "--smoke", "--seconds", "1",
                        "--out", out_dir, "--json", path],
                       capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        errors.append(f"repeat: exit {p.returncode}: {p.stderr.strip()[-300:]}")
        return
    p = subprocess.run([exe, "--compare", path, path, "--bench-json", bench_json],
                       capture_output=True, text=True, timeout=60)
    rows = [line.split() for line in p.stdout.splitlines()[1:]]
    if p.returncode != 0 or not rows or any(r[-2:] != ["within", "bound"] for r in rows):
        errors.append(f"compare of a file with itself: exit {p.returncode}: {p.stdout[-300:]}")


def main():
    exe, bench_json = sys.argv[1], sys.argv[2]
    with open(bench_json) as f:
        spec = json.load(f)
    errors = []
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as out_dir:
        for w in spec["workloads"]:
            check_workload(exe, spec, w["name"], out_dir, errors)
        for fault, check in FAULTS.items():
            check_fault(exe, fault, check, out_dir, errors)
        check_repeat_compare(exe, bench_json, out_dir, errors)
    for e in errors:
        print("FAIL:", e)
    print("e2e checks:", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
