#!/usr/bin/env python3
"""Self-test of the repository benchmark at tiny size (about a minute).

Proves, for every workload in BENCHMARK.json:
  * an untraced run prints every end_to_end metric, a traced run every
    per_layer metric, each with the unit BENCHMARK.json names, and both
    pass their output checks (reference digest at the default seed);
  * the invariant checks pass at a non-default seed;
  * a perturbed reference digest is caught: the run still prints its
    result, reports correct=false with failed operations, and exits
    non-zero.

    python3 perfbench/selftest.py
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
REFERENCE = os.path.join(HERE, "reference.tsv")
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench")

failures = []


def run(workload, seed, trace, reference=REFERENCE):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny",
           "--reference", reference]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def check_metrics(label, result, specs):
    metrics = result["metrics"]
    for spec in specs:
        m = metrics.get(spec["name"])
        expect(m is not None and m["unit"] == spec["unit"],
               f"{label}: {spec['name']} printed in {spec['unit']}")
    expect(set(metrics) == {s["name"] for s in specs},
           f"{label}: no metric beyond BENCHMARK.json")


def perturbed_reference():
    """A copy of the reference file with every digest's last digit
    changed."""
    os.makedirs(SCRATCH, exist_ok=True)
    path = os.path.join(SCRATCH, "selftest-reference.tsv")
    with open(REFERENCE) as src, open(path, "w") as dst:
        for line in src:
            fields = line.rstrip("\n").split("\t")
            if len(fields) == 3 and not line.startswith("#"):
                d = fields[2]
                fields[2] = d[:-1] + ("0" if d[-1] != "0" else "1")
            dst.write("\t".join(fields) + "\n")
    return path


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bad_reference = perturbed_reference()
    for w in bench["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, err = run(name, 1, trace)
            label = f"{name} trace={trace}"
            expect(code == 0 and result is not None and result["correct"]
                   and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: passes its output check")
            if code != 0:
                sys.stderr.write(err)
            if result is not None:
                check_metrics(label, result, bench[key])
            if trace == 1 and result is not None:
                warm = result["metrics"].get("measure.store.warm_executed")
                expect(warm is not None and warm["value"] == 0,
                       f"{label}: warm re-sweep executed nothing")
        code, result, _ = run(name, 7, 0)
        expect(code == 0 and result is not None and result["correct"],
               f"{name} seed=7: invariant checks pass")
        code, result, _ = run(name, 1, 0, reference=bad_reference)
        expect(code != 0 and result is not None and not result["correct"]
               and result["failed"] >= 1,
               f"{name}: perturbed reference digest counted as failed")
    print(f"perfbench selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
