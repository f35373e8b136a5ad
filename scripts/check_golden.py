#!/usr/bin/env python3
"""Byte-compare a bench driver's stdout against a golden capture.

Runs DRIVER ARGS once per variant and fails unless every run exits 0 and
prints exactly the golden bytes. A variant is `default` (the command as
given) or one extra flag token appended to it, e.g.
`--mem-backend=channel` or `--l1-filter=false`.

The golden file was captured before the MemoryBackend boundary existed,
so it is an oracle outside every toggle it checks:

  * `default` and `--mem-backend=channel`: the default model must BE the
    pre-refactor channel pipe (sim/memory_backend.hpp). The banked
    backends are supposed to differ and are not checked here.
  * `--l1-filter=false` and `--l2-filter=false`: the filter fast paths
    are host-speed knobs whose outputs must not move. With the default
    (filters on) pinned to the same file, "off equals the golden" also
    proves "off equals on" — and a defect both settings shared would
    still show against the golden.

Registered as the blocking `smoke.fig9_backend_identity` (default and
channel), `smoke.fig9_filter_identity` and `smoke.fig9_l2_filter_identity`
ctest entries; state-level identity is covered by
tests/sim/memory_backend_test.cpp and tests/sim/filter_identity_test.cpp.

Usage: scripts/check_golden.py GOLDEN VARIANT... -- DRIVER [ARGS...]
"""

import subprocess
import sys


def run(command, variant):
    extra = [] if variant == "default" else [variant]
    proc = subprocess.run([*command, *extra], capture_output=True)
    if proc.returncode != 0:
        print(proc.stderr.decode(errors="replace"), file=sys.stderr)
        sys.exit(f"{variant} run failed ({proc.returncode})")
    return proc.stdout


def check(variant, out, golden):
    if out == golden:
        return
    for lineno, (a, b) in enumerate(
            zip(golden.splitlines(), out.splitlines()), 1):
        if a != b:
            print(f"{variant}: first divergence at stdout line {lineno}:",
                  file=sys.stderr)
            print(f"  golden: {a!r}", file=sys.stderr)
            print(f"  run:    {b!r}", file=sys.stderr)
            break
    sys.exit(f"{variant} output differs from the golden "
             f"({len(golden)} vs {len(out)} bytes)")


def main():
    args = sys.argv[1:]
    if "--" not in args:
        sys.exit(__doc__)
    split = args.index("--")
    head, command = args[:split], args[split + 1:]
    if len(head) < 2 or not command:
        sys.exit(__doc__)
    golden_path, variants = head[0], head[1:]
    with open(golden_path, "rb") as f:
        golden = f.read()
    for variant in variants:
        check(variant, run(command, variant), golden)
    print(f"golden identity OK for {', '.join(variants)} "
          f"({len(golden)} bytes, bit-identical)")


if __name__ == "__main__":
    main()
