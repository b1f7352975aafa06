#!/usr/bin/env python3
"""rocelab benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the rocelab
library from ../src) into .bench_build/perfbench at the repository root,
then runs it. The last line of stdout is the result JSON; the line before
it carries the host fingerprint (cores, CPU model, compiler, build type,
source revision) and the run's determinism digest. A traced run (--trace 1)
also writes its spans to .bench_build/traces/<workload>-seed<N>.json.

Arguments are parsed strictly: an unknown flag or workload, a value that
is not a whole number, or a missing value exits 2 naming the flag.
"""
import hashlib
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "perfbench"
# "smoke" is the test-only workload; BENCHMARK.json lists the others.
WORKLOADS = ("clos_mixed", "clos_sharded", "lock_table_lossy", "smoke")


def usage_error(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    print("usage: run.py --workload NAME --seed N --seconds S --trace 0|1", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    values = {"--workload": None, "--seed": "0", "--seconds": "10", "--trace": "0"}
    i = 0
    while i < len(argv):
        flag = argv[i]
        if flag not in values:
            usage_error(f"unknown flag {flag!r}")
        if i + 1 >= len(argv) or argv[i + 1].startswith("--"):
            usage_error(f"{flag}: missing value")
        values[flag] = argv[i + 1]
        i += 2
    workload = values["--workload"]
    if workload is None:
        usage_error("--workload: required")
    if workload not in WORKLOADS:
        usage_error(f"--workload: unknown workload {workload!r} (one of {', '.join(WORKLOADS)})")

    def whole(flag, lo, hi):
        text = values[flag]
        if not re.fullmatch(r"[0-9]+", text) or not lo <= int(text) <= hi:
            usage_error(f"{flag}: expected a whole number in [{lo}, {hi}], got {text!r}")
        return text

    return {
        "workload": workload,
        "seed": whole("--seed", 0, 2**64 - 1),
        "seconds": whole("--seconds", 1, 600),
        "trace": whole("--trace", 0, 1),
    }


def revision():
    """The git commit when the tree is a git checkout, else a hash of the
    sources the benchmark builds, so results stay tied to their code."""
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if out.returncode == 0:
            return out.stdout.strip()
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"run.py: rocelab sources not found under {ROOT}; run from a full checkout",
              file=sys.stderr)
        sys.exit(1)
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs], stdout=sys.stderr, check=True)
    return BUILD / "perfbench"


def main():
    args = parse_args(sys.argv[1:])
    # A terminated run still stops (and waits for) the benchmark process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        binary = build()
    except subprocess.CalledProcessError as e:
        print(f"run.py: build failed ({e})", file=sys.stderr)
        sys.exit(1)
    cmd = [str(binary), "--workload", args["workload"], "--seed", args["seed"],
           "--seconds", args["seconds"], "--trace", args["trace"], "--revision", revision()]
    if args["trace"] == "1":
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(traces / f"{args['workload']}-seed{args['seed']}.json")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, check=False).returncode)


if __name__ == "__main__":
    main()
