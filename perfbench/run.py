#!/usr/bin/env python3
"""The repository benchmark: build ftspan_perfbench from ../src, run one
named workload, check its outputs, and print the result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check [--seed N] [--seconds S]

Run from the repository root. The last line of stdout is one JSON object
with exactly the keys correct, attempted, failed and metrics. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones (and writes
the run's spans under the build directory). At --seed 1 the deterministic
outputs are also compared with perfbench/goldens.json; at any other seed
only validity and answer equality are checked. The full record (metrics,
outputs, run metadata) is written under <build dir>/results/.

--self-check runs every workload twice at a seed that is not the default
and prints each end-to-end metric's spread between the two runs.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["build_unit", "certify_midrange"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(base)
    return (path if path.is_absolute() else ROOT / path) / "perfbench"


def build():
    """Configures (Release) and builds the binary; returns its path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "-j", jobs]]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        left = deadline - time.monotonic()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=max(1, left))
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise RuntimeError(f"build step {cmd[:2]} failed: {exc}")
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise RuntimeError(f"build step {' '.join(cmd[:2])} exited "
                               f"{proc.returncode}")
    binary = out / "ftspan_perfbench"
    if not binary.exists():
        raise RuntimeError("build produced no ftspan_perfbench")
    return binary


def source_id():
    """The git commit when the tree is a repository, plus a digest of the
    sources the binary is built from (a checkout need not be a repo)."""
    commit = "nogit"
    try:
        proc = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
        if proc.returncode == 0 and proc.stdout.strip():
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for sub in ("src", "perfbench"):
        for path in sorted((ROOT / sub).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt", ".py",
                                                  ".json"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return f"{commit}+src:{h.hexdigest()[:12]}"


def run_binary(binary, workload, seed, seconds, trace, commit):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--commit", commit]
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def check_goldens(record, workload, seed, trace):
    """At the pinned default seed, every output pinned for this workload and
    run kind (traced or untraced) must be produced and match exactly."""
    checks = []
    if seed != 1:
        return checks
    goldens = json.loads((HERE / "goldens.json").read_text())
    kind = "traced" if trace else "untraced"
    for key, want in goldens[workload][kind].items():
        got = record["outputs"].get(key)
        checks.append({"output": key, "want": want, "got": got,
                       "ok": got == want})
    return checks


def measure(binary, workload, seed, seconds, trace, commit):
    record = run_binary(binary, workload, seed, seconds, trace, commit)
    checks = check_goldens(record, workload, seed, trace)
    attempted = record["attempted"] + len(checks)
    failed = record["failed"] + sum(not c["ok"] for c in checks)
    for c in checks:
        if not c["ok"]:
            log(f"golden mismatch on {workload}.{c['output']}: "
                f"want {c['want']!r}, got {c['got']!r}")
    record["golden_checks"] = checks
    record["fail_share"] = failed / attempted if attempted else 1.0
    final = {"correct": failed == 0 and attempted > 0,
             "attempted": attempted, "failed": failed,
             "metrics": record["metrics"]}
    record["final"] = final
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return record, final


def self_check(binary, seed, seconds, commit):
    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.exists():
        for m in json.loads(spec.read_text()).get("end_to_end", []):
            bounds[m["name"]] = m["bound"]
    ok = True
    for workload in WORKLOADS:
        runs = [measure(binary, workload, seed, seconds, 0, commit)[1]
                for _ in range(2)]
        for name in sorted(runs[0]["metrics"]):
            a = runs[0]["metrics"][name]["value"]
            b = runs[1]["metrics"].get(name, {}).get("value", float("nan"))
            mid = (a + b) / 2
            spread = abs(a - b) / mid if mid else float("inf")
            bound = bounds.get(name)
            steady = bound is None or spread <= bound / 3
            ok &= steady and all(r["correct"] for r in runs)
            print(f"{workload:17s} {name:20s} {a:12.6g} {b:12.6g} "
                  f"spread {spread:7.2%}  bound/3 "
                  f"{'-' if bound is None else f'{bound / 3:.2%}'}  "
                  f"{'ok' if steady else 'UNSTEADY'}")
    print(json.dumps({"self_check": "pass" if ok else "fail", "seed": seed}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and not args.workload:
        ap.error("--workload is required (or --self-check)")
    try:
        binary = build()
        commit = source_id()
        if args.self_check:
            return self_check(binary, args.seed or 7, args.seconds, commit)
        seed = 1 if args.seed is None else args.seed
        record, final = measure(binary, args.workload, seed, args.seconds,
                                args.trace, commit)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as exc:
        log(f"error: {exc}")
        return 1
    print(json.dumps({"meta": record["meta"], "outputs": record["outputs"],
                      "notes": record["notes"],
                      "fail_share": record["fail_share"]}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
