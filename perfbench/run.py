#!/usr/bin/env python3
"""Builds the repository's server and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --seed <n> --seconds <s> --trace <0|1> --workload \
        <kernel_fshh|kernel_fp|kernel_countmin|serve_ingest|serve_mixed>

Run it from the repository root (or any copy of it).  Builds go to
$CARGO_TARGET_DIR (default: .bench_build), and the run's scratch data dirs and
span files to <target dir>/perfbench/.  Unknown or abbreviated flags are
rejected.  The last line of standard output is one JSON result object; every
line before it names a metric with its unit and sample count.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("kernel_fshh", "kernel_fp", "kernel_countmin", "serve_ingest", "serve_mixed")


def parse_args():
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload.", allow_abbrev=False
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args()


def revision():
    """The git revision, or a digest of the sources when the copy is not a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        digest = hashlib.sha256()
        files = [ROOT / "Cargo.toml", *sorted((ROOT / "crates").rglob("*.rs")),
                 *sorted((ROOT / "crates").rglob("Cargo.toml")),
                 *sorted((ROOT / "perfbench" / "src").rglob("*.rs"))]
        for path in files:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
        return "tree-" + digest.hexdigest()[:12]


def main():
    args = parse_args()
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        sys.exit(f"perfbench: {ROOT} holds no repository sources to build")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = ROOT / target
    builds = (
        ["cargo", "build", "--release", "--quiet", "-p", "fsc-bench", "--bin", "fsc_serve"],
        ["cargo", "build", "--release", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
    )
    for command in builds:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(command)}")
    rustc = subprocess.run(["rustc", "--version"], cwd=ROOT, env=env,
                           capture_output=True, text=True).stdout.strip()
    print(f"host: revision {revision()}, {rustc}", flush=True)
    work = target / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    bench = subprocess.run(
        [str(target / "release" / "perfbench"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--server", str(target / "release" / "fsc_serve"), "--work-dir", str(work)],
        cwd=ROOT, env=env,
    )
    sys.exit(bench.returncode)


if __name__ == "__main__":
    main()
