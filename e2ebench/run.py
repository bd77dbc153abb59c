#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a checkout.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds, in release mode and offline, the workspace binaries the benchmark
drives (export_models, fairlens-serve, fairlens-fleet) and the benchmark
itself (the e2ebench package beside this file), then runs it. Cargo's
output goes to stderr; the benchmark's stdout is passed through, its last
line being the result JSON. The target directory is $CARGO_TARGET_DIR,
or .bench_build in the checkout when unset.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BINARIES = ["export_models", "fairlens-serve", "fairlens-fleet"]
PACKAGES = ["fairlens-bench", "fairlens-serve", "fairlens-fleet"]


def fail(msg):
    print(f"[e2ebench] {msg}", file=sys.stderr)
    sys.exit(2)


def cargo(args, env):
    proc = subprocess.run(["cargo", *args], cwd=ROOT, env=env, stdout=sys.stderr)
    if proc.returncode != 0:
        fail(f"cargo {' '.join(args)} failed with exit code {proc.returncode}")


def main():
    for needed in ["Cargo.toml", "crates/serve/Cargo.toml", "crates/fleet/Cargo.toml",
                   "crates/bench/Cargo.toml", "e2ebench/Cargo.toml"]:
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a full checkout of the repository")
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)

    build = ["build", "--release", "--offline", "--quiet"]
    for p in PACKAGES:
        build += ["-p", p]
    for b in BINARIES:
        build += ["--bin", b]
    cargo(build, env)
    cargo(["build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join("e2ebench", "Cargo.toml")], env)

    bin_dir = os.path.join(target, "release")
    cmd = [os.path.join(bin_dir, "e2ebench"), *sys.argv[1:], "--bin-dir", bin_dir]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()
