#!/usr/bin/env python3
"""Build the benchmark if its sources changed, then run it.

usage: python3 perfbench/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The binary goes to `$CARGO_TARGET_DIR`
(default `perfbench/target`) and is rebuilt only when a Rust source or
manifest is newer than it. `cargo run` would rebuild on every call in a
checkout without git history: the `bench` crate's build script watches
`.git/HEAD`, and cargo treats a missing watched file as changed.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, "perfbench", "target")))
BINARY = os.path.join(TARGET, "release", "perfbench")
BUILD_INPUTS = (".rs", ".toml", ".lock")


def newest_source():
    newest = os.path.getmtime(os.path.join(ROOT, "Cargo.toml"))
    for top in ("crates", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = [d for d in dirnames if os.path.join(dirpath, d) != TARGET and d != "target"]
            for name in filenames:
                if name.endswith(BUILD_INPUTS):
                    newest = max(newest, os.path.getmtime(os.path.join(dirpath, name)))
    return newest


def main():
    try:
        stale = not os.path.exists(BINARY) or os.path.getmtime(BINARY) < newest_source()
    except OSError as e:
        sys.exit(f"error: {e}")
    if stale:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
            env=dict(os.environ, CARGO_TARGET_DIR=TARGET),
        )
        if build.returncode != 0:
            sys.exit(build.returncode)
    os.execv(BINARY, [BINARY] + sys.argv[1:])


if __name__ == "__main__":
    main()
