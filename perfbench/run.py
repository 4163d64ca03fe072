#!/usr/bin/env python3
"""Build the benchmark from the sources next to it, then run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Build output goes to $CARGO_TARGET_DIR
(default `.bench_build`); cargo's own messages go to standard error, so the
benchmark's result stays the last line of standard output.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


SOURCES = ["crates", "vendor", "perfbench", "Cargo.toml", "Cargo.lock"]
SKIP_DIRS = {"target", ".bench_build", ".git"}


def newest_source_mtime():
    """The latest modification time of anything the build reads."""
    newest = 0.0
    for entry in SOURCES:
        path = os.path.join(ROOT, entry)
        if os.path.isfile(path):
            newest = max(newest, os.path.getmtime(path))
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
            for name in filenames:
                newest = max(newest, os.path.getmtime(os.path.join(dirpath, name)))
    return newest


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "serve", "Cargo.toml")):
        sys.exit("perfbench: no repository sources next to perfbench/, nothing to measure")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    binary = os.path.join(os.path.abspath(env["CARGO_TARGET_DIR"]), "release", "perfbench")
    # cargo alone would rebuild on every run outside a git checkout: the serve
    # crate's build script watches `.git/HEAD`, and a missing file always
    # counts as changed. Build only when a source is newer than the binary.
    if not os.path.isfile(binary) or os.path.getmtime(binary) < newest_source_mtime():
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")],
            stdout=sys.stderr,
            env=env,
        )
        if build.returncode != 0:
            sys.exit(build.returncode)
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
