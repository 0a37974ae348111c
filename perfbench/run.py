#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <cold_scan|hot_serving|live_standing> \
        --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench` (release profile, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build` in the checkout), then runs it with the same
arguments from the checkout root, passing its standard output through. The
last line of that output is the result object. The exit code is the
benchmark's, or the build's when the build fails.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def source_commit() -> str:
    """The git commit, or a digest of the sources when not in a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False, timeout=10
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    roots = [ROOT / "crates", HERE / "src", ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for root in roots:
        files = sorted(root.rglob("*")) if root.is_dir() else [root]
        for path in files:
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def rustc_version() -> str:
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, check=False, timeout=30)
        return out.stdout.strip().replace(" ", "_") or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main() -> int:
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "-j", "2", "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed with code {build.returncode}", file=sys.stderr)
        return build.returncode or 1
    env["PERFBENCH_RUSTC"] = rustc_version()
    env["PERFBENCH_COMMIT"] = source_commit()
    run = subprocess.run([str(target / "release" / "perfbench"), *sys.argv[1:]], cwd=ROOT, env=env, check=False)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
