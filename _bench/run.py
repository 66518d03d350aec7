#!/usr/bin/env python3
"""Build and run the REAPER benchmark from the root of a checkout.

    python3 _bench/run.py --workload population --seed 1 --seconds 25 --trace 0

The Go benchmark in this directory is a module of its own that builds the
repository's packages from source (go.mod replaces `reaper` with `..`).
Everything the build and the run write -- Go build cache, temporary files,
the binary, soak checkpoints -- stays under .bench_build/ in the checkout.
Arguments are passed through to the benchmark binary; its exit code is
returned. The last line of standard output is the JSON result.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"


def go_env():
    env = dict(os.environ)
    for var, sub in [
        ("GOCACHE", "gocache"),
        ("GOTMPDIR", "tmp"),
        ("GOMODCACHE", "gomodcache"),
        ("GOPATH", "gopath"),
        ("HOME", "home"),
        ("XDG_CONFIG_HOME", "config"),
        ("XDG_CACHE_HOME", "cache"),
    ]:
        path = BUILD / sub
        path.mkdir(parents=True, exist_ok=True)
        env[var] = str(path)
    env["TMPDIR"] = env["GOTMPDIR"]
    env.update(GOTOOLCHAIN="local", GOWORK="off", GOFLAGS="-mod=readonly",
               GOENV="off", GOPROXY="off", CGO_ENABLED="0")
    return env


def revision():
    """The git commit when there is one, plus a digest of the Go sources."""
    h = hashlib.sha256()
    sources = []
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if d not in (".git", ".bench_build")]
        sources += [Path(dirpath) / f for f in filenames
                    if f.endswith(".go") or f in ("go.mod", "go.sum")]
    for path in sorted(sources):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    commit = "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return f"{commit}+src.{h.hexdigest()[:16]}"


def main():
    env = go_env()
    binary = BUILD / "reaper-bench"
    build = subprocess.run(["go", "build", "-trimpath", "-o", str(binary), "."],
                           cwd=HERE, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1
    work = BUILD / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        args = [str(binary), *sys.argv[1:], "--workdir", str(work), "--commit", revision()]
        return subprocess.run(args, cwd=ROOT, env=env).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
