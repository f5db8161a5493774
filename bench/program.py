"""Where the package under test lives, and how the benchmark starts it.

The benchmark builds nothing: it imports pathbij from `src/` of the
checkout it sits in, and starts every child interpreter with that
directory first on its path.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = SRC / "pathbij"
CHILD_TIMEOUT_S = 150


def require_package() -> None:
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"error: no pathbij sources under {SRC}; run from a checkout of the repository")


def import_package():
    require_package()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pathbij

    if Path(pathbij.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"error: imported pathbij from {pathbij.__file__}, not from {PACKAGE}")
    return pathbij


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run(argv: list[str], timeout: float = CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    """Run the current interpreter with argv from the checkout root and wait for it."""
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=timeout,
    )


def run_child(task: str, *args) -> dict:
    """Run bench/child.py and return the JSON object it prints last."""
    proc = run([str(BENCH / "child.py"), task, *map(str, args)])
    if proc.returncode != 0:
        raise RuntimeError(f"child {task} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MB (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024


def metadata() -> dict:
    """Machine, interpreter and source revision, so that records made at
    different times or on different machines can be compared."""
    revision = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode == 0:
            revision = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_revision": revision,
        "source_sha256": digest.hexdigest()[:16],
    }
