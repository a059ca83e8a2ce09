"""Child process of the benchmark; prints one JSON line.

    child.py setup <workload>          time import plus the workload's set-up
    child.py cli [--trace] -- ARGV...  time `import swapkit.cli`, then
                                       `swapkit.cli.run(ARGV)`

Run with `src` on PYTHONPATH.  Under `--trace` the CLI call runs with the
tracer installed and the per-layer summary is returned with the output.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import speed


def spawn(root: Path, args: list[str], timeout: float) -> dict:
    """Run this script in a fresh interpreter with `root/src` on the path
    and return the JSON it prints."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve())]
                          + args, env=env, cwd=root, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup(workload: str) -> dict:
    """Import plus set-up, timed at nominal machine speed."""
    def import_and_setup():
        import workloads
        workloads.make(workload, 0, None).setup()

    _, setup_s = speed.timed(import_and_setup)
    return {"setup_s": setup_s}


def cli(argv: list[str], trace: bool) -> dict:
    started = time.perf_counter()
    import swapkit.cli
    import_s = time.perf_counter() - started
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
        tracer.op_id = 0
    out = io.StringIO()
    started = time.perf_counter()
    try:
        code = swapkit.cli.run(argv, out=out)
    finally:
        run_s = time.perf_counter() - started
        if tracer is not None:
            tracer.uninstall()
    result = {"exit": code, "out": out.getvalue(), "import_s": import_s,
              "run_s": run_s}
    if tracer is not None:
        result["trace"] = tracing.summary(tracer)
    return result


def main(args: list[str]) -> int:
    if args[:1] == ["setup"] and len(args) == 2:
        result = setup(args[1])
    elif args[:1] == ["cli"] and "--" in args:
        split = args.index("--")
        result = cli(args[split + 1:], "--trace" in args[1:split])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
