"""Fresh-process runner for one benchmark operation.

Usage: python3 bench/child.py JOB.json

The job names the source tree, the kreinsl modules to import before the
clock for the operation starts, and the CLI argument lists to hand to
`kreinsl.cli.main` one after another.  The runner times the imports
(set-up), times each `main(argv)` call, optionally records layer spans
(see tracer.py), and writes everything to the job's result path.  BLAS
thread caps come from the environment the parent sets, because numpy
reads them when it is first imported.
"""

import importlib
import importlib.metadata
import json
import os
import resource
import sys
import time


def _blas_info(np) -> dict:
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    src = job["src"]
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    for name in job["modules"]:
        importlib.import_module(name)
    setup_s = time.perf_counter() - t0

    import kreinsl
    pkg_dir = os.path.dirname(os.path.abspath(kreinsl.__file__))
    if os.path.dirname(pkg_dir) != os.path.abspath(src):
        print(f"kreinsl was imported from {pkg_dir}, not from {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if job["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer(memory=job["trace"] == "memory")
        tracer.install()
    loaded = {n for n in sys.modules if n.split(".")[0] == "kreinsl"}

    from kreinsl.cli import main as cli_main

    steps = []
    for argv in job["steps"]:
        t = time.perf_counter()
        code = cli_main(argv)
        steps.append({"argv": argv, "exit": code,
                      "wall_s": time.perf_counter() - t})
        if code != 0:
            break

    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    import numpy as np
    result = {
        "setup_s": setup_s,
        "wall_s": sum(s["wall_s"] for s in steps),
        "steps": steps,
        "maxrss_mb": maxrss_mb,
        "late_imports": sorted(
            n for n in sys.modules
            if n.split(".")[0] == "kreinsl" and n not in loaded),
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": importlib.metadata.version("scipy"),
            "blas": _blas_info(np),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.spans
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
