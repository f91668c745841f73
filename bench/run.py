"""kreinsl benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload direct-r2 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout (it needs `src/kreinsl` and
`docs/schemas`).  Operations run one after another (a closed loop with one
client), each in a fresh child process (bench/child.py) that imports the
package from `src` and calls `kreinsl.cli.main(argv)`, with BLAS threads
capped at the number of usable cores through the child's environment.
Every operation is checked: exit code 0, every output valid against its
schema in docs/schemas, the workload's own correctness check, and output
files byte-identical to the first operation's.  A failed check counts the
operation as failed; the error rate is `failed / attempted` in the result.
Accuracy figures (relative L2 error of a reconstructed potential, the
roundtrip eigenvalue re-match) exist on some workloads only, so they are
checked against fixed ceilings (workloads.py) and printed, not reported as
metrics.

--trace 0 reports the end-to-end metrics: set-up (import) time, wall time
and peak RSS of an operation, each a median over the run.  --trace 1
cycles through untraced, span-timed and memory-traced operations (see
tracer.py) and reports per-layer self times and counts from the timed
ones, peaks from the memory-traced ones, and the timing overhead.  The
last line of standard output is one JSON object with the result; the
lines before it are the same figures for a reader, with sample counts,
accuracy figures and the environment.
"""

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import WORKLOADS, CheckFailed  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCHEMAS = os.path.join(ROOT, "docs", "schemas")
CHILD = os.path.join(ROOT, "bench", "child.py")

SETUP_PROBES = 5          # import-only children per run, besides the operations
MIN_OPS = 3               # a median of three at least; also one op of each trace kind
TRACE_KINDS = [None, "time", "memory"]
DEADLINE_S = 170          # the whole run, so that it ends within 180 s
SELF_SUM_TOL = 0.01       # |sum of self times - operation wall| / wall
GLUE_SHARE_MAX = 0.10     # cli.self_s / wall; more means a layer went unwrapped
MB = 1024.0 * 1024.0

# Per-layer metrics of a traced run: (metric, unit, better).  A layer that
# a workload leaves idle reads 0.  What each should move, and where:
#   direct.*.self_s, .peak_mb      wall_s, peak_rss_mb on direct-r2 and
#                                  roundtrip-r1; idle on inverse-r2
#   direct.propagate.*             wall_s on direct-r2 (diagnostics points)
#   direct.eigen_entries, .rank_total
#                                  exact counts, guards only
#   krein.solve_krein.*            wall_s, peak_rss_mb on inverse-r2 and
#                                  roundtrip-r1; idle on direct-r2
#   krein.krein_residual.self_s    wall_s on inverse-r2
#   validation.*.self_s            wall_s on inverse-r2
#   accelerant.*                   wall_s on inverse-r2, predicted flat
#   core.*                         wall_s on every workload (JSON I/O)
#   miura, synthetic, cli (glue)   wall_s, predicted flat
#   trace.overhead_s               timed minus untraced operation wall time
PER_LAYER = [
    ("direct.find_eigenvalues.self_s", "s", "lower"),
    ("direct.find_eigenvalues.peak_mb", "MB", "lower"),
    ("direct.norming_constants.self_s", "s", "lower"),
    ("direct.norming_constants.peak_mb", "MB", "lower"),
    ("direct.propagate.self_s", "s", "lower"),
    ("direct.propagate.calls", "count", "lower"),
    ("direct.eigen_entries", "count", "higher"),
    ("direct.rank_total", "count", "higher"),
    ("krein.solve_krein.self_s", "s", "lower"),
    ("krein.solve_krein.peak_mb", "MB", "lower"),
    ("krein.solve_krein.calls", "count", "lower"),
    ("krein.krein_residual.self_s", "s", "lower"),
    ("validation.check_a3_a4.self_s", "s", "lower"),
    ("validation.completeness_matrices.self_s", "s", "lower"),
    ("validation.check_a1.self_s", "s", "lower"),
    ("accelerant.build_accelerant.self_s", "s", "lower"),
    ("accelerant.build_accelerant.calls", "count", "lower"),
    ("accelerant.build_heo.self_s", "s", "lower"),
    ("core.load_spectral_data.self_s", "s", "lower"),
    ("core.load_matrix_grid.self_s", "s", "lower"),
    ("core.save_matrix_grid.self_s", "s", "lower"),
    ("core.save_spectral_data.self_s", "s", "lower"),
    ("core.io.bytes_read", "B", "lower"),
    ("core.io.bytes_written", "B", "lower"),
    ("miura.miura.self_s", "s", "lower"),
    ("synthetic.fourier_tau.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
# Counts carried by spans (tracer._counts) and the metric each sums into.
SPAN_COUNTS = {"eigen_entries": "direct.eigen_entries",
               "rank_total": "direct.rank_total",
               "bytes_read": "core.io.bytes_read",
               "bytes_written": "core.io.bytes_written"}


class OpFailed(Exception):
    """An operation failed; the message says how."""


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    env.pop("PYTHONPATH", None)
    return env


def run_child(job: dict, workdir: str, tag: str, deadline: float) -> dict:
    """Run one fresh child on `job`, killed at `deadline` (perf_counter
    time); returns its result document."""
    timeout = max(1.0, deadline - time.perf_counter())
    job_path = os.path.join(workdir, f"{tag}.job.json")
    job["result"] = os.path.join(workdir, f"{tag}.result.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    log_path = os.path.join(workdir, f"{tag}.log")
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run([sys.executable, CHILD, job_path], env=child_env(),
                                  stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout, check=False)
        except subprocess.TimeoutExpired:
            raise OpFailed(f"{tag}: killed at the run's deadline") from None
    if proc.returncode != 0 or not os.path.exists(job["result"]):
        with open(log_path, encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        raise OpFailed(f"{tag}: runner exited with {proc.returncode}\n{tail}")
    with open(job["result"], encoding="utf-8") as fh:
        return json.load(fh)


def load_validators() -> dict:
    from jsonschema import Draft202012Validator
    from referencing import Registry, Resource
    docs = {}
    for name in sorted(os.listdir(SCHEMAS)):
        with open(os.path.join(SCHEMAS, name), encoding="utf-8") as fh:
            docs[name] = json.load(fh)
    registry = Registry().with_resources(
        (name, Resource.from_contents(doc)) for name, doc in docs.items())
    return {name[: -len(".schema.json")]: Draft202012Validator(doc, registry=registry)
            for name, doc in docs.items()}


def check_op(workload, result: dict, outdir: str, ref_dir: str | None,
             validators: dict) -> dict:
    """All checks on one operation; returns its accuracy figures."""
    for step in result["steps"]:
        if step["exit"] != 0:
            raise OpFailed(f"`{' '.join(step['argv'][:2])}` exited with {step['exit']}")
    if len(result["steps"]) != len(workload.steps(outdir)):
        raise OpFailed("not every step ran")
    for fname, schema in workload.outputs.items():
        path = os.path.join(outdir, fname)
        if not os.path.exists(path):
            raise OpFailed(f"missing output {fname}")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        errors = list(validators[schema].iter_errors(doc))
        if errors:
            raise OpFailed(f"{fname} fails {schema} schema: {errors[0].message}")
    try:
        accuracy = workload.check(outdir)
    except CheckFailed as exc:
        raise OpFailed(str(exc)) from None
    if ref_dir is not None:
        for fname in workload.outputs:
            if not filecmp.cmp(os.path.join(ref_dir, fname),
                               os.path.join(outdir, fname), shallow=False):
                raise OpFailed(f"{fname} differs from the first operation's")
    return accuracy


def layer_figures(spans: list) -> dict:
    """Per-layer self time, calls, peak and counts of one traced operation."""
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["t1"] - s["t0"]
    out = {}
    for s in spans:
        layer = "cli" if s["name"] == "cli.main" else s["name"]
        self_s = s["t1"] - s["t0"] - child_time.get(s["id"], 0.0)
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + self_s
        out[f"{layer}.calls"] = out.get(f"{layer}.calls", 0) + 1
        if "peak_b" in s:
            out[f"{layer}.peak_mb"] = max(out.get(f"{layer}.peak_mb", 0.0),
                                          s["peak_b"] / MB)
        for key, metric in SPAN_COUNTS.items():
            if key in s:
                out[metric] = out.get(metric, 0) + s[key]
    return out


def self_time_check(figures: dict, wall: float) -> None:
    """Self times must add up to the operation's wall time (spans nest and
    none is lost), and the unattributed cli glue must stay small: a layer
    called through a binding the tracer missed lands in the glue."""
    total = sum(v for k, v in figures.items() if k.endswith(".self_s"))
    if abs(total - wall) > SELF_SUM_TOL * wall:
        raise OpFailed(f"self times sum to {total:.4f} s, operation took {wall:.4f} s")
    glue = figures.get("cli.self_s", 0.0)
    if glue > GLUE_SHARE_MAX * wall:
        raise OpFailed(f"cli glue {glue:.3f} s exceeds {GLUE_SHARE_MAX:.0%} of "
                       f"{wall:.3f} s: a layer binding was not wrapped")


def measure(workload, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    inputs = os.path.join(workdir, "inputs")
    os.makedirs(inputs)
    workload.make_inputs(seed, inputs, SRC)
    validators = load_validators()
    import_job = {"src": SRC, "modules": workload.modules, "steps": [], "trace": None}

    run_child(dict(import_job), workdir, "warmup", deadline)
    setup = [run_child(dict(import_job), workdir, f"probe{k}", deadline)["setup_s"]
             for k in range(SETUP_PROBES)]

    kinds = TRACE_KINDS if trace else [None]
    walls = {kind: [] for kind in kinds}
    layers = {kind: [] for kind in kinds}
    rss, accuracy, failures, late = [], [], [], set()
    env = None
    ref_dir = None
    attempted = 0
    start = time.perf_counter()
    while (attempted < MIN_OPS or time.perf_counter() - start < seconds) \
            and time.perf_counter() < deadline:
        kind = kinds[attempted % len(kinds)]
        outdir = os.path.join(workdir, f"op{attempted}")
        os.makedirs(outdir)
        job = {"src": SRC, "modules": workload.modules,
               "steps": workload.steps(outdir), "trace": kind}
        attempted += 1
        try:
            result = run_child(job, workdir, f"op{attempted - 1}", deadline)
            acc = check_op(workload, result, outdir, ref_dir, validators)
            if kind:
                figures = layer_figures(result["spans"])
                if kind == "time":
                    self_time_check(figures, result["wall_s"])
                layers[kind].append(figures)
        except OpFailed as exc:
            failures.append(f"op{attempted - 1}: {exc}")
            continue
        if ref_dir is None:
            ref_dir = outdir
        setup.append(result["setup_s"])
        walls[kind].append(result["wall_s"])
        if kind is None:
            rss.append(result["maxrss_mb"])
        accuracy.append(acc)
        late.update(result["late_imports"])
        env = result["env"]
    return {"setup": setup, "walls": walls, "rss": rss, "accuracy": accuracy,
            "layers": layers, "failures": failures, "attempted": attempted,
            "late_imports": sorted(late), "env": env}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for need in (os.path.join(SRC, "kreinsl", "cli.py"), SCHEMAS):
        if not os.path.exists(need):
            print(f"error: {need} not found; run from a kreinsl source checkout",
                  file=sys.stderr)
            return 2

    workload = WORKLOADS[args.workload]()
    workdir = tempfile.mkdtemp(prefix=".work-", dir=os.path.join(ROOT, "bench"))
    try:
        res = measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in res["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    if res["late_imports"]:
        print(f"note: modules imported inside main(): {res['late_imports']}",
              file=sys.stderr)
    if not all(res["walls"].values()):
        print("error: no operation of some kind succeeded", file=sys.stderr)
        return 1
    untraced = res["walls"][None]

    env = dict(res["env"], nproc=os.cpu_count(),
               usable_cores=len(os.sched_getaffinity(0)), seed=args.seed,
               workload=args.workload)
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"operations: {res['attempted']} attempted, {len(res['failures'])} failed, "
          f"error_rate {len(res['failures']) / res['attempted']:.3f}")
    for key in sorted({k for acc in res["accuracy"] for k in acc}):
        vals = [acc[key] for acc in res["accuracy"]]
        print(f"accuracy {key}: {statistics.median(vals):.6e} (n={len(vals)})")

    if args.trace:
        metrics = {}
        for name, unit, _ in PER_LAYER:
            if name == "trace.overhead_s":
                value = statistics.median(res["walls"]["time"]) - statistics.median(untraced)
            else:
                kind = "memory" if name.endswith(".peak_mb") else "time"
                value = statistics.median(f.get(name, 0) for f in res["layers"][kind])
            metrics[name] = {"value": value, "unit": unit}
        print("operations untraced / timed / memory-traced: "
              + " / ".join(str(len(res["walls"][k])) for k in TRACE_KINDS)
              + f"; self times sum to each timed operation's wall time within "
              + f"{SELF_SUM_TOL:.0%}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(res["setup"]), "unit": "s"},
            "wall_s": {"value": statistics.median(untraced), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(res["rss"]), "unit": "MB"},
        }
        counts = {"setup_s": len(res["setup"]), "wall_s": len(untraced),
                  "peak_rss_mb": len(res["rss"])}
        print("wall_s samples: " + " ".join(f"{w:.4f}" for w in untraced))
    for name, m in metrics.items():
        n = "" if args.trace else f"  (median of {counts[name]})"
        print(f"{name:42s} {m['value']:.6g} {m['unit']}{n}")
    print(json.dumps({"correct": not res["failures"], "attempted": res["attempted"],
                      "failed": len(res["failures"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
