"""Outside-in benchmark of acutesphere's check / realize / invariants pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload check_ladder --seed 1 --seconds 30 --trace 0

Every op runs in this one single-threaded process through the public entry
points, mostly ``acutesphere.cli.main(argv)`` with default options and its
stdout captured.  Each op's output is checked by ``checks.py`` after the
pass, outside the timed region.  With ``--trace 0`` the last line of stdout
is a JSON object with the end-to-end metrics; with ``--trace 1`` it carries
the per-layer metrics of one traced pass (see ``tracer.py``), and the
tracing overhead against an untraced pass of the same ops.
"""

import os
import sys

PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}


def pin_environment():
    """Re-execute once with one BLAS/OpenMP thread, a fixed hash seed and no
    ACUTE_SPHERE_THREADS: the first two are read only at start-up."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()) \
            and "ACUTE_SPHERE_THREADS" not in os.environ:
        return
    env = dict(os.environ, **PINNED_ENV)
    env.pop("ACUTE_SPHERE_THREADS", None)
    os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:], env)


if __name__ == "__main__":
    pin_environment()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import inspect  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, metric_units, replace_everywhere  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 150
# a cap on the rounds of one run, far above what --seconds allows
MAX_ROUNDS = 100_000
# beta's Monte-Carlo sample count per face, the CLI default
BETA_SAMPLES = 100_000


def environment():
    """Facts about this run that explain its numbers; not gated."""
    import numpy
    import scipy

    head = workloads.ROOT / ".git" / "HEAD"
    sha = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_file = workloads.ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else ref
    lines = sum(len(p.read_text().splitlines())
                for p in sorted((workloads.SRC / "acutesphere").glob("*.py")))
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "src_lines": lines,
            "threads_env": {k: os.environ.get(k) for k in PINNED_ENV},
            "ACUTE_SPHERE_THREADS": os.environ.get("ACUTE_SPHERE_THREADS")}


def prepare(workload, seed, work):
    """One set-up in a fresh process; returns its self-reported seconds."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "prepare.py"), workload, str(seed), str(work)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=workloads.ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: set-up of {workload} failed ({proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Runner:
    """Runs ops, times them and checks their outputs after each pass."""

    def __init__(self, ops):
        import acutesphere.cli
        import numpy as np
        import acutesphere.klein
        import acutesphere.realization
        import acutesphere.triangulation

        self.pkg = acutesphere
        self.tracer = None
        self.graphs = {}
        self.records = []        # every executed op: dict with id, seconds, error
        self.realizations = {}
        for op in ops:
            if op["kind"] == "beta":
                tri, _ = acutesphere.triangulation.parse_file(op["path"])
                positions = json.loads(Path(op["positions"]).read_text())
                self.realizations[op["id"]] = acutesphere.realization.GeodesicRealization(
                    tri, {v: np.array(p) for v, p in positions.items()})
        self._starts = 0
        self._count_starts()

    def _count_starts(self):
        """Count Tutte starts, so a failed solve reports how many it tried."""
        original = getattr(self.pkg.pattern, "tutte_sphere_init", None)
        if original is None:
            return

        def counted(*args, **kwargs):
            self._starts += 1
            return original(*args, **kwargs)

        replace_everywhere(original, counted, [])

    def graph(self, path):
        if path not in self.graphs:
            self.graphs[path] = checks.Graph(path)
        return self.graphs[path]

    def _call(self, op):
        """Run one op; returns (payload for its check, exit code)."""
        pkg = self.pkg
        if op["kind"] == "cli":
            out = op["check"].get("out")
            if out and op["argv"][0] == "realize":
                shutil.rmtree(out, ignore_errors=True)
            main = pkg.cli.main
            if self.tracer:
                main = self.tracer.wrap(f"cli.{op['argv'][0]}", main)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = main(op["argv"])
                except SystemExit as exc:
                    code = exc.code
            text = stdout.getvalue()
            return (json.loads(text) if text.strip() else None), code
        if op["kind"] == "beta":
            beta = pkg.klein.beta
            params = inspect.signature(beta).parameters
            kwargs = {k: v for k, v in (("samples", BETA_SAMPLES), ("seed", 0)) if k in params}
            est = beta(self.realizations[op["id"]], **kwargs)
            return float(getattr(est, "value", est)), 0
        # probe: the public realize call and the CLI's verification calls
        real = pkg.realization
        tri, _ = pkg.triangulation.parse_file(op["path"])
        kwargs = {"max_starts": 1} if "max_starts" in inspect.signature(
            real.realize_sphere).parameters else {}
        res = real.realize_sphere(tri, seed=0, **kwargs)
        real.verify_acute(res.realization)
        real.verify_coinciding_perpendiculars(res.realization)
        real.pattern_residuals(res.closed_realization)
        return res.realization.to_json(), 0

    def execute(self, op):
        gc.collect()
        self._starts = 0
        if self.tracer:
            self.tracer.op = f"{op['id']}#{len(self.records)}"
        record = {"id": op["id"], "op": op, "trace_op": self.tracer and self.tracer.op}
        t0 = perf_counter()
        try:
            record["payload"], record["code"] = self._call(op)
        except Exception as exc:  # a failed op is data, not a crash
            record["seconds"] = perf_counter() - t0
            record["error"] = {"op": op["id"], "error": type(exc).__name__,
                               "message": str(exc),
                               "best_residual": getattr(exc, "best_residual", None),
                               "starts": self._starts,
                               "where": traceback.format_exc(limit=-2).strip()}
        else:
            record["seconds"] = perf_counter() - t0
        finally:
            if self.tracer:
                self.tracer.op = None
        self.records.append(record)
        return record

    def check(self, record):
        """Check one op's output; failed checks become failure records."""
        if "error" not in record:
            try:
                reason = self._check(record)
            except Exception as exc:  # malformed output is a failed check
                reason = f"{type(exc).__name__} while checking: {exc}"
            if reason:
                record["error"] = {"op": record["id"], "error": "CheckFailed",
                                   "message": reason}
        record.pop("payload", None)

    def _check(self, record):
        op, payload, code = record["op"], record["payload"], record["code"]
        spec = op["check"]
        name = spec["name"]
        if name == "check":
            return checks.check_check(payload, code, spec, self.graph(spec["path"]))
        if name == "construct":
            base = self.graph(spec["base"]) if "base" in spec else None
            return checks.check_construct(code, spec, base)
        if name == "realize":
            return checks.check_realize(payload, code, spec, self.graph(spec["path"]))
        if name == "invariants":
            error = checks.check_invariants(payload, code, spec)
            if not error:
                record["alpha"] = payload["metrics"]["alpha"]
                record["beta"] = payload["metrics"]["beta"]
            return error
        if name == "beta":
            return checks.check_beta(payload)
        if name == "dual":
            return checks.check_dual(payload, code, spec)
        return checks.realization_error(payload, self.graph(spec["path"]))


def timed_ops(ops):
    return [op for op in ops if op["kind"] != "probe" and not op.get("sentinel")]


def warm_up(runner, ops):
    """Run the first op of each command once, so lazy imports and first-call
    set-up inside numpy and scipy land outside the timed rounds."""
    first = {}
    for op in ops:
        first.setdefault((op["kind"], tuple(op.get("argv", ())[:1])), op)
    for op in first.values():
        runner.check(runner.execute(op))


def measure(seconds, runner, ops, order_rng):
    """Untraced rounds until --seconds is used up.

    The first round runs every timed op once.  Each later round runs, in a
    fresh seeded order, the ops whose last latency still fits into what is
    left of the budget, so the run always measures for about --seconds and
    the shorter ops are sampled again across it.  Returns each op's
    latencies by op id, in op-list order."""
    timed = timed_ops(ops)
    warm_up(runner, timed)
    samples = {op["id"]: [] for op in timed}
    start = perf_counter()
    for _ in range(MAX_ROUNDS):
        order = timed[:]
        order_rng.shuffle(order)
        done = []
        for op in order:
            times = samples[op["id"]]
            if times and perf_counter() - start + times[-1] > seconds:
                continue
            record = runner.execute(op)
            times.append(record["seconds"])
            done.append(record)
        for record in done:
            runner.check(record)
        if not done:
            break
    for op in ops:
        if op.get("sentinel"):
            runner.check(runner.execute(op))
    return samples


def end_to_end(runner, setups, samples, largest_id):
    ok = [r for r in runner.records if "error" not in r]
    by_id = {}
    for r in ok:
        by_id.setdefault(r["id"], r)
    typical = {op_id: statistics.median(times) for op_id, times in samples.items()}
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(typical.values()), "s"),
        "op_geomean_s": (statistics.geometric_mean(typical.values()), "s"),
        "largest_op_s": (typical[largest_id], "s"),
        "ok_share": (len(ok) / len(runner.records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    ico = by_id.get("invariants:icosahedron")
    if ico:
        # floored at double epsilon so that an exact beta still reads above 0
        err = max(checks.beta_rel_err(ico["beta"]), sys.float_info.epsilon)
        metrics["beta_rel_err"] = (err, "ratio")
    alphas = [by_id[f"invariants:{n}"]["alpha"] for n in workloads.ALPHA_INPUTS
              if f"invariants:{n}" in by_id]
    if len(alphas) == len(workloads.ALPHA_INPUTS):
        metrics["alpha_mean_rad"] = (sum(alphas) / len(alphas), "rad")
    for op_id in sorted(samples, key=lambda k: -typical[k]):
        print(f"# op {op_id:36s} n={len(samples[op_id]):3d} median {typical[op_id]:.4f} s")
    print(f"# op latencies: {len(samples)} ops, {sum(map(len, samples.values()))} samples; "
          f"largest op {largest_id} n={len(samples[largest_id])}")
    print(f"# setup runs (s): {[round(s, 4) for s in setups]}")
    return metrics


def traced_execute(runner, tracer, op):
    tracer.install()
    runner.tracer = tracer
    try:
        return runner.execute(op)
    finally:
        tracer.uninstall()
        runner.tracer = None


def per_layer(runner, ops, order_rng):
    """Each op once untraced and once traced, back to back and in alternating
    order, so that host drift mostly cancels from the overhead; then the probe."""
    order = timed_ops(ops)
    order_rng.shuffle(order)
    warm_up(runner, order)
    tracer = Tracer()
    seconds = {False: 0.0, True: 0.0}
    traced_records = []
    for i, op in enumerate(order):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            record = traced_execute(runner, tracer, op) if traced else runner.execute(op)
            seconds[traced] += record["seconds"]
            runner.check(record)
            if traced:
                traced_records.append(record)
    probes = [traced_execute(runner, tracer, op) for op in ops if op["kind"] == "probe"]
    for record in probes:
        if "error" in record:
            # the known 182-vertex failure: reported as data, not counted as an op
            print("# probe " + json.dumps(record["error"]))
            runner.records.remove(record)
        else:
            runner.check(record)
    untraced, traced = seconds[False], seconds[True]

    metrics = tracer.metrics([r["trace_op"] for r in traced_records + probes])
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_share"] = (traced - untraced) / untraced
    for r in traced_records:
        own = tracer.op_self_sum(r["trace_op"])
        if own > r["seconds"] + 1e-9 and "error" not in r:
            r["error"] = {"op": r["id"], "error": "CheckFailed",
                          "message": f"self times {own} exceed op wall {r['seconds']}"}
    if tracer.absent:
        print(f"# absent layers (reported as zero calls): {tracer.absent}")
    print(f"# traced ops {traced:.3f} s, untraced ops {untraced:.3f} s, "
          f"overhead {metrics['trace.overhead_s']:+.3f} s")
    units = metric_units()
    return {name: (value, units[name]) for name, value in metrics.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    workloads.import_package()
    work = workloads.ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = [prepare(args.workload, args.seed, work)
                  for _ in range(1 if args.trace else SETUP_RUNS)]
        ops = json.loads((work / "ops.json").read_text())
        print("# env " + json.dumps(environment()))
        runner = Runner(ops)
        order_rng = random.Random(args.seed)
        if args.trace:
            metrics = per_layer(runner, ops, order_rng)
        else:
            samples = measure(args.seconds, runner, ops, order_rng)
            largest = next(op["id"] for op in ops if op.get("largest"))
            metrics = end_to_end(runner, setups, samples, largest)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for record in runner.records:
        if "error" in record:
            print("# failure " + json.dumps(record["error"]))
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    attempted = len(runner.records)
    failed = sum(1 for r in runner.records if "error" in r)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
