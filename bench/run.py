"""Benchmark of the `ribbonsyz` CLI: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.
Every answer comes from a fresh worker process (worker.py) that calls
``ribbonsyz.cli.main`` with the argv a user would type.  See README.md in
this directory for the workloads and the metrics.

--trace 0: seven fresh processes time the import of ``ribbonsyz.cli`` with
  its schemas (``setup_s``); then the workload is answered again and again
  for --seconds (at least once), and the end-to-end metrics are reported.
--trace 1: one untraced and one traced answer; the per-layer metrics come
  from the traced one, ``trace.overhead_s`` from the difference.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  Lines before it are information: the environment, the CLI
seed, every answer's timing and stdout sha256, and any problems found.
Exits 2, printing no result, when the checkout has no ribbonsyz source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
REFERENCES = os.path.join(BENCH_DIR, "references.json")
SETUP_PROBES = 7
# Everything a run does must end well inside the 180 s a run may take.
RUN_DEADLINE_S = 170.0
BLAS_THREADS = 1


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    # An installed package imports from cached bytecode; so does the benchmark.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Runner:
    """Starts one worker at a time and collects its result."""

    def __init__(self, argv: list[str], deadline: float):
        self.argv = argv
        self.deadline = deadline
        self.env = worker_env()

    def call(self, mode: str, trace: bool = False, hook_blowups: bool = False, spans_path: str = "") -> dict:
        req = {
            "root": ROOT,
            "argv": self.argv,
            "mode": mode,
            "trace": int(trace),
            "hook_blowups": int(hook_blowups),
            "spans_path": spans_path,
        }
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "worker.py"), json.dumps(req)],
                env=self.env,
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            return {"error": "worker passed the run deadline"}
        if proc.returncode != 0:
            return {"error": f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"}
        try:
            res = json.loads(proc.stdout)
        except ValueError:
            return {"error": f"worker printed no result: {proc.stdout[-500:]!r}"}
        if os.path.realpath(res["package"]) != os.path.realpath(os.path.join(ROOT, "src", "ribbonsyz")):
            return {"error": f"ribbonsyz imported from {res['package']}, not from the checkout"}
        return res


def environment(blas_threads) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads_in_effect": blas_threads,
    }


def load_references(workload: str, seed: int):
    with open(REFERENCES) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def save_answer(workload, seed: int, view: dict) -> None:
    """Keep a checked answer where record_references.py can store it."""
    os.makedirs(os.path.join(OUT_DIR, "answers"), exist_ok=True)
    with open(os.path.join(OUT_DIR, "answers", f"{workload.name}-{seed}.json"), "w") as fh:
        json.dump(view, fh, sort_keys=True)


def info(kind: str, **fields) -> None:
    print(json.dumps({"info": kind, **fields}, sort_keys=True), flush=True)


def parse_args(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "ribbonsyz", "cli.py")):
        print(f"error: no ribbonsyz source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import checks
    import metrics
    from workloads import WORKLOADS, cli_seed

    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    seed = cli_seed(wl, args.seed)
    runner = Runner(wl.argv(seed), started + RUN_DEADLINE_S)
    ref = load_references(wl.name, args.seed)
    info("input", workload=wl.name, seed=args.seed, cli_seed=seed, argv=runner.argv, reference=ref is not None)

    attempted = failed = 0
    problems: list[str] = []
    results: list[dict] = []

    def answer(trace: bool) -> dict | None:
        nonlocal attempted, failed
        spans = os.path.join(OUT_DIR, f"spans-{wl.name}.npz") if trace else ""
        res = runner.call("answer", trace=trace, hook_blowups=wl.kind == "strata", spans_path=spans)
        if "error" in res:
            attempted += wl.answers_per_call
            failed += wl.answers_per_call
            problems.append(res["error"])
            return None
        ans = checks.extract(wl, res["stdout"], res.get("classes"))
        n, bad, why = checks.check(wl, args.seed, res["exit_code"], ans, ref)
        attempted += n
        failed += bad
        problems.extend(why)
        res["answer"] = ans
        results.append(res)
        if not why:
            save_answer(wl, args.seed, checks.reference_view(wl, ans))
        info(
            "answer",
            traced=trace,
            exit_code=res["exit_code"],
            setup_s=res["setup_s"],
            solve_s=res["solve_s"],
            solve_cpu_s=res["solve_cpu_s"],
            peak_rss_mb=res["peak_rss_mb"],
            stdout_sha256=res["stdout_sha256"],
            failed=bad,
        )
        return res

    if args.trace:
        plain = answer(trace=False)
        traced = answer(trace=True)
        values = {}
        if plain is not None and traced is not None:
            classes = (traced["answer"] or {}).get("classes") or []
            values, gap = metrics.traced_values(traced["layers"], plain["solve_s"], classes)
            if abs(gap) > 1e-6 * max(1.0, values["trace.solve_s"]):
                problems.append(f"self times miss the traced solve time by {gap:.3g} s")
            if traced["stdout_sha256"] != plain["stdout_sha256"]:
                problems.append("traced and untraced answers differ")
        correct = failed == 0 and not problems and bool(values)
        out = {"correct": correct, "attempted": max(attempted, 1), "failed": failed}
        out["metrics"] = metrics.per_layer(values) if values else {}
    else:
        runner.call("setup")  # warm-up: byte-compiles the sources, not timed
        setup = []
        for _ in range(SETUP_PROBES):
            res = runner.call("setup")
            if "error" in res:
                problems.append(res["error"])
            else:
                setup.append(res["setup_s"])
        window_start = time.monotonic()
        while True:
            t = time.monotonic()
            answer(trace=False)
            last = time.monotonic() - t
            used = time.monotonic() - window_start
            if used + last > args.seconds or not results:
                break
        out = {"correct": False, "attempted": max(attempted, 1), "failed": failed, "metrics": {}}
        if results and setup:
            answers = [r["solve_s"] for r in results]
            if wl.kind == "strata":
                answers = [c["seconds"] for r in results for c in r.get("classes", [])]
            out["metrics"] = metrics.end_to_end(
                setup + [r["setup_s"] for r in results],
                [r["solve_s"] for r in results],
                answers,
                [r["peak_rss_mb"] for r in results],
            )
            out["correct"] = failed == 0 and not problems
            info("samples", setup=len(setup) + len(results), answers=len(answers), invocations=len(results))
    info("environment", **environment(results[0]["blas_threads"] if results else None))
    if problems:
        info("problems", problems=problems[:50], more=max(0, len(problems) - 50))
    print(json.dumps(out, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
