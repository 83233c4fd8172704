"""One `ribbonsyz` CLI invocation in a fresh process, measured.

    python3 bench/worker.py REQUEST

REQUEST is a JSON object: the checkout root, the CLI argv, ``mode``
("setup" or "answer"), ``trace`` (0 or 1), ``hook_blowups`` (0 or 1) and
``spans_path``.  The worker

1. imports ``ribbonsyz.cli`` from ``<root>/src`` and loads the three
   shipped schemas, timing both from its own first line (``setup_s``);
2. in "answer" mode, calls ``ribbonsyz.cli.main`` with the argv as a
   user would type it and times it (``solve_s``); stdout is captured;
3. prints its result as one JSON object: timings, exit code, the CLI's
   stdout, ``ru_maxrss`` and, when asked, per-class sweep answers and the
   traced layer metrics.

With ``hook_blowups`` the worker wraps ``ribbonsyz.strata.
blowup_index_bruteforce`` (one call per sweep class) to time each class
and keep its witness, which is confirmed with ``strata.span_membership``
after the timed call.  With ``trace`` it installs the span tracer of
tracer.py for the CLI call only, and restores every binding afterwards.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

SCHEMAS = ("betti.json", "green.json", "strata.json")


class BlowupHook:
    """Times every blowup_index_bruteforce call and keeps its witness."""

    def __init__(self, strata_module):
        self.mod = strata_module
        self.original = strata_module.blowup_index_bruteforce
        self.calls: list[tuple] = []  # (seconds, e, space, result or None)

    def __enter__(self):
        original, calls, not_found = self.original, self.calls, self.mod.NotFound

        def hook(e, pool, space, *args, **kwargs):
            t = time.perf_counter()
            try:
                res = original(e, pool, space, *args, **kwargs)
            except not_found:
                calls.append((time.perf_counter() - t, e, space, None))
                raise
            calls.append((time.perf_counter() - t, e, space, res))
            return res

        self.mod.blowup_index_bruteforce = hook
        return self

    def __exit__(self, *exc):
        self.mod.blowup_index_bruteforce = self.original

    def classes(self) -> list[dict]:
        """Per class: latency, index, bound, witness and its span check."""
        from ribbonsyz.strata import make_witness, span_membership

        out = []
        for seconds, e, space, res in self.calls:
            if res is None:
                out.append({"seconds": seconds, "index": None, "witness": [], "confirmed": False})
                continue
            confirmed = bool(res.witness) and span_membership(e, make_witness(space, res.witness))
            out.append(
                {
                    "seconds": seconds,
                    "index": res.index,
                    "bound": res.bound,
                    "witness": [str(pt) for pt in res.witness],
                    "confirmed": bool(confirmed),
                }
            )
        return out


def blas_threads():
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run(req: dict) -> dict:
    src = os.path.join(req["root"], "src")
    sys.path.insert(0, src)
    import ribbonsyz.cli as cli
    from importlib import resources

    for name in SCHEMAS:
        with resources.files("ribbonsyz.schemas").joinpath(name).open() as fh:
            json.load(fh)
    setup_s = time.perf_counter() - T0
    out = {"setup_s": setup_s, "package": os.path.dirname(cli.__file__)}
    if req["mode"] == "setup":
        return out

    import ribbonsyz.strata

    hook = BlowupHook(ribbonsyz.strata) if req["hook_blowups"] else contextlib.nullcontext()
    tracer = None
    if req["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
    buf = io.StringIO()
    code = 0
    with hook:
        if tracer is not None:
            tracer.install()
        try:
            with contextlib.redirect_stdout(buf):
                t1, c1 = time.perf_counter(), time.process_time()
                try:
                    cli.main(args=req["argv"], prog_name="ribbonsyz", standalone_mode=True)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
                except Exception:  # a crash is a failed answer, reported with its traceback
                    code = -1
                    out["traceback"] = traceback.format_exc()
                t2, c2 = time.perf_counter(), time.process_time()
        finally:
            if tracer is not None:
                tracer.uninstall()
    stdout = buf.getvalue()
    out.update(
        {
            "solve_s": t2 - t1,
            "solve_cpu_s": c2 - c1,
            "exit_code": code,
            "stdout": stdout,
            "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "blas_threads": blas_threads(),
        }
    )
    if req["hook_blowups"]:
        out["classes"] = hook.classes()
    if tracer is not None:
        from metrics import layer_values

        out["layers"] = layer_values(tracer, t2 - t1)
        if req.get("spans_path"):
            tracer.save(req["spans_path"])
    return out


def main() -> None:
    print(json.dumps(run(json.loads(sys.argv[1]))))


if __name__ == "__main__":
    main()
