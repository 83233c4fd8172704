"""Span tracing for the traced benchmark run, from outside the package.

`Tracer.install()` replaces the public functions of each ribbonsyz module
at the module that imports them (``ribbonsyz.koszul.rank``,
``ribbonsyz.strata.rank``, ...), so a call from one layer into another is
one span and calls inside a layer are not counted again.  A few calls that
stay inside their own module are wrapped in that module too (listed in
``_INTRA_MODULE``), and a few methods on their class (``_METHODS``).
`Tracer.uninstall()` puts every original object back.

Each span is (name, start, end, parent), kept in flat arrays in memory and
written out by `Tracer.save` when the run ends.  A span's name is
``layer.function@site``: the layer is the module that defines the
function, the site the module whose binding was wrapped.
"""

from __future__ import annotations

import importlib
import types
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("fflinalg", "curves", "graded", "koszul", "ribbon", "greenchk", "strata")
SITES = ("cli",) + LAYERS

# Calls that stay inside one module; the module's own global is the site.
_INTRA_MODULE = (
    ("koszul", "koszul_differential"),
    ("greenchk", "build_syzygy_module"),
    ("greenchk", "phi_map"),
    ("greenchk", "module_koszul_vanishing"),
    ("strata", "blowup_index_bruteforce"),
)
# (module, class, method, layer); a call from the method's own layer is not a span.
_METHODS = (
    ("curves", "PlaneCurve", "sections", "curves"),
    ("curves", "HyperellipticCurve", "sections", "curves"),
    ("graded", "GradedModule", "check_commutativity", "graded"),
)
# Engine threshold of fflinalg: min(shape) >= 200 takes the blocked path.
LARGE_MIN = 200


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of_name: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        # per call of rank: span, rows, cols, rank, nonzeros (-1 below LARGE_MIN)
        self.rank_log = array("q")
        # per Koszul differential built: span, rows, cols
        self.diff_log = array("q")
        self._loggers = {"fflinalg.rank": self._log_rank, "koszul.koszul_differential": self._log_diff}
        self._stack = [-1]
        self._layer_stack = [""]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _log_rank(self, idx: int, args, out) -> None:
        rows, cols = np.shape(args[0])
        nnz = int(np.count_nonzero(args[0])) if min(rows, cols) >= LARGE_MIN else -1
        self.rank_log.extend((idx, rows, cols, int(out), nnz))

    def _log_diff(self, idx: int, args, out) -> None:
        rows, cols = np.shape(out)
        self.diff_log.extend((idx, rows, cols))

    def _intern(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of_name.append(layer)
        return len(self.names) - 1

    def wrap(self, fn, layer: str, func: str, site: str, skip_same_layer: bool = False):
        """A shim around fn that records one span per call."""
        nid = self._intern(f"{layer}.{func}@{site}", layer)
        log = self._loggers.get(f"{layer}.{func}")
        stack, layers = self._stack, self._layer_stack
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent

        def shim(*args, **kwargs):
            if skip_same_layer and layers[-1] == layer:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            layers.append(layer)
            start[idx] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
                layers.pop()
            if log is not None:
                log(idx, args, out)
            return out

        shim.__wrapped__ = fn
        return shim

    # -- installing ------------------------------------------------------

    def _patch(self, owner, attr: str, shim) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, shim)

    def install(self) -> None:
        """Wrap every cross-module function binding, plus the listed extras."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {s: importlib.import_module(f"ribbonsyz.{s}") for s in SITES}
        for site, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                owner = obj.__module__ or ""
                if owner == mod.__name__ or not owner.startswith("ribbonsyz."):
                    continue
                layer = owner.split(".")[1]
                self._patch(mod, attr, self.wrap(obj, layer, obj.__name__, site))
        for site, attr in _INTRA_MODULE:
            mod = mods[site]
            self._patch(mod, attr, self.wrap(getattr(mod, attr), site, attr, site))
        for site, cls_name, method, layer in _METHODS:
            cls = getattr(mods[site], cls_name)
            fn = cls.__dict__[method]
            self._patch(cls, method, self.wrap(fn, layer, method, cls_name, skip_same_layer=True))
        # the ring's algebra: construction plus validation
        ribbon = mods["ribbon"]
        self._patch(ribbon, "GradedAlgebra", self.wrap(ribbon.GradedAlgebra, "graded", "GradedAlgebra", "ribbon"))
        cli = mods["cli"]
        self._patch(cli, "schema_validate", self.wrap(cli.schema_validate, "schema", "validate", "cli"))

    def uninstall(self) -> None:
        """Restore every wrapped binding, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------

    def arrays(self) -> dict:
        """The spans as numpy arrays, with per-span duration and self time."""
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.float64, count=n).copy()
        end = np.frombuffer(self.end, dtype=np.float64, count=n).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n).astype(np.int64)
        name_id = np.frombuffer(self.name_id, dtype=np.int32, count=n).astype(np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        return {
            "name_id": name_id,
            "start": start,
            "end": end,
            "parent": parent,
            "dur": dur,
            "self": dur - child[:n],
        }

    def save(self, path: str) -> None:
        """Write the spans (name table, name id, start, end, parent) as .npz."""
        a = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=a["name_id"],
            start=a["start"],
            end=a["end"],
            parent=a["parent"],
        )
