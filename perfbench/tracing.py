"""Span and counter tracing of sepdisc's layers, applied from outside.

The tracer wraps named public functions by replacing the name in every
loaded ``sepdisc`` module namespace that holds it (so a binding made with
``from .linalg import psd_project`` is wrapped too), and wraps
``numpy.linalg.eigh``, ``eigvalsh`` and ``svd`` as the kernel layer.
No file of the program changes.  Spans are kept in memory as
``(name, start, end, parent)`` rows and written out by :meth:`Tracer.dump`;
self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import gzip
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# layer -> (module, public function names).  `cli`, `sampling` and `verify`
# are deliberately absent: the decide path of `cli` is replayed by the
# benchmark, `sampling` runs only in set-up, and `verify` is test tooling.
TRACED = {
    "linalg": ("sepdisc.linalg", ("psd_project", "partial_transpose", "min_eigenvalues", "hermitian_eig")),
    "states": ("sepdisc.states", ("orthonormal_completion", "concurrence")),
    "tensor_rank": (
        "sepdisc.tensor_rank",
        ("try_factor", "cut_rank", "product_vectors_in_span", "schmidt2_classify"),
    ),
    "separability": (
        "sepdisc.separability",
        ("rank2_separability", "antiparallel_test", "ppt_oracle", "feasibility_solve", "_solve_rank1"),
    ),
    "discrimination": ("sepdisc.discrimination", ("decide",)),
    "constructions": (
        "sepdisc.constructions",
        (
            "tetra_unitary",
            "basis_from_unitary",
            "locc_basis_sch2",
            "basis_for_targets",
            "family_sep_not_locc",
            "verify_subspace_properties",
        ),
    ),
    "statefile": ("sepdisc.statefile", ("parse_statefile", "serialize_statefile", "verdict_report")),
}
LAPACK = ("eigh", "eigvalsh", "svd")
LAYERS = tuple(TRACED) + ("lapack",)
# the rank-1 pencil path is reported under this name rather than its
# private function name
RENAME = {"separability._solve_rank1": "separability.rank1"}
# the only self times that no workload leaves at zero; every other self
# time goes to the provenance record, since a time that a workload never
# spends reads exactly 0 ms on every run
RESULT_TIMES = ("tensor_rank.self_ms", "tensor_rank.try_factor.self_ms", "lapack.self_ms")
DECISION_PATHS = ("T1", "T2", "C2", "T4", "T5", "T6", "completability", "rank1-exact", "dykstra")


def decision_path(verdict) -> str:
    """Which decision path produced a verdict, read from its theorem tag
    and solver diagnostics."""
    diag = verdict.diagnostics
    if diag.get("path") in ("completability", "rank1-exact"):
        return diag["path"]
    if "iterations" in diag:
        return "dykstra"
    return verdict.theorem


def _matrices(a) -> int:
    shape = np.shape(a)
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


class Tracer:
    """Records spans and counters while :attr:`active`; patches are undone
    by :meth:`uninstall`."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.active = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.spans[sid] = (name, t0, t1, parent)
            if after is not None:
                after(args, out)
            return out

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function in every loaded sepdisc namespace."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "sepdisc" or n.startswith("sepdisc.")]
        hooks = self._hooks()
        for layer, (modname, names) in TRACED.items():
            home = sys.modules[modname]
            for fname in names:
                original = getattr(home, fname)
                span = RENAME.get(f"{layer}.{fname}", f"{layer}.{fname}")
                wrapped = self._wrap(span, original, hooks.get(span))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, wrapped)
        sep = sys.modules["sepdisc.separability"]
        tracer = self

        class CountedBlock(sep._PencilBlock):
            def __init__(self, *args, **kwargs):
                if tracer.active:
                    tracer.counts["separability.rank1.blocks"] += 1
                super().__init__(*args, **kwargs)

        self._set(sep, "_PencilBlock", CountedBlock)
        for fname in LAPACK:
            self._set(np.linalg, fname, self._wrap(f"lapack.{fname}", getattr(np.linalg, fname), self._after_lapack(fname)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _after_lapack(self, fname: str):
        def after(args, out):
            self.counts[f"lapack.{fname}.matrices"] += _matrices(args[0])

        return after

    def _hooks(self):
        """Counters read from a traced function's arguments and result."""
        counts = self.counts

        def psd_project(args, out):
            m = _matrices(args[0])
            d = np.shape(args[0])[-1]
            counts["linalg.psd_project.matrices"] += m
            # input, eigenvector and output stacks of complex128, computed
            # from array sizes (cache traffic is not observed)
            counts["linalg.psd_project.bytes_computed"] += 3 * m * d * d * 16

        def try_factor(args, out):
            counts["tensor_rank.try_factor.hits"] += out is not None

        def feasibility_solve(args, out):
            counts["separability.feasibility_solve.iterations"] += out.iterations
            counts["separability.feasibility_solve.feasible"] += bool(out.feasible)
            counts["separability.feasibility_solve.stalled"] += bool(out.stalled)
            counts["separability.feasibility_solve.capped"] += "iteration_cap" in out.diagnostics

        def decide(args, out):
            counts[f"discrimination.path.{decision_path(out)}"] += 1
            counts["discrimination.undecided"] += out.status.value == "undecided"

        def text_bytes(key, pick):
            def after(args, out):
                counts[f"{key}.bytes"] += len(pick(args, out))

            return after

        return {
            "linalg.psd_project": psd_project,
            "tensor_rank.try_factor": try_factor,
            "separability.feasibility_solve": feasibility_solve,
            "discrimination.decide": decide,
            "statefile.parse_statefile": text_bytes("statefile.parse_statefile", lambda a, o: a[0]),
            "statefile.serialize_statefile": text_bytes("statefile.serialize_statefile", lambda a, o: o),
            "statefile.verdict_report": text_bytes("statefile.verdict_report", lambda a, o: o),
        }

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """span name -> (calls, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for (name, t0, t1, _), c in zip(self.spans, child):
            agg = out[name]
            agg[0] += 1
            agg[1] += (t1 - t0) - c
        return {k: (v[0], v[1]) for k, v in out.items()}

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, named ``<layer>.<function>.<what>``."""
        st = self.self_times()
        c = self.counts
        m: dict[str, tuple[float, str]] = {}
        layer_ms = defaultdict(float)
        names = [RENAME.get(f"{layer}.{f}", f"{layer}.{f}") for layer, (_, fs) in TRACED.items() for f in fs]
        for name in names + [f"lapack.{f}" for f in LAPACK]:
            calls, self_s = st.get(name, (0, 0.0))
            layer_ms[name.split(".")[0]] += self_s * 1e3
            m[f"{name}.calls"] = (calls, "count")
            if not name.startswith("lapack."):
                m[f"{name}.self_ms"] = (self_s * 1e3, "ms")
        for layer in LAYERS:
            m[f"{layer}.self_ms"] = (layer_ms[layer], "ms")
        for key in ("linalg.psd_project.matrices", "lapack.eigh.matrices", "lapack.eigvalsh.matrices",
                    "separability.feasibility_solve.iterations", "separability.feasibility_solve.feasible",
                    "separability.feasibility_solve.stalled", "separability.feasibility_solve.capped",
                    "separability.rank1.blocks"):
            m[key] = (c[key], "count")
        m["linalg.psd_project.bytes_computed"] = (c["linalg.psd_project.bytes_computed"], "bytes")
        tf_calls = m["tensor_rank.try_factor.calls"][0]
        m["tensor_rank.try_factor.hit_ratio"] = (c["tensor_rank.try_factor.hits"] / tf_calls if tf_calls else 0.0, "ratio")
        fs_calls = m["separability.feasibility_solve.calls"][0]
        m["separability.feasibility_solve.iterations_per_call"] = (
            c["separability.feasibility_solve.iterations"] / fs_calls if fs_calls else 0.0,
            "count",
        )
        for path in DECISION_PATHS:
            m[f"discrimination.path.{path}"] = (c[f"discrimination.path.{path}"], "count")
        decisions = m["discrimination.decide.calls"][0]
        m["discrimination.undecided_ratio"] = (c["discrimination.undecided"] / decisions if decisions else 0.0, "ratio")
        for fname in ("parse_statefile", "serialize_statefile", "verdict_report"):
            m[f"statefile.{fname}.bytes"] = (c[f"statefile.{fname}.bytes"], "bytes")
        return m

    def lapack_by_caller_ms(self) -> dict[str, float]:
        """Kernel time charged to the traced function that called it."""
        out: dict[str, float] = defaultdict(float)
        for name, t0, t1, parent in self.spans:
            if name.startswith("lapack."):
                out[self.spans[parent][0] if parent >= 0 else "request"] += (t1 - t0) * 1e3
        return dict(out)

    def dump(self, path) -> None:
        """Write every span as ``id,name,start,end,parent`` (gzip CSV)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0!r},{t1!r},{parent}\n")
