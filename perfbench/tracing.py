"""Span tracer that wraps the public ``opsys`` functions from outside.

Nothing in the package is edited.  :meth:`Tracer.install` replaces each
target function in every ``opsys`` module namespace that holds it (so
``dual.dykstra_solve`` and ``suites.is_cp`` are caught, not only the
defining module), replaces ``numpy.linalg.eigh``/``eigvalsh`` for the
eigensolve layer, and :meth:`Tracer.uninstall` puts the originals back.

Spans are recorded only while an op is open, so the benchmark's own input
generation and oracles never show up.  Each span keeps its name, start,
end, parent span and op id in memory; :meth:`Tracer.write` dumps them when
the run ends.  A layer's self time is its span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

EIGENSOLVE = "linalg.eigensolve"
OP = "op"

#: (module, attribute path, layer metric prefix).  ``search`` stands for the
#: private ``opsys._search`` module, since metric names start with a letter.
TARGETS = (
    ("opsys.linalg", "project_psd", "linalg.project_psd"),
    ("opsys._search", "smallest_passing", "search.smallest_passing"),
    ("opsys.systems", "make_operator_system", "systems.make_operator_system"),
    ("opsys.systems", "cone_member", "systems.cone_member"),
    ("opsys.systems", "order_unit_radius_level", "systems.order_unit_radius_level"),
    ("opsys.norms", "numerical_radius", "norms.numerical_radius"),
    ("opsys.norms", "max_order_norm", "norms.max_order_norm"),
    ("opsys.feasibility", "dykstra_solve", "feasibility.dykstra_solve"),
    ("opsys.dual", "positivity_minimum", "dual.positivity_minimum"),
    ("opsys.dual", "is_positive_functional", "dual.is_positive_functional"),
    ("opsys.dual", "dual_order_unit_radius", "dual.dual_order_unit_radius"),
    ("opsys.dual", "level_hermitian_basis", "dual.level_hermitian_basis"),
    ("opsys.dual", "cp_choi_problem", "dual.cp_choi_problem"),
    ("opsys.dual", "is_cp", "dual.is_cp"),
    ("opsys.towers", "make_tower", "towers.make_tower"),
    ("opsys.towers", "Embedding.apply_level", "towers.Embedding.apply_level"),
    ("opsys.towers", "pullback_thread", "towers.pullback_thread"),
    ("opsys.towers", "pairing", "towers.pairing"),
    ("opsys.towers", "verify_dual_cones", "towers.verify_dual_cones"),
    ("opsys.towers", "verify_gamma", "towers.verify_gamma"),
)

#: The per-layer metrics a traced run reports, in BENCHMARK.json order.
LAYER_METRICS = (
    (EIGENSOLVE, ("calls", "matrices", "self_s")),
    ("linalg.project_psd", ("calls", "self_s")),
    ("dual.positivity_minimum", ("calls", "self_s")),
    ("dual.is_positive_functional", ("calls", "self_s")),
    ("dual.dual_order_unit_radius", ("calls", "self_s")),
    ("search.smallest_passing", ("calls", "probes", "self_s")),
    ("systems.order_unit_radius_level", ("calls", "self_s")),
    ("systems.cone_member", ("calls", "self_s")),
    ("dual.is_cp", ("calls", "self_s", "undecided")),
    ("dual.cp_choi_problem", ("calls", "self_s")),
    ("dual.level_hermitian_basis", ("calls", "self_s")),
    ("feasibility.dykstra_solve", (
        "calls", "self_s", "iterations", "cap_hits", "feasible", "infeasible",
        "undecided",
    )),
    ("systems.make_operator_system", ("calls", "self_s")),
    ("towers.make_tower", ("calls", "self_s")),
    ("towers.Embedding.apply_level", ("calls", "self_s")),
    ("towers.pullback_thread", ("calls", "self_s")),
    ("towers.pairing", ("calls", "self_s")),
    ("towers.verify_dual_cones", ("self_s",)),
    ("towers.verify_gamma", ("self_s",)),
    ("norms.numerical_radius", ("calls", "self_s")),
    ("norms.max_order_norm", ("calls", "self_s")),
)


class Tracer:
    """In-memory spans and counts for the wrapped layers of one run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent, op id]
        self.op_names: list[str] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.dykstra_iterations: dict[int, int] = {}  # span index -> iterations
        self._stack: list[int] = []
        self._op: int | None = None
        self._restore: list[tuple] = []
        self.missing: list[str] = []

    # -- spans ------------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name_id, perf_counter(), 0.0, parent, self._op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def begin_op(self, name: str) -> None:
        self._op = len(self.op_names)
        self.op_names.append(name)
        self._open(self._name_id(OP))

    def end_op(self) -> None:
        self._close(self._stack[-1])
        self._op = None

    def _wrap(self, name: str, fn, before=None, after=None):
        name_id = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            tracer.counts[name + ".calls"] += 1
            if before is not None:
                args = before(args)
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(idx, args, result)
            return result

        return functools.wraps(fn)(traced)

    # -- per-layer hooks ------------------------------------------------------------

    def _count_matrices(self, idx, args, result):
        shape = np.shape(args[0])
        self.counts[EIGENSOLVE + ".matrices"] += int(np.prod(shape[:-2], dtype=int))

    def _count_probes(self, args):
        predicate = args[0]

        def probe(r):
            self.counts["search.smallest_passing.probes"] += 1
            return predicate(r)

        return (probe,) + tuple(args[1:])

    def _record_verdict(self, idx, args, verdict):
        prefix = "feasibility.dykstra_solve."
        self.counts[prefix + "iterations"] += verdict.iterations
        self.counts[prefix + verdict.status] += 1
        if verdict.status == "undecided" and verdict.iterations >= args[0].max_iter:
            self.counts[prefix + "cap_hits"] += 1
        self.dykstra_iterations[idx] = verdict.iterations

    def _record_cp(self, idx, args, result):
        if result is None:
            self.counts["dual.is_cp.undecided"] += 1

    # -- installation ---------------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        """Rebind ``original`` to ``wrapper`` in every loaded opsys module."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "opsys" or mod_name.startswith("opsys.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        hooks = {
            "search.smallest_passing": (self._count_probes, None),
            "feasibility.dykstra_solve": (None, self._record_verdict),
            "dual.is_cp": (None, self._record_cp),
        }
        for mod_name, path, name in TARGETS:
            owner = sys.modules.get(mod_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:  # gone from the package: the layer reports 0
                self.missing.append(f"{mod_name}.{path}")
                continue
            before, after = hooks.get(name, (None, None))
            wrapper = self._wrap(name, original, before, after)
            if outer:  # a method: rebind on its class
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                self._replace_everywhere(original, wrapper)
        for attr in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, attr)
            self._restore.append((np.linalg, attr, original))
            setattr(np.linalg, attr,
                    self._wrap(EIGENSOLVE, original, after=self._count_matrices))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name_id, start, end, _, _), covered in zip(self.spans, child_time):
            out[self.names[name_id]] += (end - start) - covered
        return out

    def op_time(self) -> float:
        op_id = self._name_ids.get(OP)
        return sum(e - s for n, s, e, _, _ in self.spans if n == op_id)

    def _ancestors(self, idx: int):
        parent = self.spans[idx][3]
        while parent >= 0:
            yield self.spans[parent][0]
            parent = self.spans[parent][3]

    def inclusive_time(self, name: str, inside: str | None = None) -> float:
        """Time in outermost ``name`` spans, optionally only those below an
        ``inside`` span."""
        name_id = self._name_ids.get(name)
        inside_id = self._name_ids.get(inside) if inside else None
        if name_id is None or (inside and inside_id is None):
            return 0.0
        total = 0.0
        for idx, (n, start, end, _, _) in enumerate(self.spans):
            if n != name_id:
                continue
            above = set(self._ancestors(idx))
            if name_id in above or (inside and inside_id not in above):
                continue
            total += end - start
        return total

    def dykstra_per_call(self, inside: str | None = None) -> tuple[int, int]:
        """(iterations, calls) of the Dykstra solves, optionally only those
        issued below an ``inside`` span."""
        inside_id = self._name_ids.get(inside) if inside else None
        its = calls = 0
        for idx, n in self.dykstra_iterations.items():
            if inside and inside_id not in set(self._ancestors(idx)):
                continue
            its += n
            calls += 1
        return its, calls

    def layer_metrics(self) -> dict[str, float]:
        selfs = self.self_times()
        out = {}
        for layer, stats in LAYER_METRICS:
            for stat in stats:
                key = f"{layer}.{stat}"
                out[key] = selfs.get(layer, 0.0) if stat == "self_s" else self.counts.get(key, 0)
        return out

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: a header with the name and op tables,
        then one ``[name, start, end, parent, op]`` row per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "ops": self.op_names}) + "\n")
            for row in self.spans:
                fh.write(json.dumps(row) + "\n")
