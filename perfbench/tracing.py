"""Spans and counters recorded from outside the library.

The traced run replaces the module attributes and class methods that
callers look up (a function imported into several modules is replaced in
each of them) with wrappers, and puts the originals back afterwards.
Spans stay in memory as parallel arrays of name, start, end, parent and
op id; a layer's self time is its span's duration minus the part of that
interval its child spans cover. Scalar operations are only counted: there
are hundreds of thousands per op, and their time is part of the enclosing
span's self time.
"""

from __future__ import annotations

import functools
import re
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

_MISSING = object()

# metrics that must repeat exactly across traced runs of the same inputs
DETERMINISTIC = re.compile(r"^(scalars\.|witness\.(rows|cols|free_col|omega_max_bits)$|.*\.calls$)")

# (span name, module, attribute): module functions, replaced in every
# cubesense module that binds them
FUNCTION_SPANS = (
    ("witness.run_pipeline", "cubesense.witness", "run_pipeline"),
    ("witness.positive_eigenvector_in_span", "cubesense.witness", "positive_eigenvector_in_span"),
    ("witness.extract_witness", "cubesense.witness", "extract_witness"),
    ("exterior.apply_A", "cubesense.exterior", "apply_A"),
    ("matrices.build_matrix", "cubesense.matrices", "build_matrix"),
    ("matrices.verify_square_identity", "cubesense.matrices", "verify_square_identity"),
    ("matrices.operator_trace", "cubesense.matrices", "operator_trace"),
    ("matrices.spectral_report", "cubesense.matrices", "spectral_report"),
    ("exhaustive.random_masks", "cubesense.exhaustive", "random_masks"),
    ("exhaustive.max_induced_degree", "cubesense.exhaustive", "max_induced_degree"),
    ("exhaustive.enumerate_and_verify", "cubesense.exhaustive", "enumerate_and_verify"),
)

# (span name, module, class, method)
METHOD_SPANS = (
    ("matrices.apply", "cubesense.matrices", "SignedCubeMatrix", "apply"),
    ("matrices.column", "cubesense.matrices", "SignedCubeMatrix", "column"),
    ("matrices.EigenSplit.project", "cubesense.matrices", "EigenSplit", "project"),
    ("cube.degree_profile", "cubesense.cube", "InducedSubgraph", "degree_profile"),
    ("cube.max_degree", "cubesense.cube", "InducedSubgraph", "max_degree"),
    ("cube.vertices", "cubesense.cube", "InducedSubgraph", "vertices"),
)

SVD_SPAN = "witness.svd"  # numpy.linalg.svd, wrapped once the float path has imported numpy
SPAN_NAMES = tuple(name for name, *_ in FUNCTION_SPANS + METHOD_SPANS) + (SVD_SPAN,)

# counter -> QuadraticScalar methods it counts
SCALAR_COUNTERS = {
    "qs_mul": ("__mul__", "__rmul__"),
    "qs_addsub": ("__add__", "__radd__", "__sub__", "__rsub__"),
    "qs_div": ("__truediv__", "__rtruediv__", "inverse"),
    "qs_new": ("__init__",),
}


class Patcher:
    """Replaces attributes and puts the originals back, newest first."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, new: object) -> None:
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, new)

    def replace_everywhere(self, original: object, new: object) -> None:
        """Replace ``original`` under every name any cubesense module binds it to."""
        for name, module in list(sys.modules.items()):
            if name == "cubesense" or name.startswith("cubesense."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self.replace(module, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
            if vars(owner).get(attr, _MISSING) is not old:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    def __len__(self) -> int:
        return len(self._saved)


def watch_process_pools(patcher: Patcher, counts: Dict[str, int]) -> None:
    """Count ProcessPoolExecutor pools created and maps run to completion.

    ``exhaustive._run_shards`` imports the class at call time and falls
    back to a serial loop on OSError, so these counts are the only outside
    sign of which path ran.
    """
    import concurrent.futures as cf

    base = cf.ProcessPoolExecutor  # resolves the lazy attribute

    class WatchedPool(base):  # type: ignore[misc, valid-type]
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            counts["pool_created"] += 1

        def map(self, *args, **kwargs):
            results = list(super().map(*args, **kwargs))
            counts["pool_mapped"] += 1
            return iter(results)

    counts.setdefault("pool_created", 0)
    counts.setdefault("pool_mapped", 0)
    patcher.replace(cf, "ProcessPoolExecutor", WatchedPool)


class Tracer:
    """Installs span and counter wrappers on cubesense and records into memory."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_ids = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.ops = array("l")
        self.counts: Dict[str, int] = {key: 0 for key in SCALAR_COUNTERS}
        self.eigenvectors: List[Tuple[object, object]] = []  # (H, omega) per call
        self.op_id = -1
        self._stack: List[int] = []
        self._patcher = Patcher()

    @property
    def installed(self) -> int:
        return len(self._patcher)

    def install(self) -> None:
        modules = sys.modules
        for name, module, attr in FUNCTION_SPANS:
            original = getattr(modules[module], attr)
            on_result = self._keep_eigenvector if attr == "positive_eigenvector_in_span" else None
            self._patcher.replace_everywhere(original, self._span(name, original, on_result))
        for name, module, cls_name, attr in METHOD_SPANS:
            cls = getattr(modules[module], cls_name)
            original = vars(cls)[attr]
            if attr == "vertices":
                original = _materialized(original)
            self._patcher.replace(cls, attr, self._span(name, original))
        qs = modules["cubesense.scalars"].QuadraticScalar
        for key, methods in SCALAR_COUNTERS.items():
            for attr in methods:
                self._patcher.replace(qs, attr, self._counter(key, vars(qs)[attr]))
        linalg = modules.get("numpy.linalg")
        if linalg is not None:
            self._patcher.replace(linalg, "svd", self._span(SVD_SPAN, linalg.svd))
        watch_process_pools(self._patcher, self.counts)

    def remove(self) -> None:
        self._patcher.restore()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        name_id = self._name_id(name)
        name_ids, starts, ends, parents, ops = (
            self.name_ids, self.starts, self.ends, self.parents, self.ops
        )
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    def _counter(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def _keep_eigenvector(self, args: tuple, kwargs: dict, omega: object) -> None:
        H = kwargs["H"] if "H" in kwargs else args[1]
        self.eigenvectors.append((H, omega))

    def spans(self) -> List[Tuple[str, float, float, int, int]]:
        """(name, start, end, parent index, op id) per span, in start order."""
        return [
            (self.names[i], s, e, p, o)
            for i, s, e, p, o in zip(self.name_ids, self.starts, self.ends, self.parents, self.ops)
        ]

    def write(self, path) -> None:
        with open(path, "w") as out:
            out.write("index\tname\tstart\tend\tparent\top\n")
            for index, (name, start, end, parent, op) in enumerate(self.spans()):
                out.write(f"{index}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")


def _materialized(vertices: Callable) -> Callable:
    # vertices() returns a lazy bit iterator; drain it inside the span so
    # the span covers the bit loop rather than the generator's creation
    @functools.wraps(vertices)
    def eager(self):
        return iter(list(vertices(self)))

    return eager


def self_times(spans: Sequence[Tuple[str, float, float, int, int]]) -> Dict[str, Tuple[int, float]]:
    """Per span name: (calls, total self time).

    Self time is the span's duration minus the union of its children's
    intervals clipped to it.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals: Dict[str, List] = defaultdict(lambda: [0, 0.0])
    for index, (name, start, end, _, _) in enumerate(spans):
        covered = _covered(children.get(index, ()), start, end)
        totals[name][0] += 1
        totals[name][1] += (end - start) - covered
    return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
