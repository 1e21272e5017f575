"""Per-layer tracing from outside the package.

Each traced function is replaced by a wrapper in every ``sidecomp`` module
that holds a reference to it (``svd_robust`` is bound in both ``_linalg``
and ``commutant``, for example), so calls made through any of those names
are recorded. A wrapper records one span: name, start, end, parent span and
the id of the operation it belongs to. Spans stay in memory until the run
ends. A name that no longer exists is reported as absent and left alone.
"""
from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# module -> public functions (and the _linalg primitives) that are traced
LAYERS = {
    "commutant": ("joint_commutant", "semisimple_structure", "intertwiner_space",
                  "contains_invertible"),
    "decomposition": ("unit_si_decomposition", "assemble_intertwiner"),
    "invariant": ("v_semigroup_invariant", "similar", "k0_descriptor"),
    "tuples": ("restrict", "conjugate", "validate_commuting"),
    "_linalg": ("svd_robust", "svdvals_robust", "nullspace", "orthonormal_range",
                "spectral_projector", "newton_polish_idempotent", "cluster_eigenvalues"),
    "rkhs": ("truncated_tuple", "defect_operator", "p_sequence", "check_model_hypotheses",
             "joint_eigenvector"),
    "io": ("load_tuple", "canonical_json"),
    "cli": ("main",),
}

# functions whose escaping NumericalDegeneracyError is counted
ERROR_COUNTED = ("invariant.v_semigroup_invariant", "invariant.similar",
                 "invariant.k0_descriptor", "decomposition.unit_si_decomposition",
                 "commutant.semisimple_structure", "commutant.joint_commutant",
                 "_linalg.newton_polish_idempotent")

OP_SPAN = "op"


def metric_name(qualname: str) -> str:
    """Metric names must start with a letter: ``_linalg.x`` becomes ``linalg.x``."""
    return qualname.lstrip("_")


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent, op]
        self._stack: list[int] = []
        self.op_id = -1
        self.absent: list[str] = []
        self.errors: Counter = Counter()
        self.counters: Counter = Counter()
        self.broken_counters: set[str] = set()

    # ------------------------------------------------------------ installing
    def install(self) -> None:
        import sidecomp
        error_type = sidecomp.NumericalDegeneracyError
        modules = {}
        for module_name in LAYERS:
            try:
                modules[module_name] = importlib.import_module(f"sidecomp.{module_name}")
            except ImportError:
                pass
        holders = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "sidecomp" or n.startswith("sidecomp."))]
        for module_name, functions in LAYERS.items():
            for fn_name in functions:
                qualname = f"{module_name}.{fn_name}"
                original = getattr(modules.get(module_name), fn_name, None)
                if not callable(original):
                    self.absent.append(qualname)
                    continue
                wrapper = self._wrap(qualname, original, error_type)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)

    def _wrap(self, qualname, fn, error_type):
        spans, stack = self.spans, self._stack
        count_errors = qualname in ERROR_COUNTED
        counter = _COUNTERS.get(qualname)

        def wrapper(*args, **kwargs):
            span = [qualname, perf_counter(), 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except error_type:
                if count_errors:
                    self.errors[qualname] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    counter(self.counters, args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError, ValueError):
                    self.broken_counters.add(qualname)
            return result

        return wrapper

    # ------------------------------------------------------------ recording
    def begin_op(self, op_id: int):
        self.op_id = op_id
        span = [OP_SPAN, perf_counter(), 0.0, -1, op_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end_op(self, span) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    # ------------------------------------------------------------ reporting
    def self_times(self) -> tuple[dict, Counter]:
        """Per-name (self seconds, calls); self = duration - children's durations."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
        return self_s, calls

    def write(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "names": names,
                       "spans": [[index[n], a, b, p, o] for n, a, b, p, o in self.spans]}, fh)


def _svd_flops(counters, args, kwargs, result):
    rows, cols = _first_arg(args, kwargs, "M").shape
    counters["_linalg.svd_robust.flops_computed"] += rows * cols * min(rows, cols)


def _stack_bytes(counters, args, kwargs, result):
    T = _first_arg(args, kwargs, "T")
    counters["commutant.joint_commutant.stack_bytes_computed"] += 16 * T.m * T.d ** 4


def _invertible_trials(counters, args, kwargs, result):
    trials, found = result.trials_used, result.found
    counters["commutant.contains_invertible.trials"] += trials
    counters["commutant.contains_invertible.found"] += int(found)


_COUNTERS = {
    "_linalg.svd_robust": _svd_flops,
    "commutant.joint_commutant": _stack_bytes,
    "commutant.contains_invertible": _invertible_trials,
}
