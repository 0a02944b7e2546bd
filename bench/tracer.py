"""Per-layer tracing by wrapping the library's functions from outside.

A wrapper keeps one aggregate per layer metric group (calls and self
time) instead of one span per call: hot leaves such as
``EvenForm.apply``, ``bracket`` and ``solve`` run thousands of times per
operation.  Self time is a call's wall time minus the time of the wrapped
calls made inside it.

Names imported with ``from .linalg import solve`` are bound in every
importing module (and in the package namespace), so :meth:`Tracer.install`
replaces every binding of the original object in every ``superquad``
module; methods are patched on their class.  :meth:`Tracer.uninstall`
puts the originals back.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from time import perf_counter


def _rowreducer_add(tracer, row_added):
    tracer.counters["linalg.rowreducer.rows"] += 1
    tracer.counters["linalg.rowreducer.pivots"] += bool(row_added)


def _flag_steps(tracer, flag):
    tracer.counters["decompose.flag_steps"] += len(flag.chain) - 1


def _isotropic_found(tracer, vector):
    tracer.counters["decompose.isotropic_vector.found"] += vector is not None


# (module, attribute or "Class.method", metric group, result hook)
TARGETS = (
    ("linalg", "RowReducer.add", "linalg.rowreducer", _rowreducer_add),
    ("linalg", "RowReducer.add_sparse", "linalg.rowreducer", None),
    ("linalg", "RowReducer.kernel", "linalg.rowreducer", None),
    ("linalg", "solve", "linalg.solve", None),
    ("linalg", "rref", "linalg.rref", None),
    ("linalg", "diagonalize_symmetric", "linalg.diagonalize_symmetric", None),
    ("linalg", "charpoly", "linalg.charpoly", None),
    ("forms", "EvenForm.apply", "forms.apply", None),
    ("forms", "invariance_violation", "forms.invariance_violation", None),
    ("forms", "orthogonal", "forms.orthogonal", None),
    ("forms", "isotropic_complement", "forms.isotropic_complement", None),
    ("superalgebra", "bracket", "superalgebra.bracket", None),
    ("superalgebra", "Subspace.contains_vector",
     "superalgebra.contains_vector", None),
    ("superalgebra", "subspace", "superalgebra.subspace", None),
    ("superalgebra", "is_ideal", "superalgebra.is_ideal", None),
    ("superalgebra", "quotient", "superalgebra.quotient", None),
    ("superalgebra", "lower_central_series",
     "superalgebra.lower_central_series", None),
    ("superalgebra", "check_axioms", "superalgebra.check_axioms", None),
    ("cohomology", "z2_supercyclic_basis",
     "cohomology.z2_supercyclic_basis", None),
    ("cohomology", "z3_basis", "cohomology.z3_basis", None),
    ("cohomology", "b3_basis", "cohomology.b3_basis", None),
    ("cohomology", "cohomologous", "cohomology.cohomologous", None),
    ("cohomology", "Cochain2Dual.__init__", "cohomology.containers", None),
    ("cohomology", "ScalarCochain3.__init__", "cohomology.containers", None),
    ("cohomology", "ScalarCochain2.__init__", "cohomology.containers", None),
    ("cohomology", "delta_scalar2", "cohomology.delta_scalar2", None),
    ("cohomology", "cocycle2_violation", "cohomology.cocycle2_violation", None),
    ("cohomology", "supercyclic_violation",
     "cohomology.supercyclic_violation", None),
    ("tstar", "build", "tstar.build", None),
    ("tstar", "recognize", "tstar.recognize", None),
    ("tstar", "verify_isometry", "tstar.verify_isometry", None),
    ("tstar", "s_phi_isometry", "tstar.s_phi_isometry", None),
    ("decompose", "max_isotropic_ideal", "decompose.max_isotropic_ideal",
     _flag_steps),
    ("decompose", "isotropic_vector", "decompose.isotropic_vector",
     _isotropic_found),
    ("dsl", "parse", "dsl.parse", None),
    ("dsl", "emit", "dsl.emit", None),
    ("cli", "main", "cli.main", None),
) + tuple(
    ("gallery", name, "gallery.build", None)
    for name in ("build_gn", "build_glnn", "build_class_c_example",
                 "tstar_of_gn", "heisenberg3", "solvable2d", "even_line",
                 "orthogonal_direct_sum", "stock", "random_cochain2",
                 "random_scalar2", "random_supercyclic_cocycle",
                 "random_cocycle2"))

COUNTERS = ("linalg.rowreducer.rows", "linalg.rowreducer.pivots",
            "decompose.flag_steps", "decompose.isotropic_vector.found")


class Tracer:
    """Calls and self time per metric group, plus result counters."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = [0.0]
        self._active = [True]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, group: str, fn, hook):
        self.calls.setdefault(group, 0)
        self.self_s.setdefault(group, 0.0)
        stack, calls, self_s = self._stack, self.calls, self.self_s
        active = self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = stack.pop()
                stack[-1] += dt
                calls[group] += 1
                self_s[group] += dt - inner
            if hook is not None:
                hook(self, result)
            return result
        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "superquad"
                                         or name.startswith("superquad."))]
        for mod_name, attr, group, hook in TARGETS:
            owner = sys.modules[f"superquad.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(group, orig, hook))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(group, orig, hook)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, name, orig))
                        setattr(mod, name, wrapper)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own input building and
        output checks) are not counted."""
        self._active[0] = False
        try:
            yield
        finally:
            self._active[0] = True

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore.clear()
