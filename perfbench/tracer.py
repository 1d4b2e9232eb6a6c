"""Per-layer tracing of wittkit, installed from outside the package.

``Tracer.install()`` wraps the public functions and methods listed in
``SPANS`` and ``COUNTS`` and rebinds every reference that wittkit modules
hold to them (from-imports, re-exports in ``wittkit/__init__``, the verify
``SUITES`` table).  ``uninstall()`` puts every original object back.

Spans are aggregated in memory (calls, total time, self time = total minus
the time covered by child spans) and read once with ``metrics()`` at the
end.  Scalar arithmetic is counted only: a timer per call would cost more
than the call itself.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute path, span name).  Several targets may share a name.
SPANS = [
    ("wittkit.ga", "gp", "ga.gp"),
    ("wittkit.ga", "wedge", "ga.wedge"),
    ("wittkit.witt_global", "SpectralBasis.__init__", "witt_global.basis_build"),
    ("wittkit.witt_global", "SpectralBasis._build_extraction", "witt_global.extraction"),
    ("wittkit.witt_global", "SpectralBasis.mv_to_matrix", "witt_global.mv_to_matrix"),
    ("wittkit.witt_global", "SpectralBasis.matrix_to_mv", "witt_global.matrix_to_mv"),
    ("wittkit.witt_global", "SpectralBasis.matrix_unit_law", "witt_global.matrix_unit_law"),
    ("wittkit.witt_global", "MvMatrix.matmul", "witt_global.matmul"),
    ("wittkit.witt_global", "CentralMatrix.matmul", "witt_global.matmul"),
    ("wittkit.omega", "omega", "omega.omega"),
    ("wittkit.omega", "gram_check", "omega.gram_check"),
    ("wittkit.omega", "fast_apply", "omega.fast_apply"),
    ("wittkit.omega", "OmegaMatrix.dense_apply", "omega.dense_apply"),
    ("wittkit.omega", "bareiss_det", "omega.bareiss_det"),
    ("wittkit.witt_local", "make_local_witt", "witt_local.make_local_witt"),
    ("wittkit.witt_local", "hadamard_identification", "witt_local.hadamard_identification"),
    ("wittkit.witt_local", "pseudoscalar_identity", "witt_local.pseudoscalar_identity"),
    ("wittkit.witt_local", "c8_complex_table", "witt_local.c8_complex_table"),
    ("wittkit.witt_local", "no_identification_g12", "witt_local.no_identification_g12"),
    ("wittkit.dirac", "dirac_spectral_standard", "dirac.dirac_spectral_standard"),
    ("wittkit.dirac", "dirac_spectral_new", "dirac.dirac_spectral_new"),
    ("wittkit.dirac", "pauli_spectral", "dirac.pauli_spectral"),
    ("wittkit.dirac", "gamma_anticommutation_check", "dirac.gamma_anticommutation_check"),
    ("wittkit.verify", "suite_table1", "verify.table1"),
    ("wittkit.verify", "suite_witt_global", "verify.witt-global"),
    ("wittkit.verify", "suite_witt_local", "verify.witt-local"),
    ("wittkit.verify", "suite_omega", "verify.omega"),
    ("wittkit.verify", "suite_dirac", "verify.dirac"),
    ("wittkit.verify", "suite_pauli", "verify.pauli"),
    ("wittkit.verify", "suite_negative_g12", "verify.negative-g12"),
    ("wittkit.ga", "Multivector.from_json", "cli.parse"),
    ("wittkit.witt_global", "MvMatrix.from_json", "cli.parse"),
    ("wittkit.ga", "Multivector.to_json", "cli.serialize"),
    ("wittkit.witt_global", "MvMatrix.to_json", "cli.serialize"),
    ("wittkit.witt_global", "CentralMatrix.to_json", "cli.serialize"),
    ("wittkit.witt_global", "SpectralBasis.to_json", "cli.serialize"),
    ("wittkit.omega", "OmegaMatrix.to_json", "cli.serialize"),
    ("wittkit.witt_local", "FrameMap.to_json", "cli.serialize"),
    ("wittkit.verify", "VerifyReport.to_json", "cli.serialize"),
    ("json", "dump", "cli.serialize"),
    ("wittkit.cli", "cmd_generate", "cli.cmd_generate"),
    ("wittkit.cli", "cmd_convert", "cli.cmd_convert"),
    ("wittkit.cli", "cmd_verify", "cli.cmd_verify"),
]

COUNTS = [
    ("wittkit.scalars", "Scalar.__mul__", "scalars.mul.calls"),
    ("wittkit.scalars", "Scalar.__rmul__", "scalars.mul.calls"),
    ("wittkit.scalars", "Scalar.__add__", "scalars.add.calls"),
    ("wittkit.scalars", "Scalar.__radd__", "scalars.add.calls"),
]


def _resolve(module_name: str, path: str):
    """(owner, attribute, raw value) for 'func' or 'Class.attr' in a module,
    or None when the program no longer has that target."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
    if isinstance(owner, type):
        raw = owner.__dict__.get(attr)
    else:
        raw = getattr(owner, attr, None)
    return None if raw is None else (owner, attr, raw)


def _package_namespaces():
    """Module globals of wittkit, plus the dicts they hold (e.g. SUITES)."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "wittkit" or name.startswith("wittkit.")):
            continue
        ns = vars(mod)
        yield ns
        for value in list(ns.values()):
            if isinstance(value, dict):
                yield value


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []   # [start, time covered by children]
        self._undo: list[tuple] = []
        self._cache_start = None
        self._blade_cache = None
        self.missing: list[str] = []

    # -- wrappers ------------------------------------------------------

    def _span_wrapper(self, fn, name: str):
        stack, calls, total_s, self_s = self._stack, self.calls, self.total_s, self.self_s
        counts = self.counts
        blade_pairs = name == "ga.gp"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if blade_pairs:
                counts["ga.gp.blade_pairs"] += (len(getattr(args[0], "terms", ()))
                                                * len(getattr(args[1], "terms", ())))
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - frame[0]
                stack.pop()
                calls[name] += 1
                total_s[name] += dur
                self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
        return wrapper

    def _count_wrapper(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    # -- install / uninstall -------------------------------------------

    def _patch(self, module_name: str, path: str, make):
        found = _resolve(module_name, path)
        if found is None:
            # A refactor removed the layer; its metrics read 0.
            self.missing.append(f"{module_name}:{path}")
            return
        owner, attr, raw = found
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw, True))
        if not isinstance(owner, type) and module_name.startswith("wittkit"):
            for ns in _package_namespaces():
                for key, value in list(ns.items()):
                    if value is raw:
                        ns[key] = new
                        self._undo.append((ns, key, raw, False))

    def install(self) -> "Tracer":
        if self._undo:
            raise RuntimeError("tracer already installed")
        try:
            for module_name, path, name in SPANS:
                self._patch(module_name, path, lambda fn, n=name: self._span_wrapper(fn, n))
            for module_name, path, name in COUNTS:
                self._patch(module_name, path, lambda fn, n=name: self._count_wrapper(fn, n))
        except BaseException:
            self.uninstall()
            raise
        cached = _resolve("wittkit.ga", "_blade_product")
        if cached is not None and hasattr(cached[2], "cache_info"):
            self._blade_cache = cached[2]
            self._cache_start = self._blade_cache.cache_info()
        return self

    def uninstall(self) -> None:
        if self._cache_start is not None:
            info = self._blade_cache.cache_info()
            self.counts["ga.blade_cache.hits"] += info.hits - self._cache_start.hits
            self.counts["ga.blade_cache.misses"] += info.misses - self._cache_start.misses
            self._cache_start = None
        for owner, key, raw, is_attr in reversed(self._undo):
            if is_attr:
                setattr(owner, key, raw)
            else:
                owner[key] = raw
        self._undo.clear()

    # -- results -------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Flat per-layer numbers: ``<span>.calls``, ``<span>.self_s``,
        ``<span>.s`` (total) and the plain counters."""
        out: dict[str, float] = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.s"] = self.total_s[name]
        out.update(self.counts)
        return out

    def dump(self, path: str, extra: dict | None = None) -> None:
        data = self.metrics()
        data.update(extra or {})
        with open(path, "w") as fh:
            json.dump(data, fh)
