"""Spans around hmfcert's public functions, installed from outside the package.

A Tracer replaces each target function in every hmfcert module that binds
it (and each target method on its class), records one span per call
(name, start, end, parent span, operation id, extra), and keeps the spans
in memory until the caller writes them out.  Nothing in hmfcert changes:
uninstall() puts every original back.
"""

from __future__ import annotations

import sys
import time

# (home module, qualified name).  The span name drops the package prefix:
# "nfield.DyadicInterval.power".
TARGETS = (
    ("hmfcert.cli", "run"),
    ("hmfcert.criteria", "certify"),
    ("hmfcert.criteria", "irr_excluded_primes"),
    ("hmfcert.criteria", "dihedral_noncm_excluded"),
    ("hmfcert.nfield", "make_field"),
    ("hmfcert.nfield", "embed"),
    ("hmfcert.nfield", "DyadicInterval.power"),
    ("hmfcert.nfield", "symmetrized_norm"),
    ("hmfcert.nfield", "symmetrized_difference_norm"),
    ("hmfcert.nfield", "norm"),
    ("hmfcert.primes", "factor"),
    ("hmfcert.lattice", "congruence_module"),
    ("hmfcert.lattice", "split_lattice"),
    ("hmfcert.lattice", "hnf"),
    ("hmfcert.lattice", "hnf_with_transform"),
    ("hmfcert.lattice", "snf"),
    ("hmfcert.lattice", "bareiss_det"),
    ("hmfcert.lattice", "find_congruences"),
    ("hmfcert.gl2img", "FqMatrixGroup.closure"),
    ("hmfcert.gl2img", "classify_projective_image"),
    ("hmfcert.gl2img", "li_check"),
    ("hmfcert.modform", "verify_zeta_ratio"),
)

# Spans whose embed() children are precision levels of one certified value.
KERNELS = ("nfield.symmetrized_norm", "nfield.symmetrized_difference_norm",
           "criteria.dihedral_noncm_excluded")

SETUP_OP = -1


def _certified(name: str, result) -> bool:
    """Whether a kernel call ended in a certified integer."""
    if name == "criteria.dihedral_noncm_excluded":
        return any(st.kind == "excludes" for _, st in result.per_subset)
    return type(result).__name__ == "CertifiedInteger"


def _embed_bits(args, kwargs):
    return args[2] if len(args) > 2 else kwargs["precision_bits"]


class Tracer:
    """Span recorder; spans are tuples (name, t0, t1, parent, op, extra)."""

    def __init__(self):
        self.spans: list = []
        self.op = SETUP_OP
        self._stack: list[int] = []
        self._patched: list = []

    def add_span(self, name: str, t0: float, t1: float, extra=None) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, t0, t1, parent, self.op, extra))

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self
        is_embed = name == "nfield.embed"
        is_kernel = name in KERNELS
        is_make_field = name == "nfield.make_field"

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                if is_make_field and "sympy" not in sys.modules and len(args[0]) > 2:
                    # make_field imports sympy on first use for d > 1; time that
                    # import as its own layer, a child of this span.
                    ti = clock()
                    import sympy  # noqa: F401
                    tracer.add_span("import.sympy", ti, clock())
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans[idx] = (name, t0, clock(), parent, tracer.op, None)
                raise
            t1 = clock()
            stack.pop()
            extra = None
            if is_embed:
                extra = _embed_bits(args, kwargs)
            elif is_kernel:
                extra = _certified(name, result)
            spans[idx] = (name, t0, t1, parent, tracer.op, extra)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self) -> None:
        """Wrap every target wherever an hmfcert module binds it, then verify."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _hmfcert_modules()
        for home_name, qual in TARGETS:
            home = sys.modules[home_name]
            name = f"{home_name.split('.', 1)[1]}.{qual}"
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, orig))
                self._patched.append((cls, meth, orig))
                continue
            orig = getattr(home, qual)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))
        self.verify()

    def verify(self) -> None:
        """Fail if any hmfcert module or class still binds an unwrapped original."""
        originals = {id(orig) for _, _, orig in self._patched}
        for mod in _hmfcert_modules():
            for attr, val in vars(mod).items():
                if id(val) in originals:
                    raise RuntimeError(f"{mod.__name__}.{attr} is still unwrapped")
        for owner, attr, orig in self._patched:
            if vars(owner)[attr] is orig:
                raise RuntimeError(f"{owner!r}.{attr} is still unwrapped")

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()


def _hmfcert_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "hmfcert" or name.startswith("hmfcert."))]


# ---------------------------------------------------------------------------
# aggregation


def layer_totals(spans) -> dict:
    """{span name: [calls, self seconds]} plus the precision-level counters.

    A span's self time is its duration minus the durations of its direct
    children; spans nest because the program is single-threaded.
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _op, _extra in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    totals: dict = {}
    for i, (name, t0, t1, _parent, _op, _extra) in enumerate(spans):
        entry = totals.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (t1 - t0) - child[i]
    levels = set()
    max_bits = 0
    for name, _t0, _t1, parent, _op, bits in spans:
        if name != "nfield.embed":
            continue
        while parent >= 0 and spans[parent][0] not in KERNELS:
            parent = spans[parent][3]
        if parent >= 0:
            levels.add((parent, bits))
            max_bits = max(max_bits, bits)
    kernels_with_levels = {k for k, _ in levels}
    certified = sum(1 for k in kernels_with_levels if spans[k][5])
    totals["nfield.interval_rounds"] = len(levels)
    totals["nfield.max_bits"] = max_bits
    totals["nfield.certified_values"] = certified
    return totals


def merge_totals(parts) -> dict:
    """Sum several layer_totals results (max for max_bits)."""
    out: dict = {}
    for part in parts:
        for name, val in part.items():
            if name == "nfield.max_bits":
                out[name] = max(out.get(name, 0), val)
            elif isinstance(val, list):
                entry = out.setdefault(name, [0, 0.0])
                entry[0] += val[0]
                entry[1] += val[1]
            else:
                out[name] = out.get(name, 0) + val
    return out
