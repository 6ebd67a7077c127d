"""Runtime tracing of hermrank's layers from outside the package.

``Tracer.install`` replaces the layers' functions listed in ``SPANS`` with
wrappers that record a span (name, parent span, start, end, and the field
operations counted inside it), and replaces ``mul``, ``frobenius`` and
``inv`` on every ``FieldContext`` class with counting wrappers.  A function
imported by name into several modules (``lp_interpolate`` sits in codec and
channel too) is replaced everywhere it is bound, so the calls hermrank makes
between its own modules are seen.  ``uninstall`` puts every original back.
Nothing in ``src/`` is edited: the benchmark measures the code as it is.

Spans are kept in memory as lists ``[name, parent, t0, t1, counts, tag]``
in the order they were entered, so the spans under span i are the
contiguous run that follows it.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

#: (module, function) pairs that get a span; the span is named module.function.
SPANS = (
    ("field", "canonical_modulus"),
    ("linpoly", "moore_from_points"),
    ("linpoly", "lp_interpolate"),
    ("linpoly", "fq2_matrix_rank"),
    ("linpoly", "map_rank"),
    ("code", "build_params"),
    ("code", "find_selfdual_basis"),
    ("code", "params_from_json_obj"),
    ("code", "rank_distance"),
    ("codec", "random_message"),
    ("codec", "encode"),
    ("codec", "decode"),
    ("codec", "beta_split"),
    ("codec", "skew_bm"),
    ("codec", "solve_key_equation"),
    ("codec", "complete_g"),
    ("codec", "extract_message"),
    ("channel", "random_rank_error"),
    ("channel", "_draw_arbitrary"),
    ("channel", "_draw_hermitian"),
    ("channel", "corrupt"),
)

#: FieldContext methods counted, in the order of the counts tuple.
COUNTED = ("mul", "frobenius", "inv")


class Tracer:
    def __init__(self, builds_log: str | None = None):
        self.spans: list = []
        self._stack: list = []
        self._cnt = [0, 0, 0]
        self._patches: list = []
        self._builds_log = builds_log
        self.missing: list = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, tag=None) -> int:
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0, tuple(self._cnt), tag])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        rec = self.spans[idx]
        rec[3] = time.perf_counter()
        c0, c = rec[4], self._cnt
        rec[4] = (c[0] - c0[0], c[1] - c0[1], c[2] - c0[2])
        self._stack.pop()

    # -- patching ----------------------------------------------------------

    def _span_wrapper(self, orig, name):
        log = self._builds_log if name == "code.build_params" else None

        def wrapper(*args, **kwargs):
            if log:
                # simulate workers exit without running atexit hooks, so the
                # call is written down as it happens
                with open(log, "a", encoding="utf-8") as fh:
                    fh.write(f"{os.getpid()}\n")
            idx = self.open(name)
            try:
                return orig(*args, **kwargs)
            finally:
                self.close(idx)

        return functools.update_wrapper(wrapper, orig)

    @staticmethod
    def _count_wrapper(orig, slot, cnt):
        def wrapper(self, *args):
            cnt[slot] += 1
            return orig(self, *args)

        return functools.update_wrapper(wrapper, orig)

    def install(self) -> None:
        if self._patches:
            return
        mods = [importlib.import_module("hermrank." + m) for m in ("field", "linpoly", "code", "codec", "channel", "cli")]
        mods.append(importlib.import_module("hermrank"))
        for modname, fname in SPANS:
            orig = getattr(sys.modules["hermrank." + modname], fname, None)
            if orig is None:
                self.missing.append(f"{modname}.{fname}")
                continue
            wrapper = self._span_wrapper(orig, f"{modname}.{fname}")
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        base = sys.modules["hermrank.field"].FieldContext
        classes, todo = [], [base]
        while todo:
            cls = todo.pop()
            classes.append(cls)
            todo.extend(cls.__subclasses__())
        for cls in classes:
            for slot, meth in enumerate(COUNTED):
                orig = cls.__dict__.get(meth)
                if orig is not None:
                    self._patches.append((cls, meth, orig))
                    setattr(cls, meth, self._count_wrapper(orig, slot, self._cnt))

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()


def clear_caches() -> None:
    """Empty every functools cache bound at module level in hermrank, so
    the next build starts cold (today: the canonical-modulus scan)."""
    for name, mod in list(sys.modules.items()):
        if name == "hermrank" or name.startswith("hermrank."):
            for val in list(vars(mod).values()):
                for obj in (val, getattr(val, "__wrapped__", None)):
                    if hasattr(obj, "cache_clear"):
                        obj.cache_clear()
                        break
