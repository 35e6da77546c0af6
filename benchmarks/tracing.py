"""Span tracing of sparselab from outside the package.

``Tracer.install`` wraps every public function of the traced modules and a
short list of methods, then rebinds every alias of each wrapped function:
the names other modules imported with ``from .x import f``, the package
``__init__`` re-exports, and functions stored in module-level dicts such as
``NAMED_KERNELS``.  ``uninstall`` restores every binding it changed.

Each call of a wrapped function records one span ``[name, parent, start,
end]`` in memory.  Generator functions get a call count and no span, since
their work happens while the caller iterates.  Some wrappers also add exact
work counts (cubes, cells, selected cubes, ...) computed from the call's
arguments and result; that bookkeeping is recorded as a ``trace.bookkeeping``
span so that no layer is charged for it.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import time
import types
import weakref
from collections import Counter

LAYERS = ("grid", "weights", "oscillation", "sparse", "samples", "kernels", "certify", "cli")

# Methods wrapped on their class: (module, class, method).
METHODS = (
    ("grid", "DyadicCube", "descendants"),
    ("sparse", "CarlesonSequence", "dense_levels"),
    ("sparse", "CarlesonSequence", "normalized"),
    ("oscillation", "LernerDecomposition", "verify"),
    ("kernels", "HilbertOperator", "apply"),
)

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._undo: list[tuple] = []
        self._tokens: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._next_token = 0
        self._eval_keys: set = set()
        self._trials_under: Counter = Counter()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap and rebind; operator/input tuples seen before are forgotten."""
        self._eval_keys.clear()
        mods = {name: importlib.import_module(f"sparselab.{name}") for name in LAYERS}
        package = importlib.import_module("sparselab")
        wrapped: dict[int, object] = {}
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (isinstance(fn, types.FunctionType) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrapped[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        # a method the program no longer has is skipped; its metrics then read 0
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[layer], cls_name, None)
            if meth in vars(cls or object):
                self._rebind(cls, meth, self._wrap(f"{layer}.{meth}", vars(cls)[meth]))
        cube = getattr(mods["grid"], "DyadicCube", None)
        if "__post_init__" in vars(cube or object):
            self._rebind(cube, "__post_init__",
                         self._counted("grid.cubes_built", vars(cube)["__post_init__"]))
        # every alias: module attributes and function values of module-level dicts
        for mod in (package, *mods.values()):
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and id(value) in wrapped:
                    self._rebind(mod, attr, wrapped[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if isinstance(item, types.FunctionType) and id(item) in wrapped:
                            self._undo.append((value.__setitem__, key, item))
                            value[key] = wrapped[id(item)]

    def uninstall(self) -> None:
        for restore, name, original in reversed(self._undo):
            restore(name, original)
        self._undo.clear()

    def _rebind(self, target, name: str, value) -> None:
        self._undo.append((functools.partial(setattr, target), name, vars(target)[name]))
        setattr(target, name, value)

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._counted(name + ".calls", fn)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hook = HOOKS.get(name)
        if name.startswith("certify.certify_"):
            hook = _certifier_hook
        sig = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if hook is not None:
                book = [BOOKKEEPING, stack[-1] if stack else -1, clock(), 0.0]
                try:
                    hook(self, idx, sig.bind(*args, **kwargs).arguments, result)
                except (AttributeError, KeyError, TypeError):  # the program's types changed
                    self.counts["trace.hook_errors"] += 1
                spans.append(book)
                book[3] = clock()
            return result

        return wrapper

    # -- state used by the hooks ----------------------------------------------

    def token(self, obj) -> int:
        """A number per live object, assigned in order of first sight."""
        tok = self._tokens.get(obj)
        if tok is None:
            tok = self._tokens[obj] = self._next_token
            self._next_token += 1
        return tok

    def open_sweep(self) -> int | None:
        for idx in reversed(self.stack):
            if self.spans[idx][0] == "certify.sweep":
                return idx
        return None

    # -- results --------------------------------------------------------------

    def summarize(self, start: int = 0) -> tuple[dict, float]:
        """Per-name calls, self time and call durations of spans[start:].

        Also returns the total duration of the root spans (no parent).
        """
        spans = self.spans[start:]
        covered = [0.0] * len(spans)
        for name, parent, t0, t1 in spans:
            if parent >= start:
                covered[parent - start] += t1 - t0
        out: dict[str, dict] = {}
        root_total = 0.0
        for i, (name, parent, t0, t1) in enumerate(spans):
            rec = out.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": []})
            rec["calls"] += 1
            rec["self_s"] += (t1 - t0) - covered[i]
            rec["durations"].append(t1 - t0)
            if parent < start:
                root_total += t1 - t0
        return out, root_total


def fingerprint(values) -> bytes:
    return hashlib.blake2b(values.tobytes(), digest_size=16).digest()


def _size_hook(counter: str, measure):
    def hook(tr, idx, args, result):
        tr.counts[counter] += measure(result)
    return hook


def _eval_hook(tr, idx, args, result):
    obj = args["obj"]
    tr.counts["sparse.eval_sparse_A.cubes"] += len(obj)
    key = (tr.token(obj), args["k"], args["p0"],
           tuple(fingerprint(f.values) for f in args["fs"]))
    if key not in tr._eval_keys:
        tr._eval_keys.add(key)
        tr.counts["sparse.eval_sparse_A.distinct"] += 1


def _certifier_hook(tr, idx, args, result):
    sweep_idx = tr.open_sweep()
    if sweep_idx is None:
        return
    tr._trials_under[sweep_idx] += 1
    # sweeps keep degenerate buckley records and drop the other experiments'
    if result.degenerate and result.experiment != "buckley":
        tr.counts["certify.degenerate_dropped"] += 1


def _sweep_hook(tr, idx, args, result):
    computed = tr._trials_under.pop(idx, 0)
    if args.get("done_keys"):
        tr.counts["certify.resume.recomputed"] += computed
        tr.counts["certify.resume.appended"] += len(result.records)


HOOKS = {
    "grid.dilate": _size_hook("grid.dilate.cells", lambda r: r.size),
    "grid.parse_gfn": _size_hook("grid.parse_gfn.values", lambda r: r.values.size),
    "sparse.eval_sparse_A": _eval_hook,
    "sparse.select_sparse": _size_hook("sparse.select_sparse.selected", lambda r: len(r.selected)),
    "sparse.dominate": _size_hook("sparse.dominate.pieces", lambda r: len(r.pieces)),
    "sparse.greedy_witness": _size_hook(
        "sparse.greedy_witness.cells", lambda r: sum(int(w.size) for w in r.witness.values())),
    "oscillation.lerner_decompose": _size_hook(
        "oscillation.lerner_decompose.cubes", lambda r: len(r.omegas)),
    "cli.read_carleson": _size_hook("cli.read_carleson.cubes", len),
    "certify.sweep": _sweep_hook,
}
