"""Span tracer that instruments nlcavity from outside the package.

``Tracer.install`` replaces every public function of the traced modules
with a wrapper that records a span (name, id, parent id, start, end). The
physics modules bind some of each other's functions by ``from .x import
y``, so the wrapper is installed on every nlcavity module that holds the
function, not only on the one that defines it. A few private functions of
the CLI are traced as well, because they are the config and I/O
boundaries.

Spans are kept in memory in flat integer arrays and written out at the end.
Work counters that are not calls (integrand and right-hand-side
evaluations, frequencies per response call, generator size, bytes written)
are recorded by the same wrappers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("numerics", "fock", "detector", "hawking", "trilinear", "qinfo",
          "presets", "cli")
# private CLI functions that mark the config and I/O boundaries
EXTRA = {"cli": ("_write_csv", "_write_manifest")}

_FIELDS = 5  # name id, span id, parent id, start ns, end ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans = array("q")
        self.counts: Counter = Counter()
        self.exit_codes: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple] = []

    # -- installation -------------------------------------------------------

    def targets(self) -> dict:
        """{original function: traced name} over the traced layers."""
        found = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"nlcavity.{layer}")
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") or attr in EXTRA.get(layer, ())
                if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    found[obj] = f"{layer}.{attr}"
        return found

    def install(self) -> None:
        targets = self.targets()
        wrappers = {fn: self._wrap(fn, name) for fn, name in targets.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "nlcavity" or mod_name.startswith("nlcavity.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name):
        nid = self._name_id(name)
        hook = _HOOKS.get(name)
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(self, fn, args, kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.extend((nid, sid, parent, start, end))

        return traced

    def summary(self) -> dict[str, dict]:
        return summarize(self.spans, self.names)

    def write(self, directory: Path) -> None:
        """Spans as raw little-endian int64 records plus a JSON index."""
        directory.mkdir(parents=True, exist_ok=True)
        spans = array("q", self.spans)
        if sys.byteorder != "little":
            spans.byteswap()
        (directory / "spans.bin").write_bytes(spans.tobytes())
        (directory / "spans.json").write_text(json.dumps({
            "fields": ["name_id", "span_id", "parent_id", "start_ns", "end_ns"],
            "dtype": "<i8", "names": self.names, "counts": dict(self.counts),
            "exit_codes": {str(k): v for k, v in self.exit_codes.items()},
        }, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# counters recorded at the same boundaries
# ---------------------------------------------------------------------------

def _counting(tracer, key, fn):
    def counted(*args, **kwargs):
        tracer.counts[key] += 1
        return fn(*args, **kwargs)
    return counted


def _integrate_adaptive(tracer, fn, args, kwargs):
    args = (_counting(tracer, "numerics.integrate_adaptive.integrand_evals", args[0]),) + args[1:]
    return fn(*args, **kwargs)


def _evolve_ode(tracer, fn, args, kwargs):
    args = (_counting(tracer, "numerics.evolve_ode.rhs_evals", args[0]),) + args[1:]
    return fn(*args, **kwargs)


def _response_coeffs(tracer, fn, args, kwargs):
    omega = args[3] if len(args) > 3 else kwargs["omega"]
    tracer.counts["detector.response_coeffs.omegas"] += _n_values(omega)
    return fn(*args, **kwargs)


def _n_values(x) -> int:
    size = getattr(x, "size", None)
    if size is not None:
        return int(size)
    try:
        return len(x)
    except TypeError:
        return 1


def _interaction_generator(tracer, fn, args, kwargs):
    gen = fn(*args, **kwargs)
    tracer.counts["trilinear.last_generator_nnz"] = int(gen.nnz)
    return gen


def _evolve_full(tracer, fn, args, kwargs):
    before = tracer.counts["numerics.evolve_ode.rhs_evals"]
    try:
        return fn(*args, **kwargs)
    finally:
        rhs = tracer.counts["numerics.evolve_ode.rhs_evals"] - before
        nnz = tracer.counts["trilinear.last_generator_nnz"]
        dim = int(args[0].amplitudes.size)
        c = tracer.counts
        c["trilinear.evolve_full.state_dim"] = max(c["trilinear.evolve_full.state_dim"], dim)
        c["trilinear.evolve_full.generator_nnz"] = max(c["trilinear.evolve_full.generator_nnz"], nnz)
        c["trilinear.evolve_full.op_count"] += nnz * rhs


def _write_csv(tracer, fn, args, kwargs):
    out = fn(*args, **kwargs)
    tracer.counts["cli.bytes_written"] += Path(args[0]).stat().st_size
    return out


def _write_manifest(tracer, fn, args, kwargs):
    path = fn(*args, **kwargs)
    tracer.counts["cli.bytes_written"] += Path(path).stat().st_size
    return path


def _cli_run(tracer, fn, args, kwargs):
    cfg = args[0] if args else kwargs["cfg"]
    code = fn(*args, **kwargs)
    tracer.exit_codes[code] += 1
    tracer.counts["cli.warnings"] += len(cfg.warnings)
    return code


_HOOKS = {
    "numerics.integrate_adaptive": _integrate_adaptive,
    "numerics.evolve_ode": _evolve_ode,
    "detector.response_coeffs": _response_coeffs,
    "trilinear.interaction_generator": _interaction_generator,
    "trilinear.evolve_full": _evolve_full,
    "cli._write_csv": _write_csv,
    "cli._write_manifest": _write_manifest,
    "cli.run": _cli_run,
}


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def as_table(spans):
    """(n, 5) int64 array view of flat span records, or of (name id, id,
    parent id, start, end) tuples."""
    if isinstance(spans, array):
        return np.frombuffer(spans, dtype=np.int64).reshape(-1, _FIELDS)
    return np.asarray(spans, dtype=np.int64).reshape(-1, _FIELDS)


def _union_by_group(group, starts, ends, lo, hi):
    """Per group g: length of the union of the intervals [starts, ends) of
    that group, each clipped to [lo[g], hi[g])."""
    base = lo[group]
    s = np.maximum(starts, base)
    s -= base
    e = np.minimum(ends, hi[group])
    e -= base
    del base
    keep = e > s
    if not keep.all():
        group, s, e = group[keep], s[keep], e[keep]
    del keep
    if group.size == 0:
        return np.zeros(len(lo))
    big = int((hi - lo).max()) + 1
    order = np.lexsort((s, group))
    group, s, e = group[order], s[order], e[order]
    del order
    # running maximum of the covered reach; the group offset restarts it
    offset = group * big
    reach = np.maximum.accumulate(e + offset)
    before = np.empty_like(reach)
    before[0] = -1
    before[1:] = reach[:-1]
    del reach
    before -= offset
    del offset
    np.maximum(before, s, out=before)
    np.subtract(e, before, out=e)
    np.maximum(e, 0, out=e)
    return np.bincount(group, weights=e, minlength=len(lo))


def self_times(spans):
    """Self time in ns of every span, in input order.

    Self time is the span's duration minus the part of its interval covered
    by its child spans: the union of the children, clipped to the parent.
    """
    t = as_table(spans)
    sid, parent, start, end = t[:, 1], t[:, 2], t[:, 3], t[:, 4]
    order = np.argsort(sid, kind="stable")
    has_parent = parent >= 0
    prow = order[np.searchsorted(sid, parent[has_parent], sorter=order)]
    covered = _union_by_group(prow, start[has_parent], end[has_parent], start, end)
    return (end - start) - covered


def summarize(spans, names) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds (the union of that name's
    spans, so nested calls are not counted twice) and self seconds."""
    t = as_table(spans)
    if t.shape[0] == 0:
        return {}
    nid, start, end = t[:, 0], t[:, 3], t[:, 4]
    n = len(names)
    calls = np.bincount(nid, minlength=n)
    self_ns = np.bincount(nid, weights=self_times(t), minlength=n)
    lo = np.full(n, start.min())
    hi = np.full(n, end.max())
    incl_ns = _union_by_group(nid, start, end, lo, hi)
    return {names[i]: {"calls": int(calls[i]), "s": float(incl_ns[i]) * 1e-9,
                       "self_s": float(self_ns[i]) * 1e-9}
            for i in range(n) if calls[i]}
