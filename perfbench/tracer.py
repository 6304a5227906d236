"""Spans around klayer's public functions, installed from outside the package.

The traced child (``child.py --trace``) calls :func:`install` after
``import klayer.cli`` and before ``klayer.cli.main``.  Each target is
replaced at the name its caller looks it up by, so a call made through that
name opens a span (name, start, end, parent, attributes).  Hot targets, called
thousands of times per job, are not recorded one by one: their calls are
counted and timed under the span that was open when they ran.  Spans stay in
memory; :meth:`Tracer.dump` returns them for the child to write out once at
the end.

The parent (``run.py``) never imports klayer; it turns the dumps of one pass
into the per-layer metrics with :func:`layer_metrics`.

Untraced runs never import this module, so a later change that removes one of
these names breaks only the traced run, which then reports the metrics that
depend on the name as absent (``None``) rather than as 0.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import threading
import time

# (module, attribute looked up by the caller, span name, hot)
TARGETS = (
    ("klayer.cli", "main", "cli.main", False),
    ("klayer.cli", "solve_nonlocal", "mass_constraint.solve_nonlocal", False),
    ("klayer.asymptotics", "solve_nonlocal", "mass_constraint.solve_nonlocal", False),
    ("klayer.planar2d", "solve_nonlocal", "mass_constraint.solve_nonlocal", False),
    ("klayer.mass_constraint", "solve_local_radial", "radial_steady.solve_local_radial", False),
    ("klayer.radial_steady", "solve_banded", "radial_steady.solve_banded", True),
    ("klayer.asymptotics", "verify_expansion", "asymptotics.verify_expansion", False),
    ("klayer.planar2d", "build_domain", "planar2d.build_domain", False),
    ("klayer.planar2d", "MaskedGrid.operator", "planar2d.operator", False),
    ("klayer.planar2d", "solve_local_2d", "planar2d.solve_local_2d", False),
    ("klayer.planar2d", "splu", "planar2d.splu", False),
    ("klayer.planar2d", "curvature_thickness_report", "planar2d.probe", False),
    ("klayer.evolve_radial", "relax_to_discrete_steady", "evolve_radial.relax", False),
    ("klayer.evolve_radial", "evolve", "evolve_radial.evolve", False),
    ("klayer.evolve_radial", "step", "evolve_radial.step", True),
)


def _nonlocal_attrs(args, kwargs, result):
    params = args[0] if args else kwargs["params"]
    attrs = {"state": [params.epsilon, params.p]}
    if result is not None:
        attrs["evals"] = result.bisection_iters
    return attrs


def _operator_attrs(args, kwargs, result):
    return {"unknowns": int(result[0].shape[0])}


def _splu_attrs(args, kwargs, result):
    # SuperLU's own count of stored factor entries; reading lu.L / lu.U would
    # copy the factors and inflate the traced time
    return {"nnz": int(result.nnz)}


def _probe_attrs(args, kwargs, result):
    samples = args[1] if len(args) > 1 else kwargs["samples"]
    return {"rays": len(samples), "hits": int(result.shape[0])}


# attributes recorded on a span when the wrapped call returns
_ATTRS = {
    "mass_constraint.solve_nonlocal": _nonlocal_attrs,
    "planar2d.operator": _operator_attrs,
    "planar2d.splu": _splu_attrs,
    "planar2d.probe": _probe_attrs,
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []  # [id, name, parent, start, end, thread, attrs]
        self.hot = {}  # (parent, name) -> [calls, seconds, raised]
        self.missing = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._hot_lock = threading.Lock()
        self._root = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        # pool worker threads start with an empty stack: attach their spans
        # to the process's root span (cli.main)
        return stack[-1] if stack else self._root

    def span(self, name, fn):
        attrs_of = _ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = self._parent(stack)
            if self._root is None:
                self._root = span_id
            stack.append(span_id)
            result = None
            attrs = {}
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                attrs["raised"] = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if attrs_of is not None and "raised" not in attrs:
                    attrs.update(attrs_of(args, kwargs, result))
                self.spans.append(
                    [span_id, name, parent, start, end, threading.get_ident(), attrs]
                )

        return wrapper

    def hot_call(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            raised = 0
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                key = (self._parent(self._stack()), name)
                with self._hot_lock:
                    agg = self.hot.setdefault(key, [0, 0.0, 0])
                    agg[0] += 1
                    agg[1] += elapsed
                    agg[2] += raised

        return wrapper

    def dump(self):
        return {
            "spans": self.spans,
            "hot": [[parent, name, *agg] for (parent, name), agg in self.hot.items()],
            "missing": self.missing,
        }


def install(tracer: Tracer) -> None:
    """Replace every target that exists; record the names that do not."""
    for module_name, attr, span_name, hot in TARGETS:
        try:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf)
        except (ImportError, AttributeError):
            tracer.missing.append(span_name)
            continue
        wrap = tracer.hot_call if hot else tracer.span
        setattr(owner, leaf, wrap(span_name, fn))


# ---------------------------------------------------------------------------
# per-layer metrics from the dumps of one pass (parent side)

# name -> (unit, better, span names it is computed from); a missing span name
# makes the metric absent.  The order is the order of the printed table.
METRICS = {
    "radial_steady.local_solves": (
        "count", "lower", ("radial_steady.solve_local_radial",)),
    "radial_steady.local_solve_s": ("s", "lower", ("radial_steady.solve_local_radial",)),
    "radial_steady.tridiag_solves": ("count", "lower", ("radial_steady.solve_banded",)),
    "radial_steady.newton_per_solve": ("steps/solve", "lower", (
        "radial_steady.solve_local_radial", "radial_steady.solve_banded")),
    "mass_constraint.nonlocal_solves": (
        "count", "lower", ("mass_constraint.solve_nonlocal",)),
    "mass_constraint.evals": ("count", "lower", ("mass_constraint.solve_nonlocal",)),
    "mass_constraint.evals_per_solve": (
        "evals/solve", "lower", ("mass_constraint.solve_nonlocal",)),
    "mass_constraint.self_s": ("s", "lower", (
        "mass_constraint.solve_nonlocal", "radial_steady.solve_local_radial",
        "planar2d.solve_local_2d")),
    "mass_constraint.solve_s_p50": ("s", "lower", ("mass_constraint.solve_nonlocal",)),
    "asymptotics.verify_s": ("s", "lower", ("asymptotics.verify_expansion",)),
    "asymptotics.distinct_state_ratio": ("ratio", "higher", (
        "asymptotics.verify_expansion", "mass_constraint.solve_nonlocal")),
    "planar2d.build_s": ("s", "lower", ("planar2d.build_domain",)),
    "planar2d.assemble_s": ("s", "lower", ("planar2d.operator",)),
    "planar2d.unknowns": ("count", "lower", ("planar2d.operator",)),
    "planar2d.local_solves": ("count", "lower", ("planar2d.solve_local_2d",)),
    "planar2d.local_solve_s": ("s", "lower", ("planar2d.solve_local_2d",)),
    "planar2d.factorizations": ("count", "lower", ("planar2d.splu",)),
    "planar2d.factor_s": ("s", "lower", ("planar2d.splu",)),
    "planar2d.lu_nnz": ("count", "lower", ("planar2d.splu",)),
    "planar2d.lu_mb_computed": ("MB", "lower", ("planar2d.splu",)),
    "planar2d.probe_s": ("s", "lower", ("planar2d.probe",)),
    "planar2d.probe_rays": ("count", "higher", ("planar2d.probe",)),
    "planar2d.probe_hit_ratio": ("ratio", "higher", ("planar2d.probe",)),
    "evolve_radial.relax_s": ("s", "lower", ("evolve_radial.relax",)),
    "evolve_radial.relax_steps": (
        "count", "lower", ("evolve_radial.relax", "evolve_radial.step")),
    "evolve_radial.evolve_s": ("s", "lower", ("evolve_radial.evolve",)),
    "evolve_radial.evolve_steps": (
        "count", "lower", ("evolve_radial.evolve", "evolve_radial.step")),
    "evolve_radial.step_us": ("us", "lower", ("evolve_radial.step",)),
    "evolve_radial.step_retries": ("count", "lower", ("evolve_radial.step",)),
    "cli.import_s": ("s", "lower", ()),
    "cli.self_s": ("s", "lower", ("cli.main",)),
    "trace.overhead_frac": ("ratio", "lower", ()),
}

# machine-independent counts that must repeat exactly within one seed
EXACT_COUNTS = (
    "radial_steady.tridiag_solves",
    "mass_constraint.evals",
    "planar2d.factorizations",
    "planar2d.lu_nnz",
    "evolve_radial.relax_steps",
    "evolve_radial.evolve_steps",
)

_LU_ENTRY_BYTES = 12  # float64 value + int32 row index per stored entry


def _covered(lo, hi, intervals):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _ratio(num, den):
    # a bypassed layer (no calls on this workload) reads 0, not a division error
    return num / den if den else 0.0


def layer_metrics(dumps, import_s):
    """Per-layer metrics of one traced pass (one dump per CLI job).

    import_s is the median in-process ``import klayer.cli`` time of the jobs.
    trace.overhead_frac needs the untraced pass and is filled in by run.py.
    """
    spans = {}  # (job, id) -> span
    children = {}
    hot_under = {}  # (job, parent) -> seconds of hot calls under that span
    hot_by_name = {}  # name -> [calls, seconds, raised]
    hot_by_parent_name = {}  # (parent span name, hot name) -> calls
    missing = set()
    for job, dump in enumerate(dumps):
        missing.update(dump["missing"])
        for sid, name, parent, start, end, _thread, attrs in dump["spans"]:
            span = {"name": name, "parent": (job, parent), "start": start,
                    "end": end, "attrs": attrs}
            spans[(job, sid)] = span
            children.setdefault((job, parent), []).append(span)
    for job, dump in enumerate(dumps):
        for parent, name, calls, seconds, raised in dump["hot"]:
            hot_under[(job, parent)] = hot_under.get((job, parent), 0.0) + seconds
            agg = hot_by_name.setdefault(name, [0, 0.0, 0])
            agg[0] += calls
            agg[1] += seconds
            agg[2] += raised
            pname = spans[(job, parent)]["name"] if (job, parent) in spans else None
            key = (pname, name)
            hot_by_parent_name[key] = hot_by_parent_name.get(key, 0) + calls

    by_name = {}
    for key, span in spans.items():
        by_name.setdefault(span["name"], []).append((key, span))

    def dur(name):
        return sum(s["end"] - s["start"] for _, s in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    def self_time(name):
        total = 0.0
        for key, s in by_name.get(name, ()):
            kids = [(c["start"], c["end"]) for c in children.get(key, ())]
            total += (s["end"] - s["start"]) - _covered(s["start"], s["end"], kids)
            total -= hot_under.get(key, 0.0)
        return total

    def attr_values(name, attr):
        return [s["attrs"][attr] for _, s in by_name.get(name, ()) if attr in s["attrs"]]

    def under_verify(span):
        parent = span["parent"]
        while parent in spans:
            if spans[parent]["name"] == "asymptotics.verify_expansion":
                return True
            parent = spans[parent]["parent"]
        return False

    # distinct (eps, p) states over the solves asked for by verify_expansion,
    # per process (a reuse could only happen within one)
    verify_calls = 0
    verify_states = 0
    for job in range(len(dumps)):
        states = [tuple(s["attrs"]["state"]) for (j, _), s in
                  by_name.get("mass_constraint.solve_nonlocal", ())
                  if j == job and under_verify(s) and "state" in s["attrs"]]
        verify_calls += len(states)
        verify_states += len(set(states))

    solve_times = [s["end"] - s["start"] for _, s in
                   by_name.get("mass_constraint.solve_nonlocal", ())]
    nonlocal_solves = count("mass_constraint.solve_nonlocal")
    evals = sum(attr_values("mass_constraint.solve_nonlocal", "evals"))
    local_radial = count("radial_steady.solve_local_radial")
    banded = hot_by_name.get("radial_steady.solve_banded", [0, 0.0, 0])[0]
    steps = hot_by_name.get("evolve_radial.step", [0, 0.0, 0])
    rays = sum(attr_values("planar2d.probe", "rays"))
    hits = sum(attr_values("planar2d.probe", "hits"))
    lu_nnz = max(attr_values("planar2d.splu", "nnz"), default=0)

    values = {
        "radial_steady.local_solves": local_radial,
        "radial_steady.local_solve_s": dur("radial_steady.solve_local_radial"),
        "radial_steady.tridiag_solves": banded,
        "radial_steady.newton_per_solve": _ratio(banded, local_radial),
        "mass_constraint.nonlocal_solves": nonlocal_solves,
        "mass_constraint.evals": evals,
        "mass_constraint.evals_per_solve": _ratio(evals, nonlocal_solves),
        "mass_constraint.self_s": self_time("mass_constraint.solve_nonlocal"),
        "mass_constraint.solve_s_p50": statistics.median(solve_times) if solve_times else 0.0,
        "asymptotics.verify_s": dur("asymptotics.verify_expansion"),
        "asymptotics.distinct_state_ratio": _ratio(verify_states, verify_calls),
        "planar2d.build_s": dur("planar2d.build_domain"),
        "planar2d.assemble_s": dur("planar2d.operator"),
        "planar2d.unknowns": max(attr_values("planar2d.operator", "unknowns"), default=0),
        "planar2d.local_solves": count("planar2d.solve_local_2d"),
        "planar2d.local_solve_s": dur("planar2d.solve_local_2d"),
        "planar2d.factorizations": count("planar2d.splu"),
        "planar2d.factor_s": dur("planar2d.splu"),
        "planar2d.lu_nnz": lu_nnz,
        "planar2d.lu_mb_computed": lu_nnz * _LU_ENTRY_BYTES / 1e6,
        "planar2d.probe_s": dur("planar2d.probe"),
        "planar2d.probe_rays": rays,
        "planar2d.probe_hit_ratio": _ratio(hits, rays),
        "evolve_radial.relax_s": dur("evolve_radial.relax"),
        "evolve_radial.relax_steps": hot_by_parent_name.get(
            ("evolve_radial.relax", "evolve_radial.step"), 0),
        "evolve_radial.evolve_s": dur("evolve_radial.evolve"),
        "evolve_radial.evolve_steps": hot_by_parent_name.get(
            ("evolve_radial.evolve", "evolve_radial.step"), 0),
        "evolve_radial.step_us": _ratio(steps[1], steps[0]) * 1e6,
        "evolve_radial.step_retries": steps[2],
        "cli.import_s": import_s,
        "cli.self_s": self_time("cli.main"),
        "trace.overhead_frac": None,
    }
    for name, (_unit, _better, needs) in METRICS.items():
        if missing.intersection(needs):
            values[name] = None
    return values, sorted(missing)
