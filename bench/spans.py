"""Spans recorded from outside the program, and the per-layer metrics.

`install` wraps public names of the `bscch` modules in every module
namespace that imported them (so a caller's global lookup finds the
wrapper), plus methods and properties on their classes. Each call records a
span: name, start, end and parent. Spans stay in memory and are written out
when the invocation ends; `layer_metrics` then turns them into per-layer
numbers, with self time = span duration minus the time its children cover.

A name a later version of the program no longer has is reported as absent;
its metrics read 0.
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass

NAME, START, END, PARENT, ATTRS = range(5)


class Tracer:
    """In-memory span recorder for one single-threaded invocation."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, attrs or None]
        self._stack = []
        self.last_factor = {}  # span name -> most recent factor object

    def open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(sid)
        return sid

    def close(self, sid, attrs=None):
        self.spans[sid][END] = time.perf_counter()
        if attrs:
            self.spans[sid][ATTRS] = attrs
        self._stack.pop()

    def wrap(self, fn, name, hook=None):
        """`fn` recording a span per call; ``hook(result)`` may replace the
        result and returns ``(result, attrs)``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name)
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    result, attrs = hook(result)
                return result
            finally:
                self.close(sid, attrs)

        return traced

    def factor_hook(self, factor_name):
        """Hook for `splu`: proxy the factor so each `.solve` is a span too."""
        solve_name = factor_name.rsplit(".", 1)[0] + ".lu_solve"

        def hook(lu):
            self.last_factor[factor_name] = lu
            return _FactorProxy(lu, self.wrap(lu.solve, solve_name)), None

        return hook

    def factor_nnz(self):
        """L+U nonzeros of the last factor of each kind (computed at the end,
        outside every span)."""
        out = {}
        for name, lu in self.last_factor.items():
            try:
                out[name] = int(lu.L.nnz + lu.U.nnz)
            except AttributeError:
                pass
        return out


class _FactorProxy:
    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def _step_hook(result):
    try:
        return result, {"newton_iters": int(result[1].newton_iters)}
    except (TypeError, IndexError, AttributeError, ValueError):
        return result, None


@dataclass(frozen=True)
class Spec:
    """One traced name: ``owner`` is a module (for functions) or a
    ``module.Class`` path (for methods and properties)."""

    span: str
    kind: str  # function | method | property
    owner: str
    attr: str
    only_owner: bool = False  # do not follow the object into other namespaces
    hook: str = ""            # factor | step

    @property
    def label(self):
        return f"{self.owner}.{self.attr}"


SPECS = (
    Spec("stepper.factor", "function", "bscch.stepper", "splu", only_owner=True, hook="factor"),
    Spec("elliptic.factor", "function", "bscch.elliptic", "splu", only_owner=True, hook="factor"),
    Spec("assembly.assemble_mobility_stiffness", "function", "bscch.stepper",
         "assemble_mobility_stiffness"),
    Spec("assembly.assemble_convection", "function", "bscch.stepper", "assemble_convection"),
    Spec("assembly.assemble_core", "function", "bscch.stepper", "assemble_core"),
    Spec("assembly.build_case_spaces", "function", "bscch.stepper", "build_case_spaces"),
    Spec("potentials.yosida", "function", "bscch.stepper", "yosida"),
    Spec("potentials.check_domination", "function", "bscch.stepper", "check_domination"),
    Spec("potentials.eval_regularized", "function", "bscch.diagnostics", "eval_regularized"),
    Spec("diagnostics.make_record", "function", "bscch.diagnostics", "make_record"),
    Spec("stepper.run", "function", "bscch.stepper", "run"),
    Spec("stepper.Stepper.init", "method", "bscch.stepper.Stepper", "__init__"),
    Spec("stepper.step", "method", "bscch.stepper.Stepper", "step", hook="step"),
    Spec("elliptic.InverseCoupledOperator.init", "method",
         "bscch.elliptic.InverseCoupledOperator", "__init__"),
    Spec("elliptic.dual_norm", "method", "bscch.elliptic.InverseCoupledOperator", "dual_norm"),
    Spec("assembly.pair_blocks", "property", "bscch.assembly.FormsBundle", "M_pair"),
    Spec("assembly.pair_blocks", "property", "bscch.assembly.FormsBundle", "A_pair"),
    Spec("output.write_series", "function", "bscch.output", "write_series"),
    Spec("output.write_snapshots", "function", "bscch.output", "write_snapshots"),
    Spec("mesh.generate_disk_mesh", "function", "bscch.mesh", "generate_disk_mesh"),
    Spec("config.load_run_config", "function", "bscch.config", "load_run_config"),
)


def install(tracer, modules):
    """Wrap every spec'd name; returns the labels of the names not found.

    ``modules`` maps module names to modules (``sys.modules``). A function
    is replaced in its owner module and, under whatever name, in every other
    `bscch` module that imported the same object.
    """
    absent = []
    for spec in SPECS:
        hook = (tracer.factor_hook(spec.span) if spec.hook == "factor"
                else _step_hook if spec.hook == "step" else None)
        if spec.kind == "function":
            ok = _wrap_function(tracer, modules, spec, hook)
        else:
            ok = _wrap_class_attr(tracer, modules, spec, hook)
        if not ok:
            absent.append(spec.label)
    return absent


def _wrap_function(tracer, modules, spec, hook):
    owner = modules.get(spec.owner)
    fn = getattr(owner, spec.attr, None)
    if not callable(fn):
        return False
    wrapped = tracer.wrap(fn, spec.span, hook)
    setattr(owner, spec.attr, wrapped)
    if spec.only_owner:
        return True
    for name, mod in list(modules.items()):
        if (mod is owner or name == getattr(fn, "__module__", None)
                or not (name == "bscch" or name.startswith("bscch."))):
            continue
        for alias, value in list(vars(mod).items()):  # also `import x as y`
            if value is fn:
                setattr(mod, alias, wrapped)
    return True


def _wrap_class_attr(tracer, modules, spec, hook):
    mod_name, _, cls_name = spec.owner.rpartition(".")
    cls = getattr(modules.get(mod_name), cls_name, None)
    if not isinstance(cls, type):
        return False
    raw = cls.__dict__.get(spec.attr)
    if spec.kind == "property":
        if not isinstance(raw, property) or raw.fget is None:
            return False
        setattr(cls, spec.attr, property(tracer.wrap(raw.fget, spec.span, hook)))
        return True
    if not callable(raw):
        return False
    setattr(cls, spec.attr, tracer.wrap(raw, spec.span, hook))
    return True


# -- span arithmetic -------------------------------------------------------

def children(spans):
    """Child indices of every span."""
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            kids[s[PARENT]].append(i)
    return kids


def self_times(spans):
    """Duration of each span minus the part of it its children cover."""
    kids = children(spans)
    out = []
    for i, s in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted((max(spans[k][START], s[START]), min(spans[k][END], s[END]))
                             for k in kids[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s[END] - s[START]) - covered)
    return out


def outermost(spans):
    """Mask: True where no ancestor carries the same name (recursion and
    re-entry are then not counted twice in totals)."""
    mask = []
    for s in spans:
        p, ok = s[PARENT], True
        while p >= 0:
            if spans[p][NAME] == s[NAME]:
                ok = False
                break
            p = spans[p][PARENT]
        mask.append(ok)
    return mask


def percentile(values, q):
    """Linear-interpolation percentile (q in [0, 100]); 0 for no values."""
    vals = sorted(values)
    if not vals:
        return 0.0
    pos = (len(vals) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


# -- per-layer metrics -----------------------------------------------------

# name, unit, better; `.ms` and `.calls` are totals per workload invocation.
PER_LAYER = (
    ("stepper.factor.ms", "ms", "lower"),
    ("stepper.factor.calls", "count", "lower"),
    ("stepper.factor.share", "frac", "lower"),
    ("stepper.factor_per_newton", "ratio", "lower"),
    ("stepper.lu_nnz", "count", "lower"),
    ("stepper.lu_solve.ms", "ms", "lower"),
    ("stepper.lu_solve.calls", "count", "lower"),
    ("stepper.lu_solve.share", "frac", "lower"),
    ("stepper.step.ms_p50", "ms", "lower"),
    ("stepper.step.ms_p98", "ms", "lower"),
    ("stepper.step.calls", "count", "lower"),
    ("stepper.step.self_ms", "ms", "lower"),
    ("stepper.step.self_share", "frac", "lower"),
    ("stepper.newton_iters", "count", "lower"),
    ("stepper.Stepper.init.ms", "ms", "lower"),
    ("assembly.assemble_mobility_stiffness.ms", "ms", "lower"),
    ("assembly.assemble_mobility_stiffness.calls", "count", "lower"),
    ("assembly.assemble_convection.ms", "ms", "lower"),
    ("assembly.assemble_convection.calls", "count", "lower"),
    ("assembly.pair_blocks.calls", "count", "lower"),
    ("assembly.assemble_core.ms", "ms", "lower"),
    ("assembly.build_case_spaces.ms", "ms", "lower"),
    ("potentials.yosida.ms", "ms", "lower"),
    ("potentials.yosida.calls", "count", "lower"),
    ("potentials.yosida.share", "frac", "lower"),
    ("potentials.eval_regularized.ms", "ms", "lower"),
    ("potentials.eval_regularized.calls", "count", "lower"),
    ("potentials.check_domination.ms", "ms", "lower"),
    ("diagnostics.make_record.ms", "ms", "lower"),
    ("diagnostics.make_record.calls", "count", "lower"),
    ("diagnostics.make_record.share", "frac", "lower"),
    ("diagnostics.member_run.s", "s", "lower"),
    ("elliptic.InverseCoupledOperator.init.ms", "ms", "lower"),
    ("elliptic.dual_norm.ms", "ms", "lower"),
    ("elliptic.dual_norm.calls", "count", "lower"),
    ("output.write_series.ms", "ms", "lower"),
    ("output.write_snapshots.ms", "ms", "lower"),
    ("output.bytes", "B", "lower"),
    ("mesh.generate_disk_mesh.ms", "ms", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.absent", "count", "lower"),
)

# spans whose total time and call count are reported as `<span>.ms`/`.calls`
_TOTALS = ("stepper.factor", "stepper.lu_solve", "stepper.Stepper.init",
           "assembly.assemble_mobility_stiffness", "assembly.assemble_convection",
           "assembly.pair_blocks", "assembly.assemble_core", "assembly.build_case_spaces",
           "potentials.yosida", "potentials.eval_regularized", "potentials.check_domination",
           "diagnostics.make_record", "elliptic.InverseCoupledOperator.init",
           "elliptic.dual_norm", "output.write_series", "output.write_snapshots",
           "mesh.generate_disk_mesh")


def loop_window(spans):
    """Loop time and a mask of the spans inside it.

    The loop of each outermost `stepper.run` span lasts from its first step
    to its end.
    """
    outer = outermost(spans)
    top_run = [-1] * len(spans)  # enclosing outermost run; parents come first
    for i, s in enumerate(spans):
        if s[NAME] == "stepper.run" and outer[i]:
            top_run[i] = i
        elif s[PARENT] >= 0:
            top_run[i] = top_run[s[PARENT]]
    first = {}
    for i, s in enumerate(spans):
        r = top_run[i]
        if s[NAME] == "stepper.step" and r >= 0:
            first[r] = min(first.get(r, s[START]), s[START])
    mask = [r >= 0 and r != i and r in first and s[START] >= first[r]
            for i, (s, r) in enumerate(zip(spans, top_run))]
    return sum(spans[r][END] - f for r, f in first.items()), mask


def layer_metrics(spans, factor_nnz=None):
    """Per-invocation layer metrics (the keys of PER_LAYER but the step
    percentiles, trace.* and output.bytes), the step durations in ms, and
    each span name's self time inside the loop as a share of loop time.

    The named `.share` metrics are inclusive: the time of the outermost
    spans of that name inside the loop, children included, over loop time.
    """
    outer = outermost(spans)
    selfs = self_times(spans)
    total, calls, self_total = {}, {}, {}
    for s, top, st in zip(spans, outer, selfs):
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_total[name] = self_total.get(name, 0.0) + st
        if top:
            total[name] = total.get(name, 0.0) + (s[END] - s[START])
    m = {}
    for name in _TOTALS:
        m[f"{name}.ms"] = 1e3 * total.get(name, 0.0)
        m[f"{name}.calls"] = calls.get(name, 0)
    loop, in_loop = loop_window(spans)
    loop_self, loop_incl = {}, {}
    for s, inside, top, st in zip(spans, in_loop, outer, selfs):
        if inside:
            loop_self[s[NAME]] = loop_self.get(s[NAME], 0.0) + st
            if top:
                loop_incl[s[NAME]] = loop_incl.get(s[NAME], 0.0) + (s[END] - s[START])
    shares = {name: t / loop for name, t in loop_self.items()} if loop > 0 else {}

    def share(name):
        return loop_incl.get(name, 0.0) / loop if loop > 0 else 0.0

    steps = [s for s in spans if s[NAME] == "stepper.step"]
    step_ms = [1e3 * (s[END] - s[START]) for s in steps]
    newton = sum((s[ATTRS] or {}).get("newton_iters", 0) for s in steps)
    runs = [s[END] - s[START] for s, top in zip(spans, outer) if s[NAME] == "stepper.run" and top]
    m.update({
        "stepper.factor.share": share("stepper.factor"),
        "stepper.factor_per_newton": calls.get("stepper.factor", 0) / newton if newton else 0.0,
        "stepper.lu_nnz": (factor_nnz or {}).get("stepper.factor", 0),
        "stepper.lu_solve.share": share("stepper.lu_solve"),
        "stepper.step.calls": len(steps),
        "stepper.step.self_ms": 1e3 * self_total.get("stepper.step", 0.0),
        "stepper.step.self_share": shares.get("stepper.step", 0.0),
        "stepper.newton_iters": newton,
        "potentials.yosida.share": share("potentials.yosida"),
        "diagnostics.make_record.share": share("diagnostics.make_record"),
        "diagnostics.member_run.s": statistics.median(runs) if runs else 0.0,
    })
    return m, step_ms, shares
