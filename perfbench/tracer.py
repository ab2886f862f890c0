"""Spans around the calls into rdafem's layers, recorded from outside the package.

`Tracer.install` replaces every binding of each target function (in every
loaded rdafem module) with a wrapper that records a span: name, start, end
and parent span.  Spans stay in memory until the run ends.  `check_lookups`
asserts that each caller named in LOOKUPS really looks the wrapped name up,
so that no layer can silently read zero because a caller holds its own copy.
"""

import functools
import gc
import importlib
import os
import sys
import time
import weakref

# span name -> targets "module:attribute"; "Class.__init__" wraps a constructor
TARGETS = {
    "mesh.load": ("rdafem.mesh:load_mesh",),
    "mesh.build": ("rdafem.mesh:Mesh.__init__",),
    "mesh.bisect": ("rdafem.mesh:bisect",),
    "galerkin.assemble": ("rdafem.galerkin:assemble",),
    "galerkin.solve": ("rdafem.galerkin:solve",),
    "galerkin.error": ("rdafem.galerkin:energy_error_sq_elements",
                       "rdafem.galerkin:energy_error",
                       "rdafem.galerkin:energy_norm"),
    "galerkin.prolongate": ("rdafem.galerkin:prolongate",),
    "dual_system.lookup": ("rdafem.dual_system:get_dual_system",),
    "dual_system.build": ("rdafem.dual_system:DualSystem.__init__",),
    "dual_system.pi": ("rdafem.dual_system:project_pi",),
    "estimator.indicators": ("rdafem.estimator:residuals",
                             "rdafem.estimator:vertex_indicators"),
    "estimator.classic": ("rdafem.estimator:classic_indicators",),
    "estimator.osc": ("rdafem.estimator:all_oscillations",),
    "estimator.star": ("rdafem.estimator:discrete_dual_norm",),
    "adapt.loop": ("rdafem.adapt:adaptive_loop",),
    "adapt.mark": ("rdafem.adapt:dorfler_vertices", "rdafem.adapt:star_union"),
    "adapt.reference": ("rdafem.adapt:reference_errors",),
    "cli.write": ("rdafem.cli:write_csv", "rdafem.cli:write_json"),
}
CG_TARGET = "scipy.sparse.linalg:cg"

# caller "module:function" -> the path it resolves at call time
LOOKUPS = (
    ("rdafem.cli:load_mesh_arg", "rdafem.mesh:load_mesh"),
    ("rdafem.mesh:load_mesh", "rdafem.mesh:Mesh.__init__"),
    ("rdafem.mesh:bisect", "rdafem.mesh:Mesh.__init__"),
    ("rdafem.adapt:adaptive_loop", "rdafem.adapt:bisect"),
    ("rdafem.adapt:reference_errors", "rdafem.adapt:bisect"),
    ("rdafem.adapt:adaptive_loop", "rdafem.galerkin:assemble"),
    ("rdafem.cli:cmd_solve", "rdafem.galerkin:assemble"),
    ("rdafem.adapt:adaptive_loop", "rdafem.galerkin:solve"),
    ("rdafem.adapt:reference_errors", "rdafem.galerkin:solve"),
    ("rdafem.cli:cmd_solve", "rdafem.galerkin:solve"),
    ("rdafem.galerkin:solve", "scipy.sparse.linalg:cg"),
    ("rdafem.adapt:adaptive_loop", "rdafem.adapt:energy_error_sq_elements"),
    ("rdafem.adapt:reference_errors", "rdafem.adapt:energy_norm"),
    ("rdafem.cli:cmd_solve", "rdafem.galerkin:energy_error"),
    ("rdafem.cli:cmd_solve", "rdafem.galerkin:energy_norm"),
    ("rdafem.adapt:reference_errors", "rdafem.adapt:prolongate"),
    ("rdafem.adapt:adaptive_loop", "rdafem.dual_system:project_pi"),
    ("rdafem.dual_system:project_pi", "rdafem.dual_system:get_dual_system"),
    ("rdafem.dual_system:get_dual_system", "rdafem.dual_system:DualSystem.__init__"),
    ("rdafem.adapt:adaptive_loop", "rdafem.adapt:residuals"),
    ("rdafem.adapt:adaptive_loop", "rdafem.adapt:vertex_indicators"),
    ("rdafem.adapt:adaptive_loop", "rdafem.adapt:classic_indicators"),
    ("rdafem.adapt:adaptive_loop", "rdafem.adapt:all_oscillations"),
    ("rdafem.estimator:all_oscillations", "rdafem.estimator:discrete_dual_norm"),
    ("rdafem.adapt:adaptive_loop", "rdafem.adapt:dorfler_vertices"),
    ("rdafem.adapt:adaptive_loop", "rdafem.adapt:star_union"),
    ("rdafem.adapt:robustness_study", "rdafem.adapt:adaptive_loop"),
    ("rdafem.adapt:robustness_study", "rdafem.adapt:reference_errors"),
    ("rdafem.cli:cmd_solve", "rdafem.cli:write_csv"),
    ("rdafem.cli:cmd_solve", "rdafem.cli:write_json"),
    ("rdafem.cli:cmd_study", "rdafem.cli:write_csv"),
    ("rdafem.cli:cmd_study", "rdafem.cli:write_json"),
)

# per-layer metric -> (span, "incl" or "self"); self time excludes child spans
TIMES = {
    "mesh.load_s": ("mesh.load", "incl"),
    "mesh.build_s": ("mesh.build", "incl"),
    "mesh.bisect_s": ("mesh.bisect", "self"),
    "galerkin.assemble_s": ("galerkin.assemble", "incl"),
    "galerkin.solve_s": ("galerkin.solve", "self"),
    "galerkin.error_s": ("galerkin.error", "incl"),
    "galerkin.prolongate_s": ("galerkin.prolongate", "incl"),
    "dual_system.build_s": ("dual_system.build", "incl"),
    "dual_system.pi_s": ("dual_system.pi", "self"),
    "estimator.osc_s": ("estimator.osc", "incl"),
    "estimator.indicators_s": ("estimator.indicators", "incl"),
    "estimator.classic_s": ("estimator.classic", "incl"),
    "adapt.mark_s": ("adapt.mark", "incl"),
    "adapt.reference_s": ("adapt.reference", "incl"),
    "cli.write_s": ("cli.write", "incl"),
}
COUNTS = ("mesh.elements_built", "mesh.live_meshes", "galerkin.cg_iters",
          "dual_system.cache_hits", "dual_system.cache_misses",
          "estimator.star_solves", "adapt.iterations", "cli.bytes_written")


def _resolve(path):
    """'module:a.b' -> (owner object, attribute name)."""
    module, attr = path.split(":")
    owner = importlib.import_module(module)
    *parents, name = attr.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name


def _code_names(code):
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= _code_names(const)
    return names


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self._stack = []
        self._patched = []       # (owner, attribute, original)
        self.cg_iters = 0
        self.elements_built = 0
        self.bytes_written = 0
        self.iterations = 0
        self._meshes = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if after is not None:
                after(args, result)
            return result

        wrapper.span_name = name
        return wrapper

    def _after(self, span):
        if span == "mesh.build":
            def built(args, _):
                self.elements_built += len(args[0].elements)
                self._meshes.append(weakref.ref(args[0]))
            return built
        if span == "cli.write":
            def wrote(args, _):
                self.bytes_written += os.path.getsize(args[0])
            return wrote
        if span == "adapt.loop":
            def looped(_, report):
                self.iterations += len(report.records)
            return looped
        return None

    def _counting_cg(self, cg):
        @functools.wraps(cg)
        def wrapper(*args, callback=None, **kwargs):
            def count(xk):
                self.cg_iters += 1
                if callback is not None:
                    callback(xk)
            return cg(*args, callback=count, **kwargs)

        wrapper.span_name = "galerkin.cg"
        return wrapper

    def _patch(self, owner, attr, original, wrapper):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every target, in its own module and wherever it was imported."""
        for span, paths in TARGETS.items():
            for path in paths:
                owner, attr = _resolve(path)
                original = getattr(owner, attr)
                wrapper = self._wrap(span, original, self._after(span))
                if isinstance(owner, type):
                    self._patch(owner, attr, original, wrapper)
                    continue
                for module in [m for k, m in sys.modules.items()
                               if k == "rdafem" or k.startswith("rdafem.")]:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, original, wrapper)
        owner, attr = _resolve(CG_TARGET)
        original = getattr(owner, attr)
        self._patch(owner, attr, original, self._counting_cg(original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def check_lookups(self):
        """Each caller names the wrapped target, and no copy of it bypasses it."""
        problems = []
        for caller, target in LOOKUPS:
            module_name, func_name = caller.split(":")
            module = importlib.import_module(module_name)
            func = getattr(module, func_name)
            func = getattr(func, "__wrapped__", func)
            owner, attr = _resolve(target)
            name = owner.__name__ if attr == "__init__" else attr
            resolved = getattr(owner, attr)
            if name not in _code_names(func.__code__):
                problems.append(f"{caller} does not look up {name!r}")
            if not hasattr(resolved, "span_name"):
                problems.append(f"{target} is not wrapped")
            own = vars(module).get(name)
            if own is not None and own is not (owner if attr == "__init__"
                                               else resolved):
                problems.append(f"{caller} resolves its own unwrapped {name!r}")
        return problems

    # -- results ------------------------------------------------------------

    def live_meshes(self):
        gc.collect()
        return sum(ref() is not None for ref in self._meshes)

    def metrics(self):
        """Per-layer times (s) and counts from the recorded spans."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start

        def nested_in_same(i):
            name, parent = spans[i][0], spans[i][3]
            while parent >= 0:
                if spans[parent][0] == name:
                    return True
                parent = spans[parent][3]
            return False

        incl, own, calls = {}, {}, {}
        for i, (name, start, end, _) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            own[name] = own.get(name, 0.0) + (end - start) - child_time[i]
            if not nested_in_same(i):
                incl[name] = incl.get(name, 0.0) + (end - start)
        out = {metric: (incl if kind == "incl" else own).get(span, 0.0)
               for metric, (span, kind) in TIMES.items()}
        misses = sum(1 for name, _, _, parent in spans
                     if name == "dual_system.build" and parent >= 0
                     and spans[parent][0] == "dual_system.lookup")
        out.update({
            "mesh.elements_built": self.elements_built,
            "mesh.live_meshes": self.live_meshes(),
            "galerkin.cg_iters": self.cg_iters,
            "dual_system.cache_hits": calls.get("dual_system.lookup", 0) - misses,
            "dual_system.cache_misses": misses,
            "estimator.star_solves": calls.get("estimator.star", 0),
            "adapt.iterations": self.iterations,
            "cli.bytes_written": self.bytes_written,
        })
        return out
