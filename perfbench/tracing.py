"""Outside-in layer tracing: wrappers around the public functions of each
bdmlab layer, installed from the benchmark and removed again afterwards.

Every wrapped call records a span (id, name, start, end, parent id, op id)
in memory.  After the run, `summarize` turns the spans into per-name call
counts, inclusive time and self time (a span's duration minus the time its
child spans cover); the spans are written out only when the run ends.
"""

import collections
import functools
import gzip
import json
import sys
from time import monotonic


Summary = collections.namedtuple("Summary", "calls self_s total_s by_label")


class Tracer:
    def __init__(self):
        self.names = []                 # span name table; spans store indexes
        self._name_ids = {}
        self.spans = []                 # (id, name index, t0, t1, parent id, op id)
        self.labels = {}                # span id -> label, for per-class timings
        self.op_id = -1
        self._stack = []                # ids of the open spans
        self._next_id = 0
        self._restore = []              # (setter, original) pairs, undone in reverse

    def wrap(self, name, fn, on_exit=None):
        """`fn` wrapped in a span called `name`.  `on_exit(span id, args,
        kwargs, result)` runs after the span closes, on success only."""
        tracer = self
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_idx = self._name_ids[name]
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = monotonic()
                stack.pop()
                spans.append((sid, name_idx, t0, t1, parent, tracer.op_id))
            if on_exit is not None:
                on_exit(sid, args, kwargs, result)
            return result

        traced.perfbench_span = name
        return traced

    def span(self, name, fn, *args):
        """Call fn(*args) inside a root-level span (one benchmark step)."""
        return self.wrap(name, fn)(*args)

    def summarize(self, duration):
        """Per-name calls, self and inclusive time, and the durations of
        labelled spans, each span lasting duration(t0, t1)."""
        calls = collections.Counter()
        self_s = collections.defaultdict(float)
        total_s = collections.defaultdict(float)
        by_label = collections.defaultdict(list)
        covered = collections.defaultdict(float)
        for sid, name_idx, t0, t1, parent, _ in self.spans:   # children close first
            name = self.names[name_idx]
            d = duration(t0, t1)
            calls[name] += 1
            total_s[name] += d
            self_s[name] += d - covered.pop(sid, 0.0)
            if parent >= 0:
                covered[parent] += d
            if sid in self.labels:
                by_label[self.labels[sid]].append(d)
        return Summary(calls, self_s, total_s, by_label)

    # -- installing wrappers ------------------------------------------------

    def patch_function(self, modules, name, fn, on_exit=None):
        """Wrap module-level function `fn` and rebind every by-name import
        of it in `modules` (``from x import fn`` copies the reference)."""
        wrapped = self.wrap(name, fn, on_exit)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self.patch_attr(mod, attr, wrapped)
        return wrapped

    def patch_method(self, cls, attr, name, on_exit=None):
        self.patch_attr(cls, attr, self.wrap(name, vars(cls)[attr], on_exit))

    def patch_dict(self, mapping, key, wrapped):
        original = mapping[key]
        mapping[key] = wrapped
        self._restore.append((lambda v: mapping.__setitem__(key, v), original))

    def patch_attr(self, owner, attr, value):
        original = vars(owner)[attr]
        setattr(owner, attr, value)
        self._restore.append((lambda v: setattr(owner, attr, v), original))

    def uninstall(self):
        while self._restore:
            setter, original = self._restore.pop()
            setter(original)

    # -- output -------------------------------------------------------------

    def write(self, path, header, summary):
        """Spans and their summary as gzipped JSON; written once, at run end."""
        payload = dict(header)
        payload["names"] = self.names
        payload["span_fields"] = ["id", "name", "start", "end", "parent", "op"]
        payload.update(summary._asdict())
        payload["spans"] = self.spans
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(payload, fh)


class _ModuleProxy:
    """Stands in for a module object, overriding some attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def _max_bits(matrix):
    best = 0
    for row in matrix:
        for x in row:
            num = getattr(x, "numerator", x)
            den = getattr(x, "denominator", 1)
            best = max(best, abs(num).bit_length(), den.bit_length())
    return best


# (module, attribute) pairs the wrappers must reach: the by-name imports.
REQUIRED_REBINDS = [
    ("bdm", "integrate_poly"), ("estimates", "integrate_poly"),
    ("checks", "integrate_poly"),
    ("estimates", "build_element"), ("checks", "build_element"),
    ("cli", "build_element"),
    ("estimates", "map_rule"),
    ("bdm", "simplex_rule"), ("stokes", "simplex_rule"),
    ("stokes", "gauss_01"),
    ("bdm", "integrate_reference"), ("spaces", "integrate_reference"),
    ("stokes", "build_shishkin"), ("cli", "build_shishkin"),
    ("stokes", "mesh_aspect_ratio"), ("cli", "mesh_aspect_ratio"),
]


def install(tracer):
    """Wrap every traced bdmlab entry point.  Returns the captures dict the
    hooks fill: the largest bit size in an inverse, the largest K that
    `assemble` returned."""
    from bdmlab import (bdm, checks, cli, estimates, geometry, linalg,
                        polynomials, quadrature, shishkin, spaces, stokes)

    mods = [m for key, m in sys.modules.items()
            if key == "bdmlab" or key.startswith("bdmlab.")]
    captures = {"max_bits": 0, "K": None}

    def fn(module, attr, name, on_exit=None):
        return tracer.patch_function(mods, name, getattr(module, attr), on_exit)

    fn(polynomials, "integrate_reference", "polynomials.integrate_reference")
    tracer.patch_method(polynomials.Polynomial, "compose_affine",
                        "polynomials.compose_affine")

    def invert_bits(sid, args, kwargs, result):
        captures["max_bits"] = max(captures["max_bits"], _max_bits(result))

    fn(linalg, "solve", "linalg.solve")
    fn(linalg, "nullspace", "linalg.nullspace")
    fn(linalg, "invert", "linalg.invert", invert_bits)

    fn(spaces, "integrate_poly", "spaces.integrate_poly")
    fn(spaces, "basis_qk", "spaces.basis_qk")
    fn(spaces, "basis_nk", "spaces.basis_nk")

    fn(quadrature, "map_rule", "quadrature.map_rule")
    fn(quadrature, "simplex_rule", "quadrature.simplex_rule")
    fn(quadrature, "gauss_01", "quadrature.gauss_01")

    tracer.patch_method(geometry.Simplex, "facet_chart", "geometry.facet_chart")
    tracer.patch_method(geometry.Simplex, "scaled_facet_normal",
                        "geometry.scaled_facet_normal")

    def build_class(sid, args, kwargs, result):
        el = args[0]
        tracer.labels[sid] = f"bdm.build_ms.d{el.simplex.dim}k{el.order}-{el.variant}"

    tracer.patch_method(bdm.BDMElement, "__init__", "bdm.build", build_class)
    fn(bdm, "build_element", "bdm.build_element")
    tracer.patch_method(bdm.FacetMoment, "apply", "bdm.moment_apply")
    tracer.patch_method(bdm.InteriorMoment, "apply", "bdm.moment_apply")
    tracer.patch_method(bdm.BDMElement, "interpolate", "bdm.interpolate")
    tracer.patch_method(bdm.BDMElement, "field_from_dofs", "bdm.field_from_dofs")

    for attr in ("l2_norm", "abs_derivative_sum_norm", "rvp_terms", "rhs_mac"):
        fn(estimates, attr, "estimates." + attr)

    for suite, check in list(checks.ALL_CHECKS.items()):
        wrapped = tracer.patch_function(mods, "checks." + suite, check)
        tracer.patch_dict(checks.ALL_CHECKS, suite, wrapped)
    fn(cli, "main", "cli.main")

    fn(shishkin, "build_shishkin", "shishkin.build_shishkin")
    tracer.patch_method(shishkin.Mesh2D, "build_facets", "shishkin.build_facets")
    fn(shishkin, "mesh_aspect_ratio", "shishkin.mesh_aspect_ratio")

    def keep_largest_k(sid, args, kwargs, result):
        K = result[0]
        if captures["K"] is None or K.shape[0] > captures["K"].shape[0]:
            captures["K"] = K

    tracer.patch_method(stokes.DGSpace, "__init__", "stokes.DGSpace")
    fn(stokes, "assemble", "stokes.assemble", keep_largest_k)
    tracer.patch_attr(stokes, "spla", _ModuleProxy(
        stokes.spla, spsolve=tracer.wrap("stokes.spsolve", stokes.spla.spsolve)))
    fn(stokes, "solve", "stokes.solve")
    fn(stokes, "errors", "stokes.errors")
    tracer.patch_method(stokes.StokesSolution, "max_normal_jump",
                        "stokes.max_normal_jump")
    return captures
