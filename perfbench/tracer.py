"""Per-layer spans around the public functions of each `shintani` module.

`Tracer.install()` wraps every public function a module defines, and
rebinds the wrapper wherever the package holds the original: a module's
globals (including names imported from another module) and class
attributes. The bindings are found by identity, so an importer that is not
listed anywhere is still covered; `unwrapped_bindings()` repeats the scan
and reports any binding that was missed.

Spans are aggregated as they close rather than stored: per function the
call count and inclusive time, per module the self time, i.e. span time
minus the time of the spans it called. Time spent in unwrapped code counts
toward the innermost wrapped caller. Result observers, the methods named
`_observe_<module>_<function>`, collect the work counts the per-layer
metrics need.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
from collections import Counter, defaultdict
from time import perf_counter

import oracles

# Element-wise vector and matrix helpers are called per lattice point; a
# span around each would cost more than the work it measures. Their time
# counts toward the caller.
UNWRAPPED = {
    "linalg": {"vec", "mat", "int_vec", "int_mat", "identity", "mat_vec", "mat_mul",
               "transpose", "content", "primitive_vector"},
}
# public static constructors that the metrics count; other methods and the
# p-adic arithmetic dunders stay unwrapped (tens of millions of calls)
STATIC = {"padic": {("PadicScalar", "from_rational")}}


# functions whose calls are per-layer metrics
COUNTED = (
    "cli.main", "cocycle.verify_cocycle", "cocycle.verify_equivariance",
    "cocycle.verify_measure_valued", "cocycle.phi", "cones.deformed_cone_decompose",
    "cones.wedge_decompose", "solomon_hu.pair_open_cone", "solomon_hu.pm_add",
    "solomon_hu.pm_eq", "solomon_hu.pm_is_integer_constant", "solomon_hu.act_pm",
    "testfunctions.check_vh", "testfunctions.line_slice", "testfunctions.stabilizes",
    "amice.is_measure_vh", "amice.is_measure_amice", "amice.amice_transform",
    "amice.power_moments", "padic.from_rational", "padic.rational_reconstruct",
    "linalg.det", "linalg.solve", "linalg.mat_inv", "linalg.snf",
)


def package_modules(package: str = "shintani") -> dict:
    pkg = importlib.import_module(package)
    mods = {package: pkg}
    for info in pkgutil.iter_modules(pkg.__path__):
        mods[info.name] = importlib.import_module(f"{package}.{info.name}")
    return mods


def _binding_sites(modules: dict):
    """Yield (owner, name, value, is_static) for every module global and
    class attribute of the package."""
    for mod in modules.values():
        for name, value in list(vars(mod).items()):
            yield mod, name, value, False
            if inspect.isclass(value) and value.__module__.startswith("shintani"):
                for attr, raw in list(vars(value).items()):
                    if isinstance(raw, staticmethod):
                        yield value, attr, raw.__func__, True
                    else:
                        yield value, attr, raw, False


def _filled(cell) -> bool:
    try:
        cell.cell_contents
    except ValueError:  # an empty closure cell
        return False
    return True


class Tracer:
    def __init__(self):
        self.modules = package_modules()
        self.originals: dict[int, tuple[str, str, object]] = {}
        self.wrappers: dict[int, object] = {}
        self.calls: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._op_cones: set = set()

    # -- wrapping --------------------------------------------------------

    def _targets(self):
        for short, mod in self.modules.items():
            if short == "shintani":
                continue
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")
                        and name not in UNWRAPPED.get(short, ())):
                    yield short, name, fn
            for cls_name, attr in STATIC.get(short, ()):
                yield short, attr, vars(getattr(mod, cls_name))[attr].__func__

    def install(self):
        for short, name, fn in self._targets():
            self.originals[id(fn)] = (short, name, fn)
            self.wrappers[id(fn)] = self._wrap(short, name, fn)
        self._rebind(self.wrappers)

    def uninstall(self):
        self._rebind({id(w): self.originals[key][2] for key, w in self.wrappers.items()})

    def _rebind(self, mapping: dict):
        for owner, name, value, static in list(_binding_sites(self.modules)):
            new = mapping.get(id(value))
            if new is not None:
                setattr(owner, name, staticmethod(new) if static else new)

    def uncounted(self) -> list[str]:
        """Counted functions the package no longer defines; their call
        counts read 0."""
        wrapped = {f"{short}.{name}" for short, name, _fn in self.originals.values()}
        return [key for key in COUNTED if key not in wrapped]

    def unwrapped_bindings(self) -> list[str]:
        """References in the package that still hold an original function:
        module globals and class attributes, the items of module-level
        containers, and the defaults and closures of package functions."""
        def where(owner, name):
            return f"{getattr(owner, '__name__', owner)}.{name}"

        wrappers = {id(w) for w in self.wrappers.values()}  # they close over originals
        found = []
        for owner, name, value, _static in list(_binding_sites(self.modules)):
            refs = [(where(owner, name), value)]
            if isinstance(value, dict):
                refs += [(f"{where(owner, name)}[{k!r}]", v) for k, v in value.items()]
            elif isinstance(value, (list, tuple, set, frozenset)):
                refs += [(f"{where(owner, name)}[]", v) for v in value]
            if (inspect.isfunction(value) and value.__module__.startswith("shintani")
                    and id(value) not in wrappers):
                inner = [*(value.__defaults__ or ()), *(value.__kwdefaults__ or {}).values(),
                         *(cell.cell_contents for cell in value.__closure__ or ()
                           if cell != () and _filled(cell))]
                refs += [(f"{where(owner, name)} (default or closure)", v) for v in inner]
            found += [label for label, v in refs if any(v is fn for _s, _n, fn in
                                                        self.originals.values())]
        return sorted(set(found))

    def _wrap(self, module: str, name: str, fn):
        key = f"{module}.{name}"
        observe = getattr(self, f"_observe_{module}_{name}", None)
        stack, calls, incl, self_s = self._stack, self.calls, self.incl, self.self_s

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0, module]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                parent = stack[-2][1] if len(stack) > 1 else None
                self._on_error(module, name, parent, exc)
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self_s[module] += dt - frame[0]
                incl[key] += dt
                calls[key] += 1
                if stack:
                    stack[-1][0] += dt
            if observe is not None:
                observe(args, result)
            return result

        return span

    def clear_caches(self):
        """Empty the package's memo caches, so a pass starts cold."""
        for mod in self.modules.values():
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()

    # -- observers ---------------------------------------------------------

    def begin_op(self):
        self._op_cones = set()

    def end_op(self):
        self.counts["solomon_hu.pair_open_cone.distinct"] += len(self._op_cones)

    def _on_error(self, module: str, name: str, parent: str | None, exc: Exception):
        kind = type(exc).__name__
        if module == "cones" and name == "deformed_cone_decompose" and kind == "NonGenericDeformation":
            self.counts["cones.nongeneric"] += 1
        if module == "amice" and parent != "amice" and kind == "PrecisionExhausted":
            self.counts["amice.precision_exhausted"] += 1

    def _observe_cocycle_phi(self, args, result):
        if not result.num:
            self.counts["cocycle.phi.zero"] += 1

    def _observe_cones_deformed_cone_decompose(self, args, result):
        self.counts["cones.faces"] += len(result.terms)

    def _observe_solomon_hu_pair_open_cone(self, args, result):
        self._op_cones.add(frozenset(oracles.primitive(g) for g in args[0].generators))
        self.counts["solomon_hu.num_terms"] += len(result.num.terms)
        self.counts["solomon_hu.den_factors"] += len(result.den)

    def _observe_solomon_hu_enumerate_fundamental_domain(self, args, result):
        self.counts["solomon_hu.cell_points"] += len(result)

    def _observe_amice_amice_in_basis(self, args, result):
        self.counts["amice.series_coeffs"] += len(result.coeffs)

    def _observe_padic_rational_reconstruct(self, args, result):
        if result is not None:
            self.counts["padic.reconstructed"] += 1

    # -- metrics -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics named `<module>.<what>`, with units."""
        c, k = self.calls, self.counts

        def share(num, den):
            return num / den if den else 0.0

        out = {f"{key}.calls": (c[key], "count") for key in COUNTED}
        for module in ("cli", "cocycle", "cones", "solomon_hu", "testfunctions", "amice",
                       "padic", "linalg"):
            out[f"{module}.self_s"] = (self.self_s[module], "s")
        pairs = c["solomon_hu.pair_open_cone"]
        points = k["solomon_hu.cell_points"]
        out.update({
            "cocycle.phi.zero": (share(k["cocycle.phi.zero"], c["cocycle.phi"]), "ratio"),
            "cones.faces": (k["cones.faces"], "count"),
            "cones.nongeneric": (share(k["cones.nongeneric"], c["cones.deformed_cone_decompose"]),
                                 "ratio"),
            "solomon_hu.pair_open_cone.distinct": (k["solomon_hu.pair_open_cone.distinct"], "count"),
            "solomon_hu.pair_open_cone.reuse": (
                1 - share(k["solomon_hu.pair_open_cone.distinct"], pairs) if pairs else 0.0,
                "ratio"),
            "solomon_hu.cell_points": (points, "count"),
            "solomon_hu.us_per_cell_point": (
                share(self.incl["solomon_hu.enumerate_fundamental_domain"] * 1e6, points), "us"),
            "solomon_hu.num_terms": (k["solomon_hu.num_terms"], "count"),
            "solomon_hu.den_factors": (k["solomon_hu.den_factors"], "count"),
            "amice.transform_per_moment": (
                share(c["amice.amice_transform"], c["amice.power_moments"]), "ratio"),
            "amice.series_coeffs": (k["amice.series_coeffs"], "count"),
            "amice.precision_exhausted": (k["amice.precision_exhausted"], "count"),
            "padic.reconstructed": (
                share(k["padic.reconstructed"], c["padic.rational_reconstruct"]), "ratio"),
        })
        return out
