"""Layer tracing applied from outside the program.

`install()` wraps the listed public functions of each `lambdatower` module in
every module that binds them, plus a few methods on their classes, so the
program's source stays unchanged. Each call becomes a span (name, start,
end, parent) kept in memory; the child process hands an op's spans to the
runner, which tags them with the op id and writes them out when the run ends.
`Summary` turns spans into per-name call counts, self times and totals.
"""

import functools
import importlib
import time
from array import array

LAYERS = ("cyclo", "seifert", "covers", "witt", "knotforge", "infection",
          "certify", "cli")

# Defining module -> its public functions to wrap. A span is named after the
# module that defines the function, which is the layer its self time counts
# to, and the function; the four certificate drivers share one span name.
FUNCTIONS = {
    "cyclo": ("certified_sign", "compare_cos_turns"),
    "witt": ("diagonalize", "witt_invariants", "lambda_block",
             "hilbert_symbol"),
    "seifert": ("omega_signature", "sigma_details"),
    "knotforge": ("plan_bump", "build_family", "verify_family"),
    "covers": ("build_tower", "enumerate_lifts", "component_loop_path",
               "evaluate_character", "audit_tower", "verify_lift_behaviour"),
    "infection": ("lambda_T", "signature_prediction"),
    "certify": ("family_certificate", "independence_certificate",
                "z2_certificate", "tower_certificate"),
    "cli": ("main",),
}


def span_name(layer: str, function: str) -> str:
    if layer == "certify":
        return "certify.certificate"
    return f"{layer}.{function}"


# (module, class) -> {method: span name}. `__rmul__` is an alias of `__mul__`.
METHODS = {
    ("cyclo", "CyclotomicNumber"): {"__mul__": "cyclo.mul",
                                    "__rmul__": "cyclo.mul",
                                    "inverse": "cyclo.inverse"},
    ("seifert", "SignatureProfile"): {"evaluate": "seifert.profile_evaluate"},
    ("covers", "CoverGraph"): {"is_connected": "covers.is_connected"},
}


def _max(counters, name, value):
    counters[name] = max(counters.get(name, 0), value)


def _add(counters, name, value):
    counters[name] = counters.get(name, 0) + value


# Span name -> probe(counters, args, result), run after a call returns.
PROBES = {
    "cyclo.inverse": lambda c, args, res: _max(
        c, "cyclo.inverse.degree_max", len(args[0].coeffs)),
    "covers.build_tower": lambda c, args, res: _max(
        c, "covers.top_vertices_max", res.top.size),
    "infection.lambda_T": lambda c, args, res: (
        _add(c, "infection.lifts", len(res.per_lift)),
        _add(c, "infection.nonzero_lifts", res.constant_c)),
}


class Recorder:
    """Spans of the calls made since the last `take()`."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.counters = {}
        self._reset()

    def _reset(self):
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]

    def wrap(self, fn, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        probe = PROBES.get(name)
        recorder = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = recorder.stack
            i = len(recorder.start)
            recorder.name_id.append(nid)
            recorder.parent.append(stack[-1])
            recorder.end.append(0.0)
            stack.append(i)
            recorder.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.end[i] = clock()
                stack.pop()
            if probe is not None:
                probe(recorder.counters, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def take(self) -> dict:
        """Return and forget the spans and counters recorded so far."""
        spans = {"names": list(self.names), "name": self.name_id.tolist(),
                 "start": self.start.tolist(), "end": self.end.tolist(),
                 "parent": self.parent.tolist(), "counters": self.counters}
        self.counters = {}
        self._reset()
        return spans


def install(package_name: str = "lambdatower") -> Recorder:
    """Wrap the listed functions and methods of an imported package."""
    recorder = Recorder()
    modules = {layer: importlib.import_module(f"{package_name}.{layer}")
               for layer in LAYERS}
    wrappers = {}
    for layer, names in FUNCTIONS.items():
        for fname in names:
            original = getattr(modules[layer], fname)
            wrapper = recorder.wrap(original, span_name(layer, fname))
            wrappers[id(original)] = (original, wrapper)
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    for (layer, cls_name), methods in METHODS.items():
        cls = getattr(modules[layer], cls_name)
        for method, span in methods.items():
            setattr(cls, method, recorder.wrap(cls.__dict__[method], span))
    return recorder


# ---------------------------------------------------------------------------
# Span arithmetic.


def self_times(start, end, parent) -> list:
    """Each span's duration minus the time covered by its direct children.

    Spans of one thread nest, so a span's children are disjoint and their
    durations add up to the time they cover.
    """
    covered = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    return [end[i] - start[i] - covered[i] for i in range(len(start))]


def outermost(names, parent) -> list:
    """True for spans with no ancestor of the same name, so that a recursive
    call's time is counted once in a total."""
    out = []
    for i, name in enumerate(names):
        p = parent[i]
        while p >= 0 and names[p] != name:
            p = parent[p]
        out.append(p < 0)
    return out


class Summary:
    """Per-name totals over many ops' spans."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.total_s = {}
        self.counters = {}
        self.omega_diagonalizations = 0

    def add(self, spans: dict) -> None:
        names = [spans["names"][k] for k in spans["name"]]
        start, end, parent = spans["start"], spans["end"], spans["parent"]
        selfs = self_times(start, end, parent)
        outer = outermost(names, parent)
        for i, name in enumerate(names):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + selfs[i]
            if outer[i]:
                self.total_s[name] = (self.total_s.get(name, 0.0)
                                      + end[i] - start[i])
            if (name == "witt.diagonalize" and parent[i] >= 0
                    and names[parent[i]] == "seifert.omega_signature"):
                self.omega_diagonalizations += 1
        for name, value in spans["counters"].items():
            if name.endswith("_max"):
                _max(self.counters, name, value)
            else:
                _add(self.counters, name, value)

    def layer_self_s(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for name, value in self.self_s.items():
            out[name.split(".", 1)[0]] += value
        return out
