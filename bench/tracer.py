"""Outside-in tracing of the spinphase layers, and the per-layer metrics.

The child process wraps each traced public function and rebinds every
module-level name that refers to the original function object, in every
loaded spinphase module: `build_hamiltonian` is also bound in `analysis`,
`kron_all` in `models` and `wigner`, so rebinding only the defining module
would miss the calls made through those names. Spans (name, start, end,
parent, run id, extra) stay in memory until the run ends. A traced name that
the package no longer defines is skipped, and its metrics read 0.
"""

import functools
import os
import sys
import time

# (module, function) -> extra number recorded on the span, from (args, result)
TRACED = {
    ("qcore", "kron_all"): None,
    ("qcore", "herm_eig"): lambda args, kwargs, result: _nbytes(args, kwargs, "a"),
    ("qcore", "partial_trace"): None,
    ("models", "build_hamiltonian"): None,
    ("models", "ground_state"): lambda args, kwargs, result: result.degeneracy,
    ("wigner", "equal_angle_point"): None,
    ("wigner", "kernel_multi"): None,
    ("wigner", "sphere_field"): None,
    ("analysis", "sweep"): None,
    ("analysis", "find_parity_crossings"): None,
    ("analysis", "find_jumps"): None,
    ("analysis", "find_derivative_extrema"): None,
    ("analysis", "first_derivative"): None,
    ("cli", "main"): None,
    ("cli", "cmd_phaseline"): None,
    ("cli", "cmd_sphere"): None,
    ("cli", "write_csv"): lambda args, kwargs, result: os.path.getsize(
        args[0] if args else kwargs["path"]),
    ("cli", "write_manifest"): None,
}

DETECTORS = ("analysis.find_jumps", "analysis.find_derivative_extrema",
             "analysis.first_derivative")
COMMANDS = ("cli.cmd_phaseline", "cli.cmd_sphere")

# name, unit of every per-layer metric; BENCHMARK.json lists the same names
LAYER_METRICS = (
    ("qcore.kron_all.calls", "count"), ("qcore.kron_all.self_s", "s"),
    ("qcore.herm_eig.calls", "count"), ("qcore.herm_eig.self_s", "s"),
    ("qcore.herm_eig.matrix_mb", "MiB"),
    ("qcore.partial_trace.calls", "count"), ("qcore.partial_trace.self_s", "s"),
    ("models.build_hamiltonian.calls", "count"), ("models.build_hamiltonian.self_s", "s"),
    ("models.build_hamiltonian.total_s", "s"), ("models.build_hamiltonian.per_point", "ratio"),
    ("models.ground_state.calls", "count"), ("models.ground_state.self_s", "s"),
    ("models.ground_state.degenerate_frac", "ratio"),
    ("wigner.equal_angle_point.calls", "count"), ("wigner.equal_angle_point.self_s", "s"),
    ("wigner.kernel_multi.calls", "count"), ("wigner.kernel_multi.self_s", "s"),
    ("wigner.sphere_field.calls", "count"), ("wigner.sphere_field.self_s", "s"),
    ("analysis.sweep.self_s", "s"), ("analysis.find_parity_crossings.self_s", "s"),
    ("analysis.find_parity_crossings.builds", "count"), ("analysis.detectors.self_s", "s"),
    ("cli.cmd.self_s", "s"), ("cli.write_csv.self_s", "s"), ("cli.write_csv.bytes", "bytes"),
    ("cli.write_manifest.self_s", "s"),
    ("trace.run_s", "s"), ("trace.overhead_frac", "ratio"),
)


def _nbytes(args, kwargs, name):
    matrix = args[0] if args else kwargs[name]
    return getattr(matrix, "nbytes", 0)


class Tracer:
    """Span recorder for one child process; `install` wraps the package in place."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1, run id, extra]
        self._stack = []

    def wrap(self, name, fn, extra=None):
        spans, stack, run_id = self.spans, self._stack, self.run_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1, run_id, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if extra is not None:
                try:
                    span[5] = extra(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, OSError, TypeError):
                    pass  # the traced function changed shape; its extra reads 0
            return result

        return traced

    def install(self, package="spinphase"):
        """Wrap every traced function that exists; return the names wrapped."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        wrapped = []
        for (mod_name, fn_name), extra in TRACED.items():
            home = sys.modules.get(f"{package}.{mod_name}")
            original = getattr(home, fn_name, None)
            if not callable(original):
                continue
            traced = self.wrap(f"{mod_name}.{fn_name}", original, extra)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
            wrapped.append(f"{mod_name}.{fn_name}")
        return wrapped


def self_times(spans):
    """Per span: duration minus the summed duration of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans, points):
    """Per-layer metrics of one traced run; `points` is the sweep's grid size."""
    own = self_times(spans)
    calls, self_s, total_s, extra = {}, {}, {}, {}
    for s, t in zip(spans, own):
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + t
        total_s[name] = total_s.get(name, 0.0) + (s[2] - s[1])
        extra.setdefault(name, []).append(s[5])

    def under(index, ancestor):
        parent = spans[index][3]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                return True
            parent = spans[parent][3]
        return False

    def extras(name):
        return [x for x in extra.get(name, []) if x is not None]

    builds = calls.get("models.build_hamiltonian", 0)
    ground = extras("models.ground_state")
    m = {
        "qcore.herm_eig.matrix_mb": sum(extras("qcore.herm_eig")) / 2**20,
        "models.build_hamiltonian.total_s": total_s.get("models.build_hamiltonian", 0.0),
        "models.build_hamiltonian.per_point": builds / points,
        "models.ground_state.degenerate_frac":
            sum(1 for g in ground if g > 1) / len(ground) if ground else 0.0,
        "analysis.find_parity_crossings.builds": sum(
            1 for i, s in enumerate(spans) if s[0] == "models.build_hamiltonian"
            and under(i, "analysis.find_parity_crossings")),
        "analysis.detectors.self_s": sum(self_s.get(n, 0.0) for n in DETECTORS),
        "cli.cmd.self_s": sum(self_s.get(n, 0.0) for n in COMMANDS),
        "cli.write_csv.bytes": sum(extras("cli.write_csv")),
    }
    for name, unit in LAYER_METRICS:
        if name in m or name.startswith("trace."):
            continue
        fn, kind = name.rsplit(".", 1)
        m[name] = calls.get(fn, 0) if kind == "calls" else self_s.get(fn, 0.0)
    return m
