"""Layer tracer for underlaysim, installed from outside the package.

Every public function of the six layer modules (and the CSV writer of the
cli, for row and byte counts) is replaced by a wrapper in every module of
the package that holds a reference to it. The `from ... import` bindings in
cli, throughput and montecarlo are separate references: a wrapper set only
on the defining module would miss those call sites and fold the callee's
time into its caller's self time, so `unwrapped_bindings` scans for any
original function object left behind.

Each wrapped call records one span (name, start, end, parent span, operation
id) in flat arrays kept in memory; `write` saves them at the end of the run.
Self time is a span's duration minus the durations of its direct child
spans, accumulated as spans close.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import os
import sys
import time

import numpy as np

LAYERS = ("specfun", "dists", "power_control", "throughput", "montecarlo", "cli")

# spans of these functions are also summed under one group name
GROUPS = {
    "dists.received_power_law": "dists.estimator_laws",
    "dists.pilot_gain_law": "dists.estimator_laws",
    "dists.interference_power_law": "dists.estimator_laws",
    "dists.gamma_match": "dists.estimator_laws",
}

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _per_layer_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return tuple((m["name"], m["unit"]) for m in json.load(fh)["per_layer"])


# metrics reported by a traced run, in output order: (name, unit), as
# BENCHMARK.json lists them under per_layer
LAYER_METRICS = _per_layer_metrics()

# functions whose result size is counted as `<name>.elements`
_ELEMENT_COUNTED = ("specfun.reg_upper_gamma", "specfun.inv_reg_upper_gamma",
                    "dists.capacity_pdf", "dists.nakagami_gain_quantile")


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "underlaysim" or name.startswith("underlaysim."))]


def layer_functions():
    """Map each public layer function object to its `<layer>.<name>`."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"underlaysim.{layer}"]
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                out[obj] = f"{layer}.{attr}"
    return out


class Tracer:
    """Spans and counts for calls into the underlaysim layers.

    `install` wraps; `uninstall` restores the original bindings. Spans of
    one workload operation share the id set by `begin_op`.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.span_parent = array.array("q")
        self.span_op = array.array("i")
        self._stack: list[int] = []
        self._child: list[float] = []
        self._active: list[int] = []
        self.op = -1
        self.calls: list[int] = []
        self.incl: list[float] = []
        self.self_s: list[float] = []
        self.counts: dict[str, float] = {}
        self.originals: dict = {}
        self._patched: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.incl.append(0.0)
            self.self_s.append(0.0)
            self._active.append(0)
        return self._ids[name]

    def begin_op(self, op: int) -> None:
        self.op = op

    def count(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def active(self, name: str) -> bool:
        return self._active[self._id(name)] > 0

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        self._active[nid] += 1
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, nid: int) -> None:
        end = time.perf_counter()
        self.span_end[idx] = end
        self._stack.pop()
        child = self._child.pop()
        dur = end - self.span_start[idx]
        self._active[nid] -= 1
        self.calls[nid] += 1
        self.incl[nid] += dur
        self.self_s[nid] += dur - child
        if self._child:
            self._child[-1] += dur

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook.before(tracer, args, kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if hook is not None:
                    hook.failed(tracer, exc)
                raise
            finally:
                tracer._close(idx, nid)
            if hook is not None:
                hook.after(tracer, args, result)
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def _wrap_csv_writer(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(out_path, meta, header, rows):
            fn(out_path, meta, header, rows)
            tracer.count("cli.rows_written", len(rows))
            tracer.count("cli.bytes_written", os.path.getsize(out_path))

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = layer_functions()
        wrappers = {fn: self._wrap(fn, name) for fn, name in targets.items()}
        cli = sys.modules["underlaysim.cli"]
        writer = cli._write_csv
        targets[writer] = "cli._write_csv"
        wrappers[writer] = self._wrap_csv_writer(writer)
        self.originals = targets
        for mod in _package_modules():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def unwrapped_bindings(self) -> list[str]:
        """Package-module attributes still bound to an original function."""
        out = []
        for mod in _package_modules():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in self.originals:
                    out.append(f"{mod.__name__}.{attr}")
        return sorted(out)

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Cumulative per-name totals and counts, for differencing per op."""
        snap = dict(self.counts)
        for nid, name in enumerate(self.names):
            snap[f"{name}.calls"] = self.calls[nid]
            snap[f"{name}.s"] = self.incl[nid]
            snap[f"{name}.self_s"] = self.self_s[nid]
            group = GROUPS.get(name)
            if group:
                for key in ("calls", "s", "self_s"):
                    snap[f"{group}.{key}"] = (snap.get(f"{group}.{key}", 0)
                                              + snap[f"{name}.{key}"])
        return snap

    def write(self, path_prefix: str, summary: dict) -> None:
        """Save spans (npz) and the summary (json) under path_prefix."""
        np.savez_compressed(
            path_prefix + ".spans.npz",
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int32))
        with open(path_prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)


def layer_metrics(delta: dict[str, float], op_wall: float) -> dict[str, float]:
    """Per-layer metrics of one operation from a snapshot difference."""
    def get(key):
        return float(delta.get(key, 0.0))

    out = {}
    for name, _unit in LAYER_METRICS:
        if name.endswith("_share") or name.endswith("_per_s"):
            continue
        out[name] = get(name)
    mc_s = get("montecarlo.run_trials_det.s") + get("montecarlo.run_trials_fading.s")
    trials = get("montecarlo.run_trials_det.trials") + get("montecarlo.run_trials_fading.trials")
    out["montecarlo.trials_per_s"] = trials / mc_s if mc_s > 0 else 0.0
    out["montecarlo.estimator_samples_per_s"] = (
        get("montecarlo.estimator_samples") / mc_s if mc_s > 0 else 0.0)
    for layer in LAYERS:
        own = sum(v for k, v in delta.items()
                  if k.startswith(layer + ".") and k.endswith(".self_s")
                  and k[:-len(".self_s")] not in _GROUP_NAMES)
        out[f"{layer}.self_share"] = own / op_wall
    return out


_GROUP_NAMES = frozenset(GROUPS.values())


class _Hook:
    def before(self, tracer, args, kwargs):
        return args, kwargs

    def after(self, tracer, args, result):
        pass

    def failed(self, tracer, exc):
        pass


class _Elements(_Hook):
    def __init__(self, name):
        self.key = name + ".elements"

    def after(self, tracer, args, result):
        tracer.count(self.key, np.size(result))


class _Draws(_Hook):
    def after(self, tracer, args, result):
        tracer.count("dists.sample_ncx2.draws", np.size(result))


class _Trials(_Hook):
    def __init__(self, name):
        self.key = name + ".trials"

    def after(self, tracer, args, result):
        # samples each trial's three estimators draw: n + 2 + n, n = tau f_s
        n = round(result.tau * args[0].f_s)
        tracer.count(self.key, result.n_trials)
        tracer.count("montecarlo.estimator_samples", result.n_trials * (2 * n + 2))


class _Regime(_Hook):
    def after(self, tracer, args, result):
        key = result.regime.value.replace("-", "_")
        tracer.count(f"power_control.controlled_power_det.{key}", 1)


class _Integrate(_Hook):
    """Counts integrand points and integrals made for the fading power rule."""

    def before(self, tracer, args, kwargs):
        if tracer.active("power_control.controlled_power_fading"):
            tracer.count("power_control.controlled_power_fading.outage_evals", 1)
        f = args[0]

        def counted(x):
            tracer.count("specfun.integrate.points", np.size(x))
            return f(x)

        return (counted,) + tuple(args[1:]), kwargs


class _FindRoot(_Hook):
    def before(self, tracer, args, kwargs):
        g = args[0]

        def counted(x):
            tracer.count("specfun.find_root.evals", 1)
            return g(x)

        return (counted,) + tuple(args[1:]), kwargs

    def failed(self, tracer, exc):
        if isinstance(exc, sys.modules["underlaysim.specfun"].BracketError):
            tracer.count("specfun.find_root.bracket_errors", 1)


class _RateEval(_Hook):
    def before(self, tracer, args, kwargs):
        if tracer.active("throughput.optimize_tradeoff"):
            tracer.count("throughput.optimize_tradeoff.rate_evals", 1)
        return args, kwargs


_HOOKS = {name: _Elements(name) for name in _ELEMENT_COUNTED}
_HOOKS.update({
    "dists.sample_ncx2": _Draws(),
    "montecarlo.run_trials_det": _Trials("montecarlo.run_trials_det"),
    "montecarlo.run_trials_fading": _Trials("montecarlo.run_trials_fading"),
    "power_control.controlled_power_det": _Regime(),
    "specfun.integrate": _Integrate(),
    "specfun.find_root": _FindRoot(),
})
_HOOKS.update({f"throughput.{name}": _RateEval() for name in (
    "throughput_det", "throughput_fading", "throughput_ideal_det",
    "throughput_ideal_fading", "throughput_no_pc_det", "throughput_no_pc_fading")})


def self_check(tracer: Tracer, metrics: dict[str, float], workload: str,
               grid_rows: int | None) -> list[str]:
    """Problems that make a traced run's layer numbers untrustworthy."""
    problems = [f"unwrapped binding {b}" for b in tracer.unwrapped_bindings()]
    mc_calls = (metrics["montecarlo.run_trials_det.calls"]
                + metrics["montecarlo.run_trials_fading.calls"])
    if workload != "validate" and mc_calls != 0:
        problems.append(f"montecarlo called {mc_calls:g} times on {workload}")
    if workload == "analytic":
        cpf = metrics["power_control.controlled_power_fading.calls"]
        tf = metrics["throughput.throughput_fading.calls"]
        if cpf != tf:
            problems.append(f"controlled_power_fading.calls {cpf:g} != "
                            f"throughput_fading.calls {tf:g}")
    if grid_rows is not None and metrics["cli.rows_written"] != grid_rows:
        problems.append(f"cli.rows_written {metrics['cli.rows_written']:g} "
                        f"!= grid size {grid_rows}")
    return problems
