"""Every exported name resolves, and the package imports neither
scipy.optimize nor a process pool.

A deletion that leaves its name behind in an __all__ list fails here, not
at a user's star import. scipy.optimize costs a cold start about 0.25 s
and 17 MB; the package finds its roots without it. Monte Carlo runs in
one process, so multiprocessing and concurrent.futures.process stay
unloaded too (about 3 ms of imports).
"""

import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap

import pytest

import underlaysim

_SRC = os.path.dirname(os.path.dirname(underlaysim.__file__))

# __main__ runs the CLI on import and exports nothing
_MODULES = ["underlaysim"] + [
    f"underlaysim.{info.name}" for info in pkgutil.iter_modules(underlaysim.__path__)
    if info.name != "__main__"]


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_root_searches_do_not_import_scipy_optimize():
    # a fresh interpreter: this test session imports scipy.optimize itself
    script = textwrap.dedent("""
        import sys
        import underlaysim.cli
        from underlaysim import montecarlo, power_control as pc
        params = pc.ScenarioParams()
        pr_st = pc.default_fading(params, 1.0).pr_st
        pc.controlled_power_fading(params, pr_st, 1e-3)
        pc.perf_bound_det(params, 1e-3)
        pc.perf_bound_fading(params, pr_st, 1e-3)
        montecarlo.run_trials_det(params, 1e-3, 100, 1, 0.025)
        print(sorted(m for m in sys.modules
                     if m.startswith(("scipy.optimize", "multiprocessing",
                                      "concurrent.futures.process"))))
    """)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(
                              filter(None, [_SRC, os.environ.get("PYTHONPATH")]))})
    assert done.stdout.strip() == "[]"
