"""Every exported name resolves, every public definition is exported, no
package module reaches into another's private names, and the package
imports neither scipy.optimize, scipy.linalg nor a process pool.

A deletion that leaves its name behind in an __all__ list fails here, not
at a user's star import, and so does a public function or class that a
module defines but leaves out of it. A quantity that two modules need has
one public owner, so a module never imports a _name from another or reads
module._name. scipy.optimize costs a cold start about 0.25 s
and 17 MB; the package finds its roots without it. scipy.linalg cost the
first fading rate of a process 36 ms and ~6 MB; the package takes the
Gauss-Laguerre outer nodes from numpy's eigvalsh plus scipy's own Newton
polish, bit-identical on the pinned numpy/scipy, so the root searches, the
fading rates, validate, every figure and a fading sweep leave it unloaded.
Monte Carlo runs in one process, so multiprocessing and
concurrent.futures.process stay unloaded too (about 3 ms of imports).
"""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

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


@pytest.mark.parametrize("name", _MODULES)
def test_every_public_definition_is_exported(name):
    module = importlib.import_module(name)
    defined = [attr for attr, obj in vars(module).items()
               if not attr.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__]
    assert [attr for attr in defined if attr not in module.__all__] == []


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_reads(path: Path, modules: set[str]) -> list[str]:
    """`from <package module> import _name` and `<package module>._name`
    in one source file, as text."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                source = node.module  # None in `from . import dists`
            elif (node.module or "").split(".")[0] == "underlaysim":
                source = node.module.removeprefix("underlaysim").lstrip(".") or None
            else:
                continue
            for alias in node.names:
                if source is None and alias.name in modules:
                    aliases.add(alias.asname or alias.name)
                elif source is not None and _private(alias.name):
                    found.append(f"from {source} import {alias.name}")
        elif isinstance(node, ast.Import):
            aliases.update(alias.asname for alias in node.names
                           if alias.asname and alias.name.startswith("underlaysim."))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and _private(node.attr)):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    package = Path(underlaysim.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    found = {path.name: reads for path in sorted(package.glob("*.py"))
             if (reads := _private_reads(path, modules))}
    assert found == {}


def test_searches_fading_rates_and_commands_import_no_scipy_optimize_or_linalg(tmp_path):
    # a fresh interpreter: this test session imports scipy.optimize and
    # scipy.linalg itself
    script = textwrap.dedent("""
        import contextlib
        import io
        import os
        import sys
        from underlaysim import cli, montecarlo, power_control as pc, throughput as th
        params = pc.ScenarioParams()
        links = pc.default_fading(params, 1.0)
        pc.controlled_power_fading(params, links.pr_st, 1e-3)
        pc.perf_bound(params, 1e-3)
        pc.perf_bound(params, 1e-3, 1.0)
        montecarlo.run_trials_det(params, 1e-3, 100, 1, 0.025)
        th.throughput_fading(params, links, 1e-3)
        th.throughput_ideal_fading(params, links)
        th.throughput_no_pc_fading(params, links)
        th.optimize_tradeoff(params, params.gamma, 1.0)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["validate", "--trials", "2000"])
            for fig in cli.FIGURE_IDS:
                cli.main(["figure", fig, "--trials", "2000",
                          "--out", os.path.join(sys.argv[1], fig + ".csv")])
            cli.main(["sweep", "--set", "sweep.m=1, 5", "--set", "sweep.include_rs=true",
                      "--set", "sweep.tau_ms=logspace 0.1 10 3",
                      "--out", os.path.join(sys.argv[1], "sweep.csv")])
        print(sorted(m for m in sys.modules
                     if m.startswith(("scipy.optimize", "scipy.linalg", "multiprocessing",
                                      "concurrent.futures.process"))))
    """)
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(
                              filter(None, [_SRC, os.environ.get("PYTHONPATH")]))})
    assert done.stdout.strip() == "[]"
