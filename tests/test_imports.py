"""Start-up cost: importing psdfit loads numpy and scipy's top level only,
and each scipy submodule loads at the first call that needs it.

The suite's own process has every scipy submodule loaded already, so
these checks run in fresh interpreters."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import psdfit

ROOT = Path(__file__).resolve().parents[1]
SUBMODULES = ("scipy.optimize", "scipy.linalg", "scipy.special")
# the first call of each lazily loaded path; each loads at least one
# submodule, none of which its arguments have loaded before it
FIRST_CALLS = {
    "support_bounds": "support_bounds(PointMass(1.0), 0.5)",
    "fit_discrete": "fit_discrete(build_unet(SampleSpectrum("
                    "np.linspace(0.5, 2.5, 30), 30, 60), 'discrete'), 2)",
    "sample_spectrum": "sample_spectrum(np.linspace(0.5, 2.0, 30), 60, 1)",
    "laguerre_real": "Laguerre([1.0]).kernel(np.array([0.5, 2.0]))",
    "laguerre_complex": "Laguerre([1.0]).kernel(np.array([0.5 + 1j, 2.0 + 0.5j]))",
    # s = 1 takes the log form, s = 10 the series
    "inverse_cubic": "InverseCubic(0.5).kernel(np.array([1.0, 10.0, 10.0 + 1j]))",
    # the forward solve's seeds start at the roots of a Gauss-Legendre surrogate
    "lsd_density_curve": "lsd_density_curve(InverseCubic(0.5), 0.5, np.linspace(0.1, 3.0, 9))",
}
# floatmode "unique" prints each float with the digits that tell it from
# every other float, so equal text means equal bits
PRINT_OPTIONS = {"floatmode": "unique", "threshold": sys.maxsize}


def run_fresh(script: str) -> list:
    """Run a script in a new interpreter that imports psdfit from this tree;
    return its output lines."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src") + (os.pathsep + path if path else "")}
    done = subprocess.run([sys.executable, "-W", "error", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_import_loads_no_scipy_submodule():
    out = run_fresh("import sys\nimport psdfit, psdfit.cli\n"
                    f"print([m for m in {SUBMODULES!r} if m in sys.modules])")
    assert out == ["[]"]


@pytest.mark.parametrize("name", sorted(FIRST_CALLS))
def test_first_call_in_a_fresh_interpreter_matches_this_process(name):
    call = FIRST_CALLS[name]
    before, after, text = run_fresh(
        "import sys\nimport numpy as np\nfrom psdfit import *\n"
        f"np.set_printoptions(**{PRINT_OPTIONS!r})\n"
        f"print([m for m in {SUBMODULES!r} if m in sys.modules])\n"
        f"result = {call}\n"
        f"print([m for m in {SUBMODULES!r} if m in sys.modules])\n"
        "print(repr(result).replace('\\n', ' '))")
    assert before == "[]" and after != "[]"
    with np.printoptions(**PRINT_OPTIONS):
        here = repr(eval(call, {"np": np, **vars(psdfit)}))
    assert text == here.replace("\n", " ")


def test_no_top_level_import_of_a_scipy_submodule():
    # only function bodies run after import; everything else runs on it
    def imports(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield from (f"{node.module}.{alias.name}" for alias in node.names)
        for child in ast.iter_child_nodes(node):
            yield from imports(child)

    files = sorted((ROOT / "src" / "psdfit").glob("*.py"))
    assert len(files) > 6
    found = [(f.name, name) for f in files
             for name in imports(ast.parse(f.read_text(encoding="utf-8")))
             if name.startswith("scipy.")]
    assert found == []
