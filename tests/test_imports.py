"""numpy loads only for the Wright-Fisher absorption solve, and scipy and
dataclasses never: `import gwbounds` and every other subcommand start
without them. `import gwbounds` loads no gwbounds module, and each README
command loads only the modules it calls, with their imports.
genetics.np / genetics.binom stay module attributes that a caller may
replace (a timing proxy, say) and wf_fixation_exact then calls. The model
layer imports nothing above it, the F3 classifier nothing above the model
layer, and neither imports anything outside the standard library; no
function imports a gwbounds module, and the package's classifier
attributes are their modules."""

import ast
import os
import subprocess
import sys

import pytest

import gwbounds
from gwbounds import genetics

PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(gwbounds.__file__)))
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

# Printed on stderr at exit: which of dataclasses, numpy and scipy the process
# loaded. dataclasses alone takes ~10 ms to import, and building its classes
# as much again.
REPORT_HEAVY = ("import atexit, sys\n"
                "atexit.register(lambda: sys.stderr.write(repr(sorted(\n"
                "    m for m in ('dataclasses', 'numpy', 'scipy') if m in sys.modules)) + '\\n'))\n")
# Printed on stderr at exit instead: the gwbounds submodules the process loaded.
REPORT_PACKAGE = ("import atexit, sys\n"
                  "atexit.register(lambda: sys.stderr.write(repr(sorted(\n"
                  "    m for m in sys.modules if m.startswith('gwbounds.'))) + '\\n'))\n")


def run_python(code, report=REPORT_HEAVY, cwd=None):
    """Run code in a fresh interpreter with the package under test first on
    PYTHONPATH; return (returncode, stdout, last stderr line: the report)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", report + code],
                          capture_output=True, text=True, env=env, cwd=cwd)
    return proc.returncode, proc.stdout, proc.stderr.splitlines()[-1]


def run_cli_module(*argv, **options):
    """`python -m gwbounds.cli argv...` in a fresh interpreter."""
    return run_python("import runpy\n"
                      f"sys.argv = ['gwbounds.cli', *{list(argv)!r}]\n"
                      "runpy.run_module('gwbounds.cli', run_name='__main__', alter_sys=True)\n",
                      **options)


@pytest.mark.parametrize("module", ["gwbounds", "gwbounds.cli"])
def test_import_loads_neither_numpy_nor_scipy(module):
    code, _, loaded = run_python(f"import {module}\n")
    assert code == 0
    assert loaded == "[]"


def test_table2_module_run_loads_neither_numpy_nor_scipy():
    code, out, loaded = run_cli_module("table", "2")
    assert code == 0
    with open(os.path.join(GOLDEN, "table2.csv")) as fh:  # both read as text
        assert out == fh.read()
    assert loaded == "[]"


@pytest.mark.parametrize("argv", [
    ("table", "1"),
    ("table", "3"),
    ("survival", "--dist", "poisson", "--m", "1.5", "--nmax", "20"),
    ("sinf", "--dist", "gp", "--s", "0.2", "--lambda", "0.9"),
    ("teps", "--dist", "binomial", "--n", "5", "--p", "0.202", "--eps", "0.01"),
    ("classify", "f3", "--p0", "0.2", "--p2", "0.2", "--p3", "0.1"),
    ("classify", "gp", "--s", "0.1", "--lambda", "0.276"),
    ("figdata", "1"),
    ("figdata", "3-volumes"),
    ("figdata", "4"),
], ids=lambda argv: "-".join(a for a in argv[:2] if not a.startswith("--")))
def test_subcommands_other_than_genetics_and_volumes_skip_numpy(argv):
    code, out, loaded = run_cli_module(*argv)
    assert code == 0 and out
    assert loaded == "[]"


# What each module imports from the package; loading one loads the closure.
PACKAGE_IMPORTS = {
    "errors": set(),
    "specfun": {"errors"},
    "pgf_core": {"errors", "specfun"},
    "classify_f3": {"errors", "pgf_core"},
    "fl_bounds": {"classify_f3", "errors", "pgf_core"},
    "classify_gp": {"errors", "fl_bounds", "pgf_core"},
    "sinf_estimates": {"errors", "pgf_core"},
    "genetics": {"errors", "pgf_core", "sinf_estimates", "specfun"},
    "cli": {"errors"},
}

# The modules whose functions each README command calls, beside the cli.
README_CALLS = {
    "gwb table 1": {"fl_bounds"},
    "gwb table 2 --out table2.csv": {"sinf_estimates"},
    "gwb table 3": {"fl_bounds", "sinf_estimates"},
    "gwb survival --dist poisson --m 1.5 --nmax 20": {"fl_bounds"},
    "gwb sinf --dist gp --s 0.2 --lambda 0.9": {"sinf_estimates"},
    "gwb sinf --dist gp --s 0.2 --lambda 0.9 --strict": {"sinf_estimates"},
    "gwb teps --dist binomial --n 5 --p 0.202 --eps 0.01": {"fl_bounds", "sinf_estimates"},
    "gwb classify f3 --p0 0.2 --p2 0.2 --p3 0.1": {"classify_f3", "fl_bounds"},
    "gwb classify gp --s 0.1 --lambda 0.276": {"classify_gp", "fl_bounds"},
    "gwb genetics --dist poisson --m 1.1 --N 1000 --s 0.1 --tau 10": {"genetics"},
    "gwb figdata 1": {"fl_bounds"},
    "gwb figdata 3-volumes": {"classify_f3"},
    "gwb figdata 4": {"fl_bounds"},
}


def loaded_with(modules):
    """The gwbounds modules that loading modules loads."""
    out, todo = set(), set(modules)
    while todo:
        name = todo.pop()
        out.add(name)
        todo |= PACKAGE_IMPORTS[name] - out
    return out


def test_readme_calls_table_lists_the_readme_commands():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        commands = [line.strip() for line in fh if line.startswith("gwb ")]
    assert commands == list(README_CALLS)


def test_import_gwbounds_loads_no_submodule():
    code, _, loaded = run_python("import gwbounds\n", report=REPORT_PACKAGE)
    assert code == 0
    assert loaded == "[]"


@pytest.mark.parametrize("command", list(README_CALLS), ids=lambda c: "-".join(
    a for a in c.split()[1:3] if not a.startswith("--")))
def test_each_command_loads_only_the_modules_it_calls(command, tmp_path):
    argv = command.split()[1:]
    code, _, loaded = run_cli_module(*argv, report=REPORT_PACKAGE, cwd=tmp_path)
    assert code == (3 if "--strict" in argv else 0)
    expected = loaded_with(README_CALLS[command] | PACKAGE_IMPORTS["cli"])
    assert loaded == repr(sorted(f"gwbounds.{m}" for m in expected))
    assert ("'gwbounds.genetics'" in loaded) == (argv[0] == "genetics")
    assert ("'gwbounds.classify_gp'" in loaded) == (argv[:2] == ["classify", "gp"])


def test_wf_solve_loads_numpy():
    code, out, loaded = run_cli_module("genetics", "--dist", "poisson", "--m", "1.1",
                                       "--N", "50", "--s", "0.1", "--tau", "2")
    assert code == 0 and out
    assert loaded == "['numpy']"


def test_genetics_dependencies_resolve_after_a_solve():
    code, out, _ = run_python(
        "from gwbounds import genetics\n"
        "before = 'np' in vars(genetics)\n"
        "genetics.wf_fixation_exact(genetics.WFModel(20, 0.1, 20.0))\n"
        "import numpy\n"
        "print(before, genetics.np is numpy, 'scipy' in sys.modules)\n")
    assert code == 0
    assert out.strip() == "False True False"


def test_unknown_genetics_attribute_raises_attribute_error():
    assert not hasattr(genetics, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        genetics.no_such_name


class _Proxy:
    """Delegates to target, except for the attributes given."""

    def __init__(self, target, **attrs):
        self._target = target
        vars(self).update(attrs)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


def solve_through_proxies(monkeypatch, wf):
    """wf_fixation_exact(wf) plain, then with genetics.binom.pmf and
    genetics.np.linalg.solve proxied: (plain result, proxied result, the
    proxied calls in order, the psi that each proxied pmf call was given)."""
    calls, given = [], []

    def counted(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            if name == "pmf":
                given.append(args[1])
            return fn(*args, **kwargs)
        return call

    plain = genetics.wf_fixation_exact(wf)
    np = genetics.np
    monkeypatch.setattr(genetics, "binom", _Proxy(
        genetics.binom, pmf=counted("pmf", genetics.binom.pmf)))
    monkeypatch.setattr(genetics, "np", _Proxy(np, linalg=_Proxy(
        np.linalg, solve=counted("solve", np.linalg.solve))))
    return plain, genetics.wf_fixation_exact(wf), calls, given


def test_proxies_set_on_the_module_are_what_the_solve_calls(monkeypatch):
    # N = 30: one panel holds every state.
    plain, proxied, calls, _ = solve_through_proxies(monkeypatch, genetics.WFModel(30, 0.1, 30.0))
    assert proxied == plain
    assert calls == ["pmf", "solve"]


def test_proxied_solve_goes_panel_by_panel(monkeypatch):
    # N = 500: each pmf call builds the rows of at most one panel of states,
    # from the last state up, so the calls cover the N - 1 states once, in
    # reverse. Panels above the first are eliminated without a solve; one
    # solve, of the panel holding state 1, gives q[0].
    n, s = 500, 0.1
    plain, proxied, calls, given = solve_through_proxies(
        monkeypatch, genetics.WFModel(n, s, float(n)))
    assert proxied == plain
    assert len(given) >= 2 and calls == ["pmf"] * len(given) + ["solve"]
    assert max(map(len, given)) <= genetics._PANEL
    x = genetics.np.arange(1, n) / n
    psi = x * (1.0 + s) / (1.0 + s * x)
    assert genetics.np.concatenate(given[::-1]).tolist() == psi.tolist()


def parse_module(name):
    with open(os.path.join(PACKAGE_ROOT, "gwbounds", f"{name}.py")) as fh:
        return ast.parse(fh.read())


MODULES = sorted(f[:-3] for f in os.listdir(os.path.join(PACKAGE_ROOT, "gwbounds"))
                 if f.endswith(".py"))


def imported_modules(tree):
    """(relative, absolute): the modules that the imports under tree name."""
    relative, absolute = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            relative.add(node.module)
        elif isinstance(node, ast.ImportFrom):
            absolute.add(node.module)
        elif isinstance(node, ast.Import):
            absolute.update(alias.name for alias in node.names)
    return relative, absolute


@pytest.mark.parametrize("module", sorted(PACKAGE_IMPORTS))
def test_package_import_table_is_the_import_graph(module):
    relative, _ = imported_modules(parse_module(module))
    assert relative == PACKAGE_IMPORTS[module]


def test_pgf_core_imports_only_stdlib_errors_and_specfun():
    relative, absolute = imported_modules(parse_module("pgf_core"))
    assert relative == {"errors", "specfun"}
    assert absolute and all(name.split(".")[0] in sys.stdlib_module_names
                            for name in absolute), absolute


@pytest.mark.parametrize("name", ["classify_f3", "classify_gp"])
def test_package_classifier_attributes_are_the_modules(name):
    assert getattr(gwbounds, name) is sys.modules[f"gwbounds.{name}"]
    assert name not in gwbounds.__all__


def test_classify_f3_imports_nothing_above_the_model_layer():
    # fl_bounds imports classify_f3 to decide an F3 law's direction.
    relative, absolute = imported_modules(parse_module("classify_f3"))
    assert relative == {"errors", "pgf_core"}
    assert absolute and all(name.split(".")[0] in sys.stdlib_module_names
                            for name in absolute), absolute


@pytest.mark.parametrize("module", MODULES)
def test_no_function_imports_a_gwbounds_module(module):
    # Imports inside a function hide a cycle in the module graph. Only
    # numpy is imported late (genetics): it is slow to load.
    for func in ast.walk(parse_module(module)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            relative, absolute = imported_modules(func)
            assert not relative, (func.name, relative)
            assert not any(name.split(".")[0] == "gwbounds" for name in absolute), func.name
