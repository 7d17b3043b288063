import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import photonmem


def test_bare_import_binds_submodules():
    # the names below are reached through the package after a bare import;
    # a fresh interpreter shows what ``import photonmem`` alone binds
    src = str(Path(photonmem.__file__).resolve().parents[1])
    code = (
        "import photonmem\n"
        "photonmem.cli.main\n"
        "photonmem.simulator.DEFECT_TOL\n"
        "photonmem.fast.recommended_fast_grid\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize(
    "module", ["photonmem"] + [f"photonmem.{layer}" for layer in
                               ("core", "kernel", "adiabatic", "fast", "simulator", "optimizer",
                                "cli")]
)
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def _imports_of(source: str, module: str) -> list[int]:
    """Lines of the import statements in ``source`` that bind ``module`` or a name from it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(n == module or n.startswith(module + ".") for n in names):
            lines.append(node.lineno)
    return lines


def _scipy_linalg_imports(source: str) -> list[int]:
    """Lines of the import statements in ``source`` that bind scipy.linalg."""
    return _imports_of(source, "scipy.linalg")


@pytest.mark.parametrize("source, found", [
    ("import scipy.linalg", [1]),
    ("import numpy\nimport scipy.linalg as sl", [2]),
    ("from scipy.linalg import eigh", [1]),
    ("from scipy.linalg.lapack import dsyev", [1]),
    ("def f():\n    from scipy import linalg", [2]),
    ('"""Uses ``scipy.linalg``."""\nfrom scipy.interpolate import CubicSpline', []),
])
def test_scipy_linalg_detector(source, found):
    assert _scipy_linalg_imports(source) == found


def test_no_module_imports_scipy_linalg():
    # scipy links its own OpenBLAS with its own thread pool; every dense solve
    # goes through numpy so that the two pools do not contend
    src = Path(photonmem.__file__).resolve().parent
    found = {p.name: _scipy_linalg_imports(p.read_text(encoding="utf-8"))
             for p in sorted(src.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


@pytest.mark.parametrize("source, module, found", [
    ("from scipy.interpolate import CubicSpline", "scipy.interpolate", [1]),
    ("import scipy.integrate as si", "scipy.integrate", [1]),
    ("from scipy import integrate", "scipy.integrate", [1]),
    ("import numpy\ndef f():\n    from scipy.interpolate import PchipInterpolator",
     "scipy.interpolate", [3]),
    ("from scipy.special import ive", "scipy.interpolate", []),
    ('"""Once ``scipy.integrate.cumulative_simpson``."""', "scipy.integrate", []),
])
def test_scipy_module_detector(source, module, found):
    assert _imports_of(source, module) == found


def test_shaping_needs_only_ive_from_scipy():
    # the shaping's energy curve is read off its Chebyshev interpolant: no
    # scipy interpolant or quadrature takes part
    path = Path(photonmem.__file__).resolve().parent / "adiabatic.py"
    source = path.read_text(encoding="utf-8")
    assert _imports_of(source, "scipy.interpolate") == []
    assert _imports_of(source, "scipy.integrate") == []
    lines = _imports_of(source, "scipy")
    bound = [f"{node.module}.{alias.name}" if isinstance(node, ast.ImportFrom) else alias.name
             for node in ast.walk(ast.parse(source))
             if isinstance(node, (ast.Import, ast.ImportFrom)) and node.lineno in lines
             for alias in node.names]
    assert bound == ["scipy.special.ive"]


_LAYERS = ("core", "kernel", "adiabatic", "fast", "simulator", "optimizer")


def test_package_exports_each_layers_all_once():
    layers = [importlib.import_module(f"photonmem.{name}") for name in _LAYERS]
    expected = ["__version__"] + [name for layer in layers for name in layer.__all__]
    assert photonmem.__all__ == expected
    assert len(set(expected)) == len(expected)
    for layer in layers:
        assert [n for n in layer.__all__ if getattr(photonmem, n) is not getattr(layer, n)] == []


@pytest.mark.parametrize("layer", _LAYERS)
def test_every_public_definition_is_exported(layer):
    mod = importlib.import_module(f"photonmem.{layer}")
    defined = [name for name, obj in vars(mod).items()
               if not name.startswith("_") and callable(obj)
               and getattr(obj, "__module__", None) == mod.__name__]
    assert sorted(set(defined) - set(mod.__all__)) == []


def _relative_imports(path: Path):
    """(line, bound module, inside a function) of each relative import in ``path``;
    ``from . import x`` binds ``x``, which is a module or a package attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    in_function = {id(inner) for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for inner in ast.walk(node) if inner is not node}
    return [(node.lineno, name, id(node) in in_function)
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
            for name in ([node.module] if node.module else [a.name for a in node.names])]


def test_layers_import_only_earlier_layers_at_the_top():
    # each layer builds on the ones before it in __init__'s order; cli alone
    # imports at call time, so that a patched simulator function reaches it
    src = Path(photonmem.__file__).resolve().parent
    init = ast.parse((src / "__init__.py").read_text(encoding="utf-8"))
    order = [alias.name for node in init.body
             if isinstance(node, ast.ImportFrom) and node.level and node.module is None
             for alias in node.names]
    assert order[:len(_LAYERS)] == list(_LAYERS) and order[-1] == "cli"
    modules = {p.stem for p in src.glob("*.py")}
    upward, late = [], []
    for rank, layer in enumerate(order):
        for line, name, inside in _relative_imports(src / f"{layer}.py"):
            if name in modules and name not in order[:rank]:
                upward.append(f"{layer}.py:{line} imports {name}")
            if inside and layer != "cli":
                late.append(f"{layer}.py:{line} imports {name} in a function")
    assert upward == []
    assert late == []


def _private_imports(source: str) -> list[tuple[str, str]]:
    """(module, name) of each private name a relative import in ``source`` binds."""
    return [(node.module, alias.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level and node.module
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.startswith("__")]


@pytest.mark.parametrize("source, found", [
    ("from .kernel import _kernel_factor, retrieval_efficiency", [("kernel", "_kernel_factor")]),
    ("def f():\n    from .optimizer import _efficiency_bounds as b",
     [("optimizer", "_efficiency_bounds")]),
    ("from . import kernel\nfrom .core import __version__", []),
    ("from numpy import _core", []),
])
def test_private_import_detector(source, found):
    assert _private_imports(source) == found


def test_kernel_factor_stays_behind_kernel():
    # the factor's consumers call kernel's functions; cli reads no optimizer internals
    src = Path(photonmem.__file__).resolve().parent
    found = {p.stem: _private_imports(p.read_text(encoding="utf-8"))
             for p in sorted(src.glob("*.py"))}
    factor = {("kernel", "_kernel_factor"), ("kernel", "_top_eigenvalue")}
    assert [m for m, names in found.items() if m != "kernel" and factor & set(names)] == []
    assert [name for module, name in found["cli"] if module == "optimizer"] == []


def _long_functions(source: str, limit: int) -> list[str]:
    """``name:line`` of each function in ``source``, nested ones too, over ``limit`` lines."""
    return [f"{node.name}:{node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.end_lineno - node.lineno + 1 > limit]


@pytest.mark.parametrize("source, found", [
    ("def f():\n    return 1", []),
    ("def f():\n    x = 1\n    return x", ["f:1"]),
    ("class C:\n    def m(self):\n        x = 1\n        return x", ["m:2"]),
    ("async def f():\n    def g():\n        pass\n    return g", ["f:1"]),
])
def test_long_function_detector(source, found):
    assert _long_functions(source, 2) == found


def test_no_function_is_over_100_lines():
    # a function that long holds several concerns; its parts are what a
    # timing, a batched variant or a rerun needs to call alone
    src = Path(photonmem.__file__).resolve().parent
    long = [f"{p.name}:{name}" for p in sorted(src.glob("*.py"))
            for name in _long_functions(p.read_text(encoding="utf-8"), 100)]
    assert long == []


def _unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` of each module-level private name in ``sources`` (module -> code)
    that no code reads outside its own definition; dunder names are left out."""
    trees = {module: ast.parse(code) for module, code in sources.items()}
    reads = [(node, node.id if isinstance(node, ast.Name) else node.attr)
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
             or isinstance(node, ast.Attribute)]
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names, inside = [node.name], {id(n) for n in ast.walk(node)}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                inside = set()
            else:
                continue
            unread += [f"{module}:{name}" for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and not any(read == name and id(n) not in inside for n, read in reads)]
    return unread


@pytest.mark.parametrize("sources, found", [
    ({"a": "def _f():\n    return 1\n\ndef g():\n    return _f()"}, []),
    ({"a": "def _f(n):\n    return _f(n - 1)"}, ["a:_f"]),
    ({"a": "_X = 1\n_Y = _X", "b": "import a\nz = a._Y"}, []),
    ({"a": "_X = 1\n__all__ = []", "b": '"""Reads ``_X``."""'}, ["a:_X"]),
    ({"a": "class _C:\n    pass", "b": "from a import _C"}, ["a:_C"]),
])
def test_unreferenced_private_name_detector(sources, found):
    assert _unreferenced_private_names(sources) == found


def test_every_private_name_is_used_in_the_package():
    # a private helper that only tests call belongs in the tests, not the package
    src = Path(photonmem.__file__).resolve().parent
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(src.glob("*.py"))}
    assert _unreferenced_private_names(sources) == []


def test_declared_numpy_floor_has_trapezoid():
    # core calls np.trapezoid, which numpy has only from 2.0
    tomllib = pytest.importorskip("tomllib")
    path = Path(photonmem.__file__).resolve().parents[2] / "pyproject.toml"
    if not path.exists():
        pytest.skip("no pyproject.toml beside the source tree")
    deps = tomllib.loads(path.read_text(encoding="utf-8"))["project"]["dependencies"]
    floor = next(dep.split(">=")[1] for dep in deps if dep.startswith("numpy>="))
    assert tuple(int(part) for part in floor.split(".")[:2]) >= (2, 0)
