"""Thresholds of the structure layer and the one seed live in ``sidecomp.policy``."""
import ast
import inspect
from collections import Counter
from pathlib import Path

import pytest

import sidecomp
import sidecomp.oracle
from sidecomp.policy import NumericPolicy

SRC = Path(sidecomp.__file__).parent


@pytest.mark.parametrize("module", ["commutant.py", "decomposition.py", "invariant.py",
                                    "_linalg.py", "tuples.py", "rkhs.py", "cli.py",
                                    "planted.py", "io.py"])
def test_no_small_float_literals(module):
    # a positive float literal up to 1e-3 is a tolerance or a bar: it is named
    # and documented in policy.py instead. Docstrings are strings, so the
    # literals they mention are not float constants of the tree.
    tree = ast.parse((SRC / module).read_text(), filename=module)
    found = [(node.lineno, node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and type(node.value) is float
             and 0.0 < node.value <= 1e-3]
    assert found == [], f"{module}: literal thresholds {found}; name them in policy.py"


def test_policy_seed_is_the_only_seed():
    # randomized steps draw from NumericPolicy.seed; no public function, nor
    # the oracle (not exported), takes a second seed that could shadow it
    functions = [getattr(sidecomp, name) for name in sidecomp.__all__] \
        + [obj for _, obj in inspect.getmembers(sidecomp.oracle, inspect.isfunction)]
    takes_seed = [obj.__qualname__ for obj in functions if inspect.isfunction(obj)
                  and "seed" in inspect.signature(obj).parameters]
    assert takes_seed == []


def test_policy_holds_the_four_values_callers_set():
    assert NumericPolicy._fields == ("tol", "kernel_tol", "rank_rtol", "seed")


def test_report_header_tolerances():
    # the seven keys and values of the header defined in docs/formats.md
    assert NumericPolicy().tolerances() == {
        "commute_tol": 1e-08, "idem_tol": 1e-08, "kernel_tol": 1e-08,
        "inv_tol": 1e-08, "rank_rtol": 1e-10, "eig_gap_rtol": 1e-06,
        "psd_tol": 1e-10,
    }


def test_every_policy_constant_is_used():
    # a named threshold that no module reads documents a check that no
    # longer runs; delete it together with the check
    tree = ast.parse((SRC / "policy.py").read_text(), filename="policy.py")
    constants = [target.id for node in tree.body if isinstance(node, ast.Assign)
                 for target in node.targets
                 if isinstance(target, ast.Name) and target.id.isupper()]
    used = {node.id for path in SRC.glob("*.py") if path.name != "policy.py"
            for node in ast.walk(ast.parse(path.read_text(), filename=path.name))
            if isinstance(node, ast.Name)}
    assert constants and [name for name in constants if name not in used] == []


def test_every_imported_name_is_read():
    # an import that its module never reads is dead weight; __init__.py
    # imports to re-export, so it is exempt
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=path.name)
        imported = {(alias.asname or alias.name).split(".")[0]: node.lineno
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in read]
    assert unused == []


def _reads(node):
    """Names and attributes read anywhere under ``node``."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def test_every_private_function_is_called():
    # a private function, class or method that nothing in the package reads
    # (outside its own body) is a path that no longer runs; delete it
    trees = [ast.parse(path.read_text(), filename=path.name) for path in sorted(SRC.glob("*.py"))]
    defs = [(tree, node) for tree in trees for top in tree.body
            for node in [top] + (top.body if isinstance(top, ast.ClassDef) else [])
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]
    reads = Counter(name for tree in trees for name in _reads(tree))
    unread = [node.name for _, node in defs
              if reads[node.name] == Counter(_reads(node))[node.name]]
    assert len(defs) > 30 and unread == []


def test_no_module_imports_scipy():
    # importing scipy.linalg costs a fresh process about 0.3 s for its
    # __init__, against 5 ms for its _flapack module alone; _linalg._flapack
    # finds that module by scipy's import spec and loads it by itself, so no
    # module imports scipy, at load or inside a function
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=path.name)
        for node in ast.walk(tree):
            names = [alias.name for alias in node.names] if isinstance(node, ast.Import) \
                else [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


def test_only_linalg_calls_numpy_svd():
    # every SVD goes through _linalg (svd_robust, svdvals_robust, nullspace),
    # which falls back to gesvd when gesdd does not converge
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "_linalg.py":
            continue
        tree = ast.parse(path.read_text(), filename=path.name)
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.linalg.svd"]
    assert found == []


def test_only_planted_draws_from_numpy_random():
    # the algorithmic draws come from _linalg.DrawStream; numpy.random (and
    # OpenSSL, which it loads) stays out of the spectral commands. Only the
    # planted corpora, whose streams define them, draw from numpy's
    # generators; a type annotation names no draw
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "planted.py":
            continue
        tree = ast.parse(path.read_text(), filename=path.name)
        notes = [node.annotation for node in ast.walk(tree)
                 if isinstance(node, (ast.arg, ast.AnnAssign))] \
            + [node.returns for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        in_notes = {id(n) for note in notes if note is not None for n in ast.walk(note)}
        found += [f"{path.name}:{node.lineno} {ast.unparse(node)}" for node in ast.walk(tree)
                  if id(node) not in in_notes and isinstance(node, (ast.Name, ast.Attribute))
                  and (ast.unparse(node) == "np.random"
                       or getattr(node, "id", getattr(node, "attr", None)) == "default_rng")]
        found += [f"{path.name}:{node.lineno} import {name}" for node in ast.walk(tree)
                  for name in ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                               else [node.module or ""] if isinstance(node, ast.ImportFrom)
                               else [])
                  if name.startswith("numpy.random")]
    assert found == []
