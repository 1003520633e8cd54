"""Package hygiene: module-level imports only, each one used, no stale
exports, and the test run's BLAS pinned to the thread count conftest.py
sets."""

import ast
import ctypes
import os
from pathlib import Path

import numpy as np
import pytest
import scipy

import adaptive_sgp

SRC = Path(adaptive_sgp.__file__).parent


def test_no_imports_inside_functions():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno} in {func.name}"
                          for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not found, f"imports inside function bodies: {found}"


# Imports a module keeps without using them, each pinned by a test
# elsewhere, with the reason.
UNUSED_IMPORTS_ALLOWED = {
    ("adaptive.py", "kernel_matrix"):
        "perfbench/test_perfbench.py::test_tracer_installs_everywhere_and_"
        "restores asserts that adaptive binds kernel_matrix",
    ("fast_agp.py", "kernel_matrix"):
        "perfbench/test_perfbench.py::test_tracer_installs_everywhere_and_"
        "restores asserts that fast_agp binds kernel_matrix",
}


def _unused_imports(path: Path) -> set:
    """Names bound by a module-level import of ``path`` that its code never
    reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - used


def test_no_unused_imports():
    found = {(path.name, name) for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py" for name in _unused_imports(path)}
    assert found == set(UNUSED_IMPORTS_ALLOWED), (
        f"unused imports: {sorted(found - set(UNUSED_IMPORTS_ALLOWED))}; "
        f"stale allow-list entries: "
        f"{sorted(set(UNUSED_IMPORTS_ALLOWED) - found)}")


def _sites(match) -> set:
    """``(module file, top-level function)`` for every node of
    ``src/adaptive_sgp`` for which ``match(node)`` holds."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            if any(match(node) for node in ast.walk(top)):
                found.add((path.name, getattr(top, "name", "<module>")))
    return found


def _name(node):
    return getattr(node, "id", getattr(node, "attr", None))


def _callers(names) -> set:
    """Sites of every call of one of ``names``, by plain or attribute name."""
    return _sites(lambda node: isinstance(node, ast.Call)
                  and _name(node.func) in names)


def _handlers(name) -> set:
    """Sites of every ``except`` clause that names ``name``, alone or in a
    tuple."""
    return _sites(lambda node: isinstance(node, ast.ExceptHandler)
                  and node.type is not None
                  and any(_name(n) == name for n in ast.walk(node.type)))


def test_one_opening_skips_and_slides():
    # Every step opens through fast_agp._predict_and_slide, so the skip of
    # a bad sample and the slide of the window are written once.
    assert _callers({"skip_nonfinite", "windowed_add"}) == {
        ("fast_agp.py", "_predict_and_slide")}


def test_one_loop_builds_the_records():
    # Every model kind, the persistence baseline included, streams through
    # harness.run_experiment, so a record is made in one place.
    assert _callers({"StreamRecord"}) == {("harness.py", "run_experiment")}


def test_distances_only_in_the_set_up_and_kernel_matrix():
    # A window's distances are one matrix, made by bound._window_setup;
    # every other kernel is a kernel_matrix or a kernel_column, which
    # builds no distance matrix.
    assert _callers({"sq_dists"}) == {("bound.py", "_window_setup"),
                                      ("kernel.py", "kernel_matrix")}


def test_no_library_code_builds_a_kernel_matrix():
    # Vectors by differences, matrices by one product: every one-point
    # kernel is a kernel_column, and every matrix is the set-up's, so
    # kernel_matrix is left to callers of the package.
    assert _callers({"kernel_matrix"}) == set()


def test_one_guard_handles_a_failed_factorization():
    # "The stream never aborts" has one policy: a NotPsd anywhere in a
    # step's update restores the step in adaptive._update_or_restore, and no
    # other code catches it.
    assert _handlers("NotPsd") == {("adaptive.py", "_update_or_restore")}


def _writers(names) -> set:
    """Sites of every assignment, plain, augmented or annotated, to an
    attribute named one of ``names``."""
    def writes(node):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            return False
        return any(isinstance(n, ast.Attribute) and n.attr in names
                   for t in targets for n in ast.walk(t))
    return _sites(writes)


def test_only_the_state_counts_inducing_set_edits():
    # adaptive's ledger: AdaptiveState's add_inducing, replace_inducing and
    # remove_inducing each count the edit they make, so the counters hold
    # every kind's traffic and no caller counts beside them.
    assert _writers({"admitted_candidates", "removed_points"}) == {
        ("adaptive.py", "AdaptiveState")}


def test_every_export_resolves():
    missing = [name for name in adaptive_sgp.__all__
               if not hasattr(adaptive_sgp, name)]
    assert not missing, f"__all__ names with no binding: {missing}"


def _openblas_threads() -> dict:
    """Thread count each OpenBLAS bundled with numpy and scipy reports, by
    library file name (loading an already loaded library reuses it)."""
    names = ("openblas_get_num_threads", "openblas_get_num_threads64_",
             "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")
    out = {}
    for mod in (np, scipy):
        libdir = Path(mod.__file__).resolve().parent.parent / f"{mod.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for sym in names:
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = ctypes.c_int
                    out[path.name] = fn()
                    break
    return out


def test_blas_is_pinned_before_numpy_loads():
    # conftest.py sets OPENBLAS_NUM_THREADS (default 1) before numpy loads;
    # OpenBLAS reads it only when the library loads, and never runs more
    # threads than there are cores.
    counts = _openblas_threads()
    if not counts:
        pytest.skip("numpy and scipy bundle no OpenBLAS here")
    assert max(counts.values()) <= int(os.environ["OPENBLAS_NUM_THREADS"]), counts
