"""The standing mutation suite: each mutant is a small wrong edit of `src`, and the tests named with
it must notice.

    PYTHONPATH=src python -m pytest mutants -q

It is not part of tier-1.  A mutant names a source file, a snippet that occurs exactly once in it,
the snippet's replacement, and the ids of the tests that must fail.  The runner copies `src`,
`tests` and `pyproject.toml` into a temporary directory (the tests find `src` beside them), applies
the mutant there, and runs only the named tests, in a subprocess; at least one of them must fail.
The named tests must all pass on an unmutated copy.  A refactor that moves a snippet fails here
loudly, and must re-point the mutant.
"""
import os
import shutil
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# killers: the ids of the tests of which at least one must fail
Mutant = namedtuple("Mutant", "name path snippet replacement killers")

MUTANTS = (
    Mutant("matcher without potential updates", "src/ncgq/dirac.py",
           "                if used[j]:\n"
           "                    u[row4col[j]] += delta\n"
           "                    v[j] -= delta\n"
           "                else:\n"
           "                    minv[j] -= delta\n",
           "                if not used[j]:\n"
           "                    minv[j] -= delta\n",
           ("tests/test_dirac.py::test_assignment_is_optimal_over_every_permutation",)),
    Mutant("dirac order without the distance key", "src/ncgq/cmd_dirac.py",
           "lam[k].real, lam[k].imag, dist[k]))", "lam[k].real, lam[k].imag))",
           ("tests/test_cli.py::TestCommands::test_dirac_eigenvalue_order_is_canonical",)),
    Mutant("antipode defect without the counit", "src/ncgq/hopf.py",
           "            sides[0][0] -= 1\n", "",
           ("tests/test_fill_order.py::test_every_antipode_defect_is_its_formula_in_order",)),
    Mutant("curvature text legs in fill order", "src/ncgq/cmd_curvature.py",
           "sorted(legs.items())", "legs.items()",
           ("tests/test_fill_order.py::test_no_output_depends_on_fill_order",)),
    Mutant("one digit of a diagonal scalar", "src/ncgq/dirac.py",
           "complex(-14 / 17, 12 / 17)", "complex(-14 / 17, 13 / 17)",
           ("tests/test_dirac.py::TestAssembly::test_assembly_matches_the_exact_oracle",)),
    Mutant("scipy at runtime", "src/ncgq/dirac.py",
           "import math\n", "import math\n\nimport scipy  # noqa: F401\n",
           ("tests/test_dirac.py::TestAssignmentSolver::test_runtime_never_imports_scipy",)),
)


def copy_tree(into: Path) -> Path:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", into)
    return into


def run_tests(tree: Path, ids) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *ids],
                          cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")},
                          capture_output=True, text=True, timeout=300)


def test_every_named_test_passes_unmutated(tmp_path):
    ids = sorted({test for mutant in MUTANTS for test in mutant.killers})
    done = run_tests(copy_tree(tmp_path), ids)
    assert done.returncode == 0, done.stdout[-3000:]


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_mutant_is_killed(mutant, tmp_path):
    tree = copy_tree(tmp_path)
    source = tree / mutant.path
    text = source.read_text(encoding="utf-8")
    assert text.count(mutant.snippet) == 1, f"the snippet must occur once in {mutant.path}"
    source.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
    done = run_tests(tree, mutant.killers)
    # pytest exits 1 exactly when tests ran and some failed
    assert done.returncode == 1, done.stdout[-3000:]
