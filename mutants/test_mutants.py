"""The standing mutation suite: each mutant is a small wrong edit of `src`, or of an exact certificate
that a test builds, and the tests named with it must notice.

    PYTHONPATH=src python -m pytest mutants -q

It is not part of tier-1.  A mutant names a source file, a snippet that occurs exactly once in it,
the snippet's replacement, and the ids of the tests that must fail.  The runner copies `src`,
`tests` and `pyproject.toml` into a temporary directory (the tests find `src` beside them), applies
the mutant there, and runs only the named tests, in a subprocess; at least one of them must fail.
The named tests must all pass on an unmutated copy.  A refactor that moves a snippet fails here
loudly, and must re-point the mutant.

A `-0.0` imaginary part in a symbol value is made in `ENTRY_SYMBOLS` at the integer q^2 of `dirac`
only: since the table serves exact and float entries alike, a complex value at every q^2 would
fail every exact caller first, not the bit-for-bit oracle it is named for.
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
    Mutant("a boolean fixture version", "src/ncgq/fixtures.py",
           ' and type(data["version"]) is int', "",
           ("tests/test_fixtures.py::test_a_boolean_version_is_a_fixture_error",)),
    Mutant("Smith's radius without the factor n", "src/ncgq/sectors.py",
           "_root(n * n * (pr * pr + pi * pi),", "_root(pr * pr + pi * pi,",
           ("tests/test_dirac.py::TestSectorSolver"
            "::test_fraction_recomputation_gives_disjoint_disks_within_the_radii",)),
    Mutant("a Frobenius norm in the sector solver", "src/ncgq/sectors.py",
           "max(sum(a * a + b * b for _, a, b in col) for col in columns)",
           "sum(sum(a * a + b * b for _, a, b in col) for col in columns)",
           ("tests/test_dirac.py::TestSectorSolver::test_matches_the_dense_solver",
            "tests/test_dirac.py::TestSectorSolver::test_bare_operator_matches_the_dense_solver")),
    Mutant("argparse at the top of the CLI", "src/ncgq/cli.py",
           "import json\nimport math\n", "import argparse  # noqa: F401\nimport json\nimport math\n",
           ("tests/test_cli.py::TestColdImports::test_loads_no_dataclasses_and_dirac_no_algebra",)),
    Mutant("curvature images filled as m R(e_i)", "src/ncgq/riemannian.py",
           "    basis = calculus.basis_form(i, calculus.algebra.monomial(k >> 2, k & 3))\n"
           "    t = riemann_of_tensor(calculus, connection, covariant_derivative(calculus, connection, basis))\n",
           "    basis = calculus.basis_form(i)\n"
           "    t = riemann_of_tensor(calculus, connection, covariant_derivative(calculus, connection, basis))\n"
           "    t = t.left_multiply(calculus.algebra.monomial(k >> 2, k & 3))\n",
           ("tests/test_riemannian.py::TestCurvatureImages::test_each_fill_derives_one_basis_element",)),
    Mutant("a -0.0 imaginary part in a symbol value", "src/ncgq/fixtures.py",
           '"0": lambda q2: 0 * q2,', '"0": lambda q2: complex(0.0, -0.0) if type(q2) is int else 0 * q2,',
           ("tests/test_dirac.py::TestAssembly::test_assembly_matches_the_exact_oracle",)),
    Mutant("a wrong sign in the doubling certificate", "tests/test_dirac.py",
           "(alg.monomial(0, 0) - a + a ** 2 - a ** 3) * alg.beta",
           "(alg.monomial(0, 0) + a + a ** 2 - a ** 3) * alg.beta",
           ("tests/test_dirac.py::TestSearchedFamilies::test_certified_blocks_commute_with_the_certificate",)),
    Mutant("a table entry with its imaginary part negated", "src/ncgq/algebra.py",
           "for v in (key, 2 * k, a, b))", "for v in (key, 2 * k, a, -b))",
           ("tests/test_table_oracles.py::test_d_on_all_basis_elements",
            "tests/test_fill_order.py::test_every_curvature_image_is_its_formula_in_order")),
    Mutant("diagonal scalars without the minus sign", "src/ncgq/audit.py",
           '{"s11": -s[(0, 0)], "s22": -s[(1, 1)]}', '{"s11": s[(0, 0)], "s22": s[(1, 1)]}',
           ("tests/test_dirac.py::TestConnectionTerm::test_diagonal_scalars_at_i",
            "tests/test_dirac.py::TestAssembly::test_assembly_matches_the_exact_oracle")),
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
