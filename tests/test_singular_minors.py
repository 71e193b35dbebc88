"""Every singular pivot block or leading minor is reported the same way.

The kernels, the block Gauss factorization and the associated families
exist only while every leading block minor is invertible, so each solve
against a pivot block or a leading minor reports a singular matrix as a
`SingularLeadingMinorError` naming the level, chained from the
`SingularMatrixError` of the solve.  The reports of the built-in cases
and the exit-2 payload depend on the level and the message, which the
tests below pin for every site.
"""

import ast
import pathlib
from fractions import Fraction

import pytest

import mghankel
from mghankel.blockops import BlockMatrix, build_moment_matrix
from mghankel.cdkernel import KernelEvaluator
from mghankel.factorize import LOWER, UPPER, invert_block_triangular, lu_factorize
from mghankel.families import (
    associated_minus,
    associated_plus,
    dual_associated_minus,
    dual_associated_plus,
)
from mghankel.harness import builtin_config
from mghankel.numerics import (
    SingularLeadingMinorError,
    SingularMatrixError,
    mat_eye,
    mat_zeros,
)

F = Fraction
SRC = pathlib.Path(mghankel.__file__).parent


# Each site builds, from the degenerate two-seed family, the call that must
# raise.  x^2 * rho_0 == rho_1 makes its leading minors of order >= 5 singular.


def singular_builtin(_fam):
    g = build_moment_matrix(builtin_config("singular").family(), 4)
    return lambda: lu_factorize(g)


def spec_family_at_depth(fam):
    g = build_moment_matrix(fam, 10)
    return lambda: lu_factorize(g)


def float_zero_pivot(_fam):
    g = BlockMatrix(1, [[[[1.0]], [[1.0]]], [[[1.0]], [[1.0]]]])
    return lambda: lu_factorize(g)


def zero_diagonal_block(orientation):
    """A 3 x 3 block-lower matrix (N=2) whose diagonal block 2 is zero."""

    def make(_fam):
        off = [[F(1), F(2)], [F(-1, 3), F(5)]]
        z = mat_zeros(2, 2)
        t = BlockMatrix(2, [[mat_eye(2), z, z], [off, mat_eye(2), z], [off, off, z]])
        t = t.transpose() if orientation == UPPER else t
        return lambda: invert_block_triangular(t, orientation)

    return make


def associated(build, level):
    def make(fam):
        g = build_moment_matrix(fam, 10)
        return lambda: build(g, level, 0)

    return make


def evaluator_call(method):
    def make(fam):
        factors = lu_factorize(build_moment_matrix(builtin_config("multigraded-12").family(), 10))
        ev = KernelEvaluator(fam, build_moment_matrix(fam, 10), factors, 5)
        return lambda: getattr(ev, method)(F(1, 3), F(1, 2))

    return make


ORDER_5 = "leading minor of order 5 is singular"

SITES = {
    "lu_factorize singular built-in": (singular_builtin, 0, None),
    "lu_factorize float zero pivot": (float_zero_pivot, 1, None),
    "lu_factorize exact at depth": (spec_family_at_depth, 4, None),
    "invert_block_triangular lower": (zero_diagonal_block(LOWER), 2, None),
    "invert_block_triangular upper": (zero_diagonal_block(UPPER), 2, None),
    "associated_plus": (associated(associated_plus, 5), 5, ORDER_5),
    "dual_associated_plus": (associated(dual_associated_plus, 5), 5, ORDER_5),
    "associated_minus": (associated(associated_minus, 4), 5, ORDER_5),
    "dual_associated_minus": (associated(dual_associated_minus, 4), 5, ORDER_5),
    "KernelEvaluator.kernel_abc": (evaluator_call("kernel_abc"), 5, ORDER_5),
    "KernelEvaluator.cd_rhs_schur": (evaluator_call("cd_rhs_schur"), 5, ORDER_5),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_singular_site_reports_level_message_and_cause(site, spec_mg_family):
    make, level, message = SITES[site]
    call = make(spec_mg_family)
    with pytest.raises(SingularLeadingMinorError) as info:
        call()
    exc = info.value
    assert type(exc) is SingularLeadingMinorError
    assert exc.level == level
    assert str(exc) == (message or "singular leading block minor at level %d" % level)
    assert type(exc.__cause__) is SingularMatrixError


def test_exact_singular_pivot_at_depth_names_its_column(spec_mg_family):
    """The level-4 pivot block, a 1 x 1 Schur complement, is zero."""
    with pytest.raises(SingularLeadingMinorError) as info:
        spec_family_at_depth(spec_mg_family)()
    assert str(info.value.__cause__) == "singular matrix (no pivot in column 0)"


def test_singular_leading_minor_is_raised_only_by_eliminate_leading():
    """One seam: no module but `numerics.eliminate_leading` builds the error."""

    def constructions(tree):
        return [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == "SingularLeadingMinorError"
        ]

    outside = {}
    seam = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = constructions(tree)
        if path.stem == "numerics":
            for func in ast.walk(tree):
                if isinstance(func, ast.FunctionDef) and func.name == "eliminate_leading":
                    seam = constructions(func)
            calls = [c for c in calls if c not in seam]
        if calls:
            outside[path.stem] = [c.lineno for c in calls]
    assert seam and outside == {}
