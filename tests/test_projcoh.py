"""Cohomology tables for projective spaces: closed forms, chases, reports.

Frozen oracle values and where they come from:
  h^0(P3, O(2))            = 10   (monomials of degree 2 in 4 variables)
  h^3(P3, O(-6))           = 10   (duality with O(2))
  h^2(P1xP1, O(-6,-6))     = 25   (5 x 5 via the factorwise h^1)
  h^0(P1xP1, O(3,3))       = 16   (4 x 4 sections)
  h^3(P3, Omega^1(-5))     = 36   (product formula)
  dim S_10 in 4 variables  = 286  (stars and bars: C(13,3))
  h^q(P3, Omega^1(-2))     = 0 in every q (inside the vanishing window)
"""

import pytest

from roofext.errors import AmbiguousChaseError, SchemaError
from roofext.projcoh import (
    CohTable,
    binom,
    chi_line,
    cohomology_table,
    dim_graded_piece,
    euler_chase,
    h_line,
    h_omega,
    kunneth,
    parse_sheaf,
    prop2_report,
    segre_push_table,
    serre_dual_check,
    space_dim,
)

# -- closed forms ----------------------------------------------------------------


def test_binom_extended():
    assert binom(5, 2) == 10
    assert binom(-1, 2) == 0  # lattice convention: C(x,k) = 0 unless 0 <= k <= x
    assert binom(3, -1) == 0
    assert binom(0, 0) == 1


def test_h_line_frozen_values():
    assert h_line(3, 2, 0) == 10
    assert h_line(3, -6, 3) == 10
    assert h_line(1, -2, 1) == 1
    assert h_line(2, 0, 0) == 1
    assert h_line(4, -5, 4) == 1


def test_h_line_middle_vanishing():
    for n in range(2, 5):
        for m in range(-9, 10):
            for q in range(1, n):
                assert h_line(n, m, q) == 0


def test_h_line_rejects_points():
    with pytest.raises(ValueError):
        h_line(0, 3, 0)


def test_chi_line_alternating_sum():
    for n in range(1, 5):
        for m in range(-8, 9):
            total = sum((-1) ** q * h_line(n, m, q) for q in range(n + 1))
            assert chi_line(n, m) == total


def test_h_omega_frozen_values():
    assert h_omega(3, 1, -5, 3) == 36
    assert h_omega(3, 3, 0, 3) == 1  # omega = O(-4): top cohomology
    assert h_omega(2, 1, 0, 1) == 1  # Hodge diagonal
    for q in range(4):
        assert h_omega(3, 1, -2, q) == 0


def test_h_omega_hodge_diagonal():
    for n in range(1, 5):
        for p in range(n + 1):
            for q in range(n + 1):
                want = 1 if p == q else 0
                assert h_omega(n, p, 0, q) == want


def test_h_omega_form_degree_range():
    with pytest.raises(ValueError):
        h_omega(3, 4, 0, 0)
    with pytest.raises(ValueError):
        h_omega(3, -1, 0, 0)


# -- the chase ----------------------------------------------------------------------


def test_chase_equals_bott_full_grid():
    for n in range(1, 5):
        for p in range(n + 1):
            for m in range(-8, 9):
                col = euler_chase(n, p, m)
                assert col == [h_omega(n, p, m, q) for q in range(n + 1)]


def test_chase_top_form_is_line_bundle():
    # Omega^n = O(-n-1), so the chase column must match a twisted line bundle
    for m in range(-8, 9):
        assert euler_chase(3, 3, m) == [h_line(3, m - 4, q) for q in range(4)]


def test_chase_frozen_column():
    assert euler_chase(3, 1, -5) == [0, 0, 0, 36]
    assert euler_chase(3, 1, -2) == [0, 0, 0, 0]


def test_chase_rejects_bad_degree():
    with pytest.raises(ValueError):
        euler_chase(3, 5, 0)


# -- duality and products --------------------------------------------------------------


def test_serre_duality_grid():
    for n in range(1, 5):
        for m in range(-10, 11):
            assert serre_dual_check(n, m)
            for q in range(n + 1):
                assert h_line(n, m, q) == h_line(n, -m - n - 1, n - q)


def test_serre_duality_bidegree():
    # omega on P1xP1 is O(-2,-2)
    for a in range(-6, 7):
        for b in range(-6, 7):
            for q in range(3):
                assert kunneth(1, 1, a, b, q) == kunneth(1, 1, -a - 2, -b - 2, 2 - q)


def test_kunneth_frozen_values():
    assert kunneth(1, 1, 0, 0, 0) == 1
    assert kunneth(1, 1, -6, -6, 2) == 25
    assert kunneth(1, 1, 3, 3, 0) == 16
    assert kunneth(1, 1, -2, -2, 2) == 1
    assert kunneth(1, 1, 3, -2, 1) == 4


def test_dim_graded_piece():
    assert dim_graded_piece(4, 0) == 1
    assert dim_graded_piece(4, 2) == 10
    assert dim_graded_piece(4, 10) == 286
    assert dim_graded_piece(2, 5) == 6


def test_segre_push_table():
    t = segre_push_table(0, 0, -6)
    assert t.dims() == [0, 0, 25, 0]
    assert segre_push_table(0, 0, 0).dims() == [1, 0, 0, 0]
    assert segre_push_table(0, 0, -2).dims() == [0, 0, 1, 0]


# -- tables and the parser ---------------------------------------------------------------


def test_cohomology_table_line_bundle():
    t = cohomology_table(parse_sheaf("P3", "O(2)"))
    assert t.dims() == [10, 0, 0, 0]
    assert t.chi() == 10
    assert "line bundle" in t.entries[0][1]


def test_cohomology_table_forms():
    t = cohomology_table(parse_sheaf("P3", "Omega^1(-5)"))
    assert t.dims() == [0, 0, 0, 36]
    assert "Bott" in t.entries[3][1]


def test_cohomology_table_biline_and_push():
    t = cohomology_table(parse_sheaf("P1xP1", "O(-6,-6)"))
    assert t.dims() == [0, 0, 25]
    p = cohomology_table(parse_sheaf("P3", "push(O(0,0))(-6)"))
    assert p.dims() == [0, 0, 25, 0]
    assert "projection formula" in p.entries[2][1]


def test_grothendieck_vanishing_in_tables():
    for space, sheaf in [("P2", "O(-7)"), ("P3", "Omega^2(3)"), ("P1xP1", "O(2,-5)")]:
        t = cohomology_table(parse_sheaf(space, sheaf))
        n = space_dim(space)
        assert t.dim(n + 1) == 0 and t.dim(-1) == 0
        assert all(q <= n for q in t.entries)


def test_space_dim_bounds_table_rows():
    assert space_dim("P99999") == 99999  # 100,000 rows
    with pytest.raises(SchemaError, match="over 100000 rows"):
        space_dim("P100000")


def test_parser_normalizes():
    assert parse_sheaf("P3", "O(2)(3)").describe() == "O(5)"
    assert parse_sheaf("P3", "Omega^0(7)").describe() == "O(7)"
    assert parse_sheaf("P3", "O(-2)*Omega^1").describe() == "Omega^1(-2)"
    assert parse_sheaf("P1xP1", "dual(O(3,3))").describe() == "O(-3,-3)"
    assert parse_sheaf("P1xP1", "O(1,2)(3)").describe() == "O(4,5)"
    assert parse_sheaf("P4", "Omega^4(5)").describe() == "Omega^4(5)"
    assert parse_sheaf("P2", "dual(O(1) * O(2))").describe() == "O(-3)"
    assert parse_sheaf("P3", "push(O(1,0) * O(0,1))(2)").describe() == "push(O(1,1))(2)"


@pytest.mark.parametrize("space,text", [
    ("P3", "Omega^1 * Omega^1"),
    ("P3", "dual(Omega^1)"),
    ("P1xP1", "push(O(0,0))"),
    ("P3", "push(O(1,0) * Omega^1)"),
    ("P2", "dual(O(1) * O(2)"),
    ("P3", "O(1,2)"),
    ("P1xP1", "Omega^1"),
    ("P3", "Omega^5"),
    ("P0", "O"),
    ("P3", "O(2) trailing"),
    ("P3", ""),
])
def test_parser_rejects(space, text):
    with pytest.raises(SchemaError):
        parse_sheaf(space, text)


def test_table_chi_additive_on_euler_sequences():
    """chi is additive on 0 -> Omega^p(m) -> O(m-p)^C(n+1,p) -> Omega^(p-1)(m) -> 0."""
    for n in range(1, 5):
        for p in range(1, n + 1):
            for m in range(-6, 7):
                chi_w = sum((-1) ** q * h_omega(n, p, m, q) for q in range(n + 1))
                chi_m = binom(n + 1, p) * chi_line(n, m - p)
                chi_q = sum((-1) ** q * h_omega(n, p - 1, m, q) for q in range(n + 1))
                assert chi_w == chi_m - chi_q


# -- the structured report ------------------------------------------------------------------


def test_prop2_report_terminal_values():
    rep = prop2_report()
    term = rep["terminal"]
    assert term["receiving_group_h1"] == 0
    assert term["receiving_group_h2"] == 0
    assert term["full_column_Omega^1(-5)"] == [0, 0, 0, 36]
    assert term["bott_agrees_with_chase"] is True


def test_prop2_report_flags_mismatches():
    rep = prop2_report()
    labels = [s["vs_prev"] for s in rep["chain1"]]
    assert labels.count("MISMATCH") == 2
    assert rep["summary"]["chain1_mismatches"] == 2
    # the three headline dimensions the chains walk through
    dims = {s["node"]: s["dim"] for s in rep["chain1"]}
    assert 25 in dims.values() and 16 in dims.values() and 286 in dims.values()


def test_prop2_report_chain2_keeps_both_readings():
    rep = prop2_report()
    assert all(s["dim"] is None for s in rep["chain2"])
    note = " ".join(s.get("note", "") for s in rep["chain2"])
    assert "naive dual" in note and "derived dual" in note


def test_prop2_report_chi_checks():
    rep = prop2_report()
    checks = rep["sequence_chi_checks"]
    assert checks["quadric_structure_sequence_additive_on_grid"] is True
    assert checks["euler_quotient_sequence_additive"] is True


def test_prop2_report_deterministic():
    assert prop2_report() == prop2_report()
