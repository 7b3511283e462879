"""Templates, structure-polynomial emission, trace conditions, and
rationalized character tables, pinned against hand-checked reference
shapes for every involution type."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sitawim.errors import SitawimError
from sitawim.exactpoly import format_poly, linear_reduce, qq
from sitawim.varietygen import (
    INVOLUTION_TYPES,
    RationalCharTable,
    build_template,
    emit_structure_polys,
    enumerate_rational_tables,
    homogeneity_constraints,
    trace_constraints,
)

ALL_TYPES = [(t.rank, t.name) for t in INVOLUTION_TYPES.values()]


def parse_matrix(ring, rows):
    return tuple(tuple(ring.parse(cell) for cell in row) for row in rows)


def normalized_set(polys):
    return {format_poly(p.normalize()) for p in polys}


# ---------------------------------------------------------------------------
# template shapes
# ---------------------------------------------------------------------------


def test_rank2_template_shape():
    t = build_template("R2", "none")
    n = t.ring.var("n")
    assert t.degree_symbols == ("n",)
    assert t.nvars == 0
    assert t.matrices[1] == ((t.ring.zero(), n - 1), (t.ring.one(), n - 2))


def test_rank3_symmetric_template_shape():
    t = build_template("R3S", "none")
    r = t.ring
    assert t.nvars == 2
    assert t.matrices[1] == parse_matrix(
        r, [["0", "k1", "0"], ["1", "k1-1-x1", "x1"], ["0", "k1-x2", "x2"]]
    )
    assert t.matrices[2] == parse_matrix(
        r, [["0", "0", "k2"], ["0", "x1", "k2-x1"], ["1", "x2", "k2-1-x2"]]
    )


def test_rank3_asymmetric_template_shape():
    t = build_template("R3A", "none")
    r = t.ring
    # b2 = b1*, both of degree k1; a single shared structure variable
    assert t.nvars == 1
    assert t.degree_symbols == ("k1",)
    assert t.matrices[1] == parse_matrix(
        r, [["0", "0", "k1"], ["1", "k1-1-x1", "x1"], ["0", "k1-x1", "x1"]]
    )


def test_4a1_template_matches_reference_shape():
    t = build_template("4A1", "none")
    r = t.ring
    assert t.nvars == 5
    assert t.degree_symbols == ("k1", "k2")
    assert t.matrices[1] == parse_matrix(
        r,
        [
            ["0", "k1", "0", "0"],
            ["1", "k1-2*x1-1", "x1", "x1"],
            ["0", "k1-x2-x3", "x2", "x3"],
            ["0", "k1-x2-x3", "x3", "x2"],
        ],
    )
    assert t.matrices[2] == parse_matrix(
        r,
        [
            ["0", "0", "0", "k2"],
            ["0", "x1", "k2-x1-x4", "x4"],
            ["1", "x2", "k2-x2-x5-1", "x5"],
            ["0", "x3", "k2-x3-x5", "x5"],
        ],
    )
    assert t.matrices[3] == parse_matrix(
        r,
        [
            ["0", "0", "k2", "0"],
            ["0", "x1", "x4", "k2-x1-x4"],
            ["0", "x3", "x5", "k2-x3-x5"],
            ["1", "x2", "x5", "k2-x2-x5-1"],
        ],
    )


def test_4a1_pseudocyclic_keeps_two_degree_symbols():
    t = build_template("4A1", "pseudocyclic")
    assert t.nvars == 5
    assert t.degree_symbols == ("k1", "k2")


def test_4s_template_matches_reference_shape():
    t = build_template("4S", "pseudocyclic")
    r = t.ring
    assert t.nvars == 9
    assert t.degree_symbols == ("m",)
    assert t.matrices[1] == parse_matrix(
        r,
        [
            ["0", "m", "0", "0"],
            ["1", "m-1-x1-x4", "x1", "x4"],
            ["0", "m-x2-x5", "x2", "x5"],
            ["0", "m-x3-x6", "x3", "x6"],
        ],
    )
    assert t.matrices[2] == parse_matrix(
        r,
        [
            ["0", "0", "m", "0"],
            ["0", "x1", "m-x1-x7", "x7"],
            ["1", "x2", "m-1-x2-x8", "x8"],
            ["0", "x3", "m-x3-x9", "x9"],
        ],
    )
    assert t.matrices[3] == parse_matrix(
        r,
        [
            ["0", "0", "0", "m"],
            ["0", "x4", "x7", "m-x4-x7"],
            ["0", "x5", "x8", "m-x5-x8"],
            ["1", "x6", "x9", "m-1-x6-x9"],
        ],
    )


def test_5a1_template_matches_reference_shape():
    t = build_template("5A1", "pseudocyclic")
    r = t.ring
    assert t.nvars == 16
    assert t.degree_symbols == ("m",)
    assert t.matrices[1] == parse_matrix(
        r,
        [
            ["0", "m", "0", "0", "0"],
            ["1", "m-1-x1-2*x5", "x1", "x5", "x5"],
            ["0", "m-x2-2*x6", "x2", "x6", "x6"],
            ["0", "m-x3-x7-x8", "x3", "x7", "x8"],
            ["0", "m-x4-x8-x7", "x4", "x8", "x7"],
        ],
    )
    assert t.matrices[2] == parse_matrix(
        r,
        [
            ["0", "0", "m", "0", "0"],
            ["0", "x1", "m-x1-2*x9", "x9", "x9"],
            ["1", "x2", "m-1-x2-2*x10", "x10", "x10"],
            ["0", "x3", "m-x3-x11-x12", "x11", "x12"],
            ["0", "x4", "m-x4-x11-x12", "x12", "x11"],
        ],
    )
    assert t.matrices[3] == parse_matrix(
        r,
        [
            ["0", "0", "0", "0", "m"],
            ["0", "x5", "x9", "x13", "m-x5-x9-x13"],
            ["0", "x6", "x10", "x14", "m-x6-x10-x14"],
            ["1", "x7", "x11", "x15", "m-1-x7-x11-x15"],
            ["0", "x8", "x12", "x16", "m-x8-x12-x16"],
        ],
    )
    assert t.matrices[4] == parse_matrix(
        r,
        [
            ["0", "0", "0", "m", "0"],
            ["0", "x5", "x9", "m-x5-x9-x13", "x13"],
            ["0", "x6", "x10", "m-x6-x10-x14", "x14"],
            ["0", "x8", "x12", "m-x8-x12-x16", "x16"],
            ["1", "x7", "x11", "m-1-x7-x11-x15", "x15"],
        ],
    )


def test_5a2_template_matches_reference_shape():
    t = build_template("5A2", "pseudocyclic")
    r = t.ring
    assert t.nvars == 16
    assert t.degree_symbols == ("m",)
    assert t.matrices[1] == parse_matrix(
        r,
        [
            ["0", "0", "m", "0", "0"],
            ["1", "x1", "m-1-x1-x5-x9", "x5", "x9"],
            ["0", "x2", "m-x2-x6-x10", "x6", "x10"],
            ["0", "x3", "m-x3-x7-x11", "x7", "x11"],
            ["0", "x4", "m-x4-x8-x12", "x8", "x12"],
        ],
    )
    assert t.matrices[2] == parse_matrix(
        r,
        [
            ["0", "m", "0", "0", "0"],
            ["0", "m-x2-x6-x10", "x2", "x10", "x6"],
            ["1", "m-1-x1-x5-x9", "x1", "x9", "x5"],
            ["0", "m-x4-x8-x12", "x4", "x12", "x8"],
            ["0", "m-x3-x7-x11", "x3", "x11", "x7"],
        ],
    )
    assert t.matrices[3] == parse_matrix(
        r,
        [
            ["0", "0", "0", "0", "m"],
            ["0", "x5", "x10", "x13", "m-x5-x10-x13"],
            ["0", "x6", "x9", "x14", "m-x6-x9-x14"],
            ["1", "x7", "x12", "x15", "m-1-x7-x12-x15"],
            ["0", "x8", "x11", "x16", "m-x8-x11-x16"],
        ],
    )
    assert t.matrices[4] == parse_matrix(
        r,
        [
            ["0", "0", "0", "m", "0"],
            ["0", "x9", "x6", "m-x6-x9-x14", "x14"],
            ["0", "x10", "x5", "m-x5-x10-x13", "x13"],
            ["0", "x11", "x8", "m-x8-x11-x16", "x16"],
            ["1", "x12", "x7", "m-1-x7-x12-x15", "x15"],
        ],
    )


def test_5s_template_variable_count():
    t = build_template("5S", "pseudocyclic")
    assert t.nvars == 24
    assert t.degree_symbols == ("m",)
    assert len(t.ring.names) == 25


def test_build_template_rejects_bad_combinations():
    with pytest.raises(SitawimError):
        build_template("R3Z", "none")
    with pytest.raises(SitawimError):
        build_template("4S", "sideways")
    table = enumerate_rational_tables(35)[0]
    with pytest.raises(SitawimError):
        build_template("5A1", table)


# ---------------------------------------------------------------------------
# symbolic invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rank,name", ALL_TYPES)
def test_row_sums_equal_degree(rank, name):
    t = build_template(name, "none")
    for j in range(rank):
        for i in range(rank):
            acc = t.ring.zero()
            for k in range(rank):
                acc = acc + t.matrices[j][i][k]
            assert acc == t.degrees[j], (j, i)


@pytest.mark.parametrize("rank,name", ALL_TYPES)
def test_structure_constant_tensor_symmetry(rank, name):
    # lam(j,k,i) = lam(k,j,i) wherever neither position was row-sum-eliminated
    t = build_template(name, "none")
    elim = t.itype.elim
    for j in range(1, rank):
        for k in range(1, rank):
            if k == elim[j - 1] or j == elim[k - 1]:
                continue
            for i in range(1, rank):
                assert t.matrices[j][i][k] == t.matrices[k][i][j], (j, k, i)


@pytest.mark.parametrize("rank,name", ALL_TYPES)
def test_conjugate_matrices_are_star_images(rank, name):
    # lam(j*,k,i) = lam(j,k*,i*) on positions allocated on both sides,
    # wherever the star actually moves the pair (j*,k).  At star-fixed
    # pairs the identity is not wired into the template; it resurfaces as
    # an emitted generator instead.
    t = build_template(name, "none")
    star, elim = t.itype.star, t.itype.elim
    for j in range(1, rank):
        js = star[j]
        for k in range(1, rank):
            if k == elim[js - 1] or star[k] == elim[j - 1]:
                continue
            if (js, k) == (j, star[k]):
                continue
            for i in range(1, rank):
                got = t.matrices[js][i][k]
                want = t.matrices[j][star[i]][star[k]]
                assert got == want, (j, k, i)


@pytest.mark.parametrize("rank,name", ALL_TYPES)
def test_row0_and_column0_conventions(rank, name):
    t = build_template(name, "none")
    star = t.itype.star
    for j in range(1, rank):
        for k in range(rank):
            want = t.degrees[j] if k == star[j] else t.ring.zero()
            assert t.matrices[j][0][k] == want
        for i in range(rank):
            want = t.ring.one() if i == j else t.ring.zero()
            assert t.matrices[j][i][0] == want


# ---------------------------------------------------------------------------
# structure-polynomial emission
# ---------------------------------------------------------------------------

# the eight conditions coming from the (b1, b2) product of the asymmetric
# rank-4 template, as derived by hand from b1*b2 = x1*b1 + x2*b2 + x3*b2*
REFERENCE_4A1_PAIR12 = [
    "-x2*k2+x4*k1",
    "-x1*k1-x3*k2-x4*k1+k1*k2",
    "-x1*x3-x2*x4+x3^2-x3*x4+2*x3*x5-x3*k2+x4*k1",
    "x1*x3-x1*k1+x2*x4-x2*k2-x3^2+x3*x4-2*x3*x5-x4*k1+k1*k2",
    "-x1*x2+x2*x3-x2*x4-x3*x4+2*x3*x5-x3*k2+x4*k1+x3",
    "x1*x2-x1*k1-x2*x3+x2*x4-x2*k2+x3*x4-2*x3*x5-x4*k1+k1*k2-x3",
    "-x1^2+x1*x3-2*x1*x4+2*x1*x5-x2*x4+x3*x4-x3*k2+x4*k1-x4+k2",
    "x1^2-x1*x3+2*x1*x4-2*x1*x5-x1*k1+x2*x4-x2*k2-x3*x4-x4*k1+k1*k2+x4-k2",
]


def test_4a1_pair_product_contains_reference_conditions():
    t = build_template("4A1", "none")
    got = normalized_set(emit_structure_polys(t))
    want = normalized_set(t.ring.parse(s) for s in REFERENCE_4A1_PAIR12)
    assert len(want) == 8
    assert want <= got


def test_4a1_full_emission_has_16_distinct_conditions():
    t = build_template("4A1", "none")
    assert len(emit_structure_polys(t)) == 16


def test_5s_full_system_has_124_generators():
    t = build_template("5S", "pseudocyclic")
    gens = emit_structure_polys(t) + trace_constraints(t)
    assert len(normalized_set(gens)) == 124


def test_5a2_full_system_has_156_generators():
    t = build_template("5A2", "pseudocyclic")
    gens = emit_structure_polys(t) + trace_constraints(t)
    assert len(normalized_set(gens)) == 156


# ---------------------------------------------------------------------------
# trace and homogeneity conditions
# ---------------------------------------------------------------------------


def test_4a1_traces_reduce_to_x1_equals_x2():
    t = build_template("4A1", "pseudocyclic")
    got = trace_constraints(t)
    assert normalized_set(got) == normalized_set([t.ring.parse("x1-x2")])
    assert homogeneity_constraints(t) == [t.ring.parse("k1-k2")]


def test_4s_traces_match_reference_identities():
    t = build_template("4S", "pseudocyclic")
    got = normalized_set(trace_constraints(t))
    want = normalized_set(
        t.ring.parse(s)
        for s in ["x2+x6-x1-x4", "x1+x9-x2-x8", "x4+x8-x6-x9"]
    )
    assert got == want
    assert homogeneity_constraints(t) == []


def test_5a1_traces_match_reference_identities():
    t = build_template("5A1", "pseudocyclic")
    got = normalized_set(trace_constraints(t))
    want = normalized_set(
        t.ring.parse(s)
        for s in [
            "x1+2*x5-x2-2*x7",
            "x1+2*x11-x2-2*x10",
            "x5+x10+x15+1-x8-x12-x16",
        ]
    )
    assert got == want


def test_5a2_traces_match_reference_identities():
    t = build_template("5A2", "pseudocyclic")
    got = normalized_set(trace_constraints(t))
    want = normalized_set(
        t.ring.parse(s)
        for s in ["x1+x7+x12+1-x2-x6-x10", "x5+x9+x15+1-x8-x11-x16"]
    )
    assert got == want


def test_rank2_pseudocyclic_traces_are_vacuous():
    t = build_template("R2", "pseudocyclic")
    assert trace_constraints(t) == []


def test_trace_constraints_need_a_degree_regime():
    t = build_template("4A1", "none")
    with pytest.raises(SitawimError):
        trace_constraints(t)


def test_table_trace_constraints_use_table_rows():
    tbl = RationalCharTable(
        35, 4, 10, (4, 6, 12, 12), (-1, 6, -3, -3), (0, -3, 0, 0)
    )
    t = build_template("5S", tbl)
    # tr(b_j) = delta_j + a_j + t_j, here 3, 9, 9, 9
    want = normalized_set(
        t.trace(j) - (tbl.delta[j - 1] + tbl.a[j - 1] + tbl.t[j - 1])
        for j in range(1, 5)
    )
    assert normalized_set(trace_constraints(t)) == want


# ---------------------------------------------------------------------------
# end-to-end reduction of the asymmetric rank-4 system
# ---------------------------------------------------------------------------


def test_4a1_pseudocyclic_linear_reduction_endpoint():
    t = build_template("4A1", "pseudocyclic")
    gens = (
        emit_structure_polys(t)
        + trace_constraints(t)
        + homogeneity_constraints(t)
    )
    red = linear_reduce(gens, degree_symbols=("k1", "k2"))
    assert [format_poly(p) for p in red.polys] == [
        "36*x5^2 - 24*x5*k1 + 4*k1^2 + 32*x5 - 11*k1 + 7"
    ]
    chain = {name: format_poly(expr) for name, expr in red.chain}
    assert chain["x1"] == "x2"
    assert chain["x2"] == "-2*x5 + k2 - 1"


# ---------------------------------------------------------------------------
# substituting known instances gives identically-zero systems
# ---------------------------------------------------------------------------

# degree-5, order-35 instance with degrees (1, 4, 6, 12, 12)
N35_MATRICES = [
    [[0, 4, 0, 0, 0], [1, 0, 0, 0, 3], [0, 0, 0, 2, 2], [0, 0, 1, 2, 1], [0, 1, 1, 1, 1]],
    [[0, 0, 6, 0, 0], [0, 0, 0, 3, 3], [1, 0, 5, 0, 0], [0, 1, 0, 2, 3], [0, 1, 0, 3, 2]],
    [[0, 0, 0, 12, 0], [0, 0, 3, 6, 3], [0, 2, 0, 4, 6], [1, 2, 2, 4, 3], [0, 1, 3, 3, 5]],
    [[0, 0, 0, 0, 12], [0, 3, 3, 3, 3], [0, 2, 0, 6, 4], [0, 1, 3, 3, 5], [1, 1, 2, 5, 3]],
]

N35_TABLE = RationalCharTable(
    35, 4, 10, (4, 6, 12, 12), (-1, 6, -3, -3), (0, -3, 0, 0)
)


def assignment_from_matrices(template, matrices, degree_values):
    """Read one value per template variable off integer matrices
    (index j-1 in ``matrices`` holds the matrix of b_j), at every entry of
    the template that is a bare variable, checking that the entries
    sharing a variable agree."""
    assignment = dict(degree_values)
    ring = template.ring
    for j, rows in enumerate(template.matrices[1:], start=1):
        for i, row in enumerate(rows):
            for k, entry in enumerate(row):
                names = entry.variables()
                if len(names) == 1 and entry == ring.var(*names):
                    [name] = names
                    value = matrices[j - 1][i][k]
                    assert assignment.setdefault(name, value) == value, f"{name} inconsistent"
    assert set(assignment) == set(ring.names)
    return assignment


def values_at(template, point):
    """The point's values in ring order, as ``instantiate_at`` takes them."""
    return [point[name] for name in template.ring.names]


def test_n35_instance_zeroes_the_5s_table_system():
    t = build_template("5S", N35_TABLE)
    assignment = assignment_from_matrices(t, N35_MATRICES, {})
    gens = emit_structure_polys(t) + trace_constraints(t)
    assert gens, "system should not be empty"
    assert all(g.subs(assignment).is_zero for g in gens)
    mats = t.instantiate_at(values_at(t, assignment))
    assert [row[:] for row in mats[1]] == N35_MATRICES[0]
    assert [row[:] for row in mats[4]] == N35_MATRICES[3]


def test_4a1_known_point_zeroes_the_system():
    # k1 = k2 = 5 member of the cyclotomic family: x1=x2=x4=2, x3=1, x5=1
    t = build_template("4A1", "pseudocyclic")
    point = {"x1": 2, "x2": 2, "x3": 1, "x4": 2, "x5": 1, "k1": 5, "k2": 5}
    gens = (
        emit_structure_polys(t)
        + trace_constraints(t)
        + homogeneity_constraints(t)
    )
    assert all(g.subs(point).is_zero for g in gens)
    mats = t.instantiate_at(values_at(t, point))
    assert mats[1][0] == [0, 5, 0, 0]
    for j in range(1, 4):
        for row in mats[j]:
            assert sum(row) == 5
            assert all(v >= 0 for v in row)


def test_instantiate_rejects_fractional_points():
    t = build_template("R3S", "none")
    with pytest.raises(SitawimError):
        t.instantiate_at(values_at(t, {"x1": qq("1/2"), "x2": 0, "k1": 3, "k2": 3}))


# ---------------------------------------------------------------------------
# rationalized character tables
# ---------------------------------------------------------------------------


def test_n35_table_is_valid_and_enumerated():
    N35_TABLE.validate()
    tables = enumerate_rational_tables(35)
    assert N35_TABLE in tables


def test_table_validation_catches_each_violation():
    good = N35_TABLE
    bad_cases = [
        dict(m1=5),                      # m1 + 3*m2 breaks
        dict(delta=(4, 6, 12, 13)),      # degree sum breaks
        dict(a=(-1, 6, -3, -2)),         # sum(a) breaks
        dict(t=(0, -3, 0, 1)),           # column orthogonality breaks
        dict(delta=(4, 6, 12, 12), a=(-5, 6, -3, 1)),  # |a| bound breaks
        dict(m2=0),                      # positivity breaks
    ]
    for override in bad_cases:
        fields = dict(
            n=good.n, m1=good.m1, m2=good.m2,
            delta=good.delta, a=good.a, t=good.t,
        )
        fields.update(override)
        with pytest.raises(SitawimError):
            RationalCharTable(**fields).validate()


def test_enumerated_tables_all_validate_and_are_sorted():
    tables = enumerate_rational_tables(35)
    assert tables == sorted(
        tables, key=lambda tb: (tb.m1, tb.m2, tb.delta, tb.a, tb.t)
    )
    for tb in tables:
        tb.validate()
        assert tb.delta == tuple(sorted(tb.delta))
        for j in range(4):
            assert tb.delta[j] + tb.m1 * tb.a[j] + tb.m2 * tb.t[j] == 0


def test_order5_tables_all_have_unit_degrees():
    for tb in enumerate_rational_tables(5):
        assert tb.delta == (1, 1, 1, 1)


def test_enumerate_rejects_tiny_orders():
    with pytest.raises(SitawimError):
        enumerate_rational_tables(4)


def brute_force_tables(n):
    """Independent re-enumeration: no norm-budget pruning, just the raw
    bounds, with validate() as the only filter."""
    out = set()
    for m2 in range(1, (n - 2) // 3 + 1):
        m1 = n - 1 - 3 * m2
        for d1 in range(1, n):
            for d2 in range(d1, n - d1):
                for d3 in range(d2, n - d1 - d2):
                    d4 = n - 1 - d1 - d2 - d3
                    if d4 < d3:
                        continue
                    delta = (d1, d2, d3, d4)
                    for a123 in itertools.product(
                        *(range(-d, d + 1) for d in delta[:3])
                    ):
                        a4 = -1 - sum(a123)
                        if abs(a4) > d4:
                            continue
                        a = a123 + (a4,)
                        t = []
                        for dj, aj in zip(delta, a):
                            num = -(dj + m1 * aj)
                            if num % m2:
                                break
                            t.append(num // m2)
                        else:
                            tb = RationalCharTable(
                                n, m1, m2, delta, a, tuple(t)
                            ).canonical()
                            try:
                                tb.validate()
                            except SitawimError:
                                continue
                            out.add((tb.m1, tb.m2, tb.delta, tb.a, tb.t))
    return out


# Orders chosen for the branches of the integer root step on a3 (the
# quadratic in a3 left once a1 and a2 are fixed): at n = 8 and 18 a table
# comes from a double root, at n = 8 and 13 both roots are admissible and
# give tables, and every table of order 13 has gcd(m1, m2) = 2 (m1 = 6,
# m2 = 2).
@pytest.mark.parametrize("n", [5, 8, 9, 13, 14, 18, 20, 26])
def test_enumeration_matches_brute_force(n):
    got = {
        (tb.m1, tb.m2, tb.delta, tb.a, tb.t)
        for tb in enumerate_rational_tables(n)
    }
    assert got == brute_force_tables(n)


@pytest.mark.slow
@pytest.mark.parametrize("n", range(5, 41))
def test_enumeration_matches_brute_force_full_sweep(n):
    got = {
        (tb.m1, tb.m2, tb.delta, tb.a, tb.t)
        for tb in enumerate_rational_tables(n)
    }
    assert got == brute_force_tables(n)


# ---------------------------------------------------------------------------
# randomized properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rank,name", ALL_TYPES)
def test_emitted_polys_are_normalized_and_deduped(rank, name):
    t = build_template(name, "none")
    polys = emit_structure_polys(t)
    assert len(normalized_set(polys)) == len(polys)
    for p in polys:
        assert p == p.normalize()
    # deterministic construction (fresh template means a fresh ring, so
    # compare printed forms)
    again = emit_structure_polys(build_template(name, "none"))
    assert [format_poly(p) for p in polys] == [format_poly(p) for p in again]


@settings(max_examples=60, deadline=None)
@given(
    xs=st.lists(st.integers(min_value=0, max_value=30), min_size=5, max_size=5),
    k1=st.integers(min_value=1, max_value=100),
    k2=st.integers(min_value=1, max_value=100),
)
def test_instantiated_matrices_keep_shape_conventions(xs, k1, k2):
    t = build_template("4A1", "none")
    point = {f"x{i}": v for i, v in enumerate(xs, start=1)}
    point.update(k1=k1, k2=k2)
    mats = t.instantiate_at(values_at(t, point))
    star = t.itype.star
    degs = [1, k1, k2, k2]
    for j in range(1, 4):
        for i, row in enumerate(mats[j]):
            assert sum(row) == degs[j]
            assert row[0] == (1 if i == j else 0)
        assert mats[j][0] == [
            degs[j] if k == star[j] else 0 for k in range(4)
        ]
