import math

import numpy as np
import pytest

import bubbletower as bt
from bubbletower import spectral
from bubbletower.mesh import apply_radial_laplacian

from conftest import different_grids


def test_log_grid_midpoint_and_endpoints():
    g = bt.build_grid(1e-2, 1.0, 200)
    assert g.nodes[0] == 1e-2
    assert g.nodes[-1] == 1.0
    assert abs(g.nodes[100] - 0.1) <= 1e-15
    assert np.max(np.abs(np.diff(np.log10(g.nodes)) - 0.01)) <= 1e-12  # 100 nodes per decade


def test_uniform_grid_formula_exact():
    g = bt.build_grid(0.5, 1.0, 16, grading="uniform")
    for j in range(17):
        assert g.nodes[j] == 0.5 + j / 32


def test_grid_validation():
    with pytest.raises(ValueError):
        bt.build_grid(0.1, 1.0, 8)  # too coarse
    with pytest.raises(ValueError):
        bt.build_grid(1.0, 0.5, 64)  # inner >= outer
    with pytest.raises(ValueError):
        bt.build_grid(0.1, 1.0, 64, grading="cubic")
    with pytest.raises(ValueError):
        bt.build_grid(0.1, 1.0, 64, grading="log-uniform")
    with pytest.raises(ValueError):
        bt.RadialGrid(np.array([0.1, 0.3, 0.2, 1.0]), N=3)  # not increasing
    with pytest.raises(ValueError):
        bt.RadialGrid(np.linspace(0.1, 1.0, 33), N=2)


def test_grid_rejects_nodes_out_of_order():
    # enough nodes that only the order check can reject them
    nodes = np.linspace(0.1, 1.0, 33)
    nodes[[10, 11]] = nodes[[11, 10]]
    with pytest.raises(ValueError, match=r"^nodes must be strictly increasing$"):
        bt.RadialGrid(nodes, N=3)


def test_field_rejects_a_value_count_other_than_the_node_count():
    g = bt.build_grid(0.5, 1.0, 32)
    with pytest.raises(ValueError, match=r"^field has 32 values for 33 nodes$"):
        bt.RadialField(g, np.zeros(32))


def test_grids_are_equal_when_dimension_and_nodes_agree():
    g = bt.build_grid(0.5, 1.0, 128, N=3)
    assert g == bt.build_grid(0.5, 1.0, 128, N=3)
    assert g != bt.build_grid(0.5, 1.0, 128, N=4)  # same nodes, other weights
    assert g != bt.build_grid(0.5, 1.0, 128, "uniform", N=3)  # same size, other nodes
    assert g != g.nodes
    with pytest.raises(TypeError, match="unhashable"):
        hash(g)


def _two_of_each():
    """Two distinct instances with equal contents of each array-holding type other than the grid."""
    g = bt.build_grid(0.5, 1.0, 32)
    ones = np.ones(g.nodes.size)
    field = bt.RadialField(g, ones)
    d, e = np.full(31, 2.0), np.full(30, -1.0)
    return {
        "RadialField": [bt.RadialField(g, ones.copy()) for _ in range(2)],
        "LinearizedOperator": [bt.LinearizedOperator(g, d.copy(), e.copy()) for _ in range(2)],
        "EigenPair": [bt.EigenPair(-1.0, bt.RadialField(g, ones.copy()), 0.0) for _ in range(2)],
        "StationarySolution": [
            bt.StationarySolution(bt.ProblemParams(3, 3), field, np.array([0.6, 0.8]), np.ones(3), 1.0, 0.0)
            for _ in range(2)
        ],
        "FlowResult": [bt.FlowResult("Stationary", np.zeros((3, 4)), field, 1.0, 0.0) for _ in range(2)],
    }


@pytest.mark.parametrize("kind", _two_of_each())
def test_array_holding_types_compare_by_identity(kind):
    # a generated == compares the arrays and raises on the ambiguous truth value
    a, b = _two_of_each()[kind]
    assert a == a
    assert not a == b
    assert a != b


def test_dirichlet_field_demands_exact_zero_trace():
    g = bt.build_grid(0.5, 1.0, 32, grading="uniform")
    vals = np.sin(np.pi * (g.nodes - 0.5) / 0.5)
    with pytest.raises(ValueError):
        bt.RadialField(g, vals, dirichlet=True)  # sin endpoint is roundoff, not 0
    vals[0] = vals[-1] = 0.0
    bt.RadialField(g, vals, dirichlet=True)


def test_weighted_quadrature_closed_forms():
    # N=3 annulus (0.5, 1): volume integral of 1 and of 1/r have closed forms
    g = bt.build_grid(0.5, 1.0, 4096, N=3)
    one = bt.RadialField(g, np.ones(g.nodes.size))
    rinv = bt.RadialField(g, 1.0 / g.nodes)
    vol = 4.0 * math.pi * (1.0 - 0.5**3) / 3.0
    assert abs(bt.integrate_weighted(one, one) - vol) <= 1e-7 * vol
    # integrand r^{N-1} * (1/r) is linear in r, trapezoid is exact
    exact = 4.0 * math.pi * 0.375
    assert abs(bt.integrate_weighted(rinv, one) - exact) <= 1e-12 * exact


def test_norms_closed_forms():
    g = bt.build_grid(0.5, 1.0, 4096, N=3)
    one = bt.RadialField(g, np.ones(g.nodes.size))
    vol = 4.0 * math.pi * (1.0 - 0.5**3) / 3.0
    assert abs(bt.norms(one)["l2_weighted"] - math.sqrt(vol)) <= 1e-7

    g4 = bt.build_grid(0.5, 1.0, 256, N=4)
    U = bt.bubble_eval(bt.Bubble(1.0, 4), g4.nodes)
    # bubble is radially decreasing: sup on the annulus sits at the inner edge
    want = 2.0 * math.sqrt(2.0) * 0.8
    assert abs(bt.norms(bt.RadialField(g4, U))["linf"] - want) <= 1e-13


def test_laplacian_annihilates_constants_exactly():
    g = bt.build_grid(0.1, 1.0, 128, N=5)
    lap = apply_radial_laplacian(bt.RadialField(g, np.ones(g.nodes.size)))
    assert float(np.max(np.abs(lap.values))) == 0.0


def test_laplacian_harmonic_profile_at_floor():
    # r^{2-N} is harmonic; the flux form reproduces it to near roundoff
    g = bt.build_grid(0.1, 1.0, 256, N=3)
    lap = apply_radial_laplacian(bt.RadialField(g, g.nodes ** (-1.0)))
    assert float(np.max(np.abs(lap.values[1:-1]))) <= 1e-6


def test_laplacian_quadratic_second_order():
    errs = {}
    for M in (1024, 2048):
        g = bt.build_grid(0.1, 1.0, M, N=4)
        lap = apply_radial_laplacian(bt.RadialField(g, g.nodes**2))
        errs[M] = float(np.max(np.abs(lap.values[1:-1] - 8.0)) / 8.0)
    assert errs[1024] <= 1e-5
    ratio = errs[1024] / errs[2048]
    assert 3.5 <= ratio <= 4.5


def test_laplacian_self_adjoint_in_cell_weights():
    rng = np.random.default_rng(7)
    g = bt.build_grid(1e-2, 1.0, 512, N=4)
    a = rng.standard_normal(g.nodes.size)
    b = rng.standard_normal(g.nodes.size)
    a[0] = a[-1] = b[0] = b[-1] = 0.0
    ua, ub = bt.RadialField(g, a, dirichlet=True), bt.RadialField(g, b, dirichlet=True)
    left = bt.integrate_weighted(apply_radial_laplacian(ua), ub)
    right = bt.integrate_weighted(ua, apply_radial_laplacian(ub))
    scale = max(abs(left), abs(right), 1.0)
    assert abs(left - right) <= 1e-12 * scale


def test_integrate_rejects_mismatched_grids():
    g1 = bt.build_grid(0.1, 1.0, 64, N=3)
    g2 = bt.build_grid(0.1, 1.0, 128, N=3)
    u = bt.RadialField(g1, np.ones(g1.nodes.size))
    v = bt.RadialField(g2, np.ones(g2.nodes.size))
    with pytest.raises(ValueError):
        bt.integrate_weighted(u, v)
    # the same nodes in another dimension: the weights carry r^{N-1}, so either order would read
    # its own first argument's weights
    w = bt.RadialField(bt.RadialGrid(g1.nodes, N=4), u.values)
    for a, b in ((u, w), (w, u)):
        with pytest.raises(ValueError, match=different_grids(a.grid, b.grid)):
            bt.integrate_weighted(a, b)


def test_ball_grid_origin_cell():
    g = bt.build_grid(0.0, 20.0, 64, "uniform", 3)
    assert g.nodes[0] == 0.0
    assert g.origin
    h = g.nodes[1] - g.nodes[0]
    assert abs(g.cell_weights[0] - (0.5 * h) ** 3 / 3.0) <= 1e-18


@pytest.mark.parametrize("R, M", [*spectral._LIMIT_LADDER, (80.0, 8192)])
def test_ball_grid_is_the_scaled_index_grid_bit_for_bit(R, M):
    # the nodes j * (R / M) that the ball grid had before build_grid built it
    want = np.arange(M + 1) * (R / M)
    want[-1] = R
    g = bt.build_grid(0.0, R, M, "uniform", 4)
    assert g.nodes.tobytes() == want.tobytes()
    assert g.origin


def test_origin_is_read_off_the_first_node():
    assert not bt.build_grid(0.1, 1.0, 64, N=3).origin
    with pytest.raises(ValueError, match="log"):
        bt.build_grid(0.0, 1.0, 64, "log")
    with pytest.raises(ValueError, match="nonnegative"):
        bt.RadialGrid(np.linspace(-0.1, 1.0, 65), 3)


def test_stiffness_on_origin_grid_reproduces_the_regularity_row():
    # reference: the operator (d, e) of -Delta - V written out row by row on the
    # unknowns 0..M-1, the r=0 row carrying only its outer face
    g = bt.build_grid(0.0, 30.0, 512, "uniform", 5)
    V = np.linspace(0.0, 1.0, g.nodes.size)
    beta, D = g.face_weights, g.cell_weights
    Dk = D[:-1]
    d_ref = np.empty(Dk.size)
    d_ref[0] = beta[0] / Dk[0] - V[0]
    d_ref[1:] = (beta[:-1] + beta[1:]) / Dk[1:] - V[1:-1]
    e_ref = -beta[:-1] / np.sqrt(Dk[:-1] * Dk[1:])

    mass, diag, off = g.stiffness
    assert g.unknowns == slice(0, g.M)
    assert np.array_equal(mass, Dk)
    d = diag / mass - V[g.unknowns]
    e = -off / np.sqrt(mass[:-1] * mass[1:])
    assert d.tobytes() == d_ref.tobytes()
    assert e.tobytes() == e_ref.tobytes()
    op = bt.assemble_operator(g, bt.RadialField(g, V))
    assert op.d.tobytes() == d_ref.tobytes() and op.e.tobytes() == e_ref.tobytes()


def test_stiffness_on_annulus_matches_the_laplacian():
    # -mass^{-1} K w is the flux-form Laplacian on the interior nodes
    g = bt.build_grid(0.1, 1.0, 64, N=4)
    mass, diag, off = g.stiffness
    assert g.unknowns == slice(1, g.M)
    assert np.array_equal(mass, g.cell_weights[1:-1])
    u = np.sin(3.0 * g.nodes)
    u[0] = u[-1] = 0.0
    w = u[g.unknowns]
    kw = diag * w
    kw[:-1] -= off * w[1:]
    kw[1:] -= off * w[:-1]
    lap = apply_radial_laplacian(bt.RadialField(g, u)).values[1:-1]
    assert np.max(np.abs(-kw / mass - lap)) <= 1e-12 * np.max(np.abs(lap))


@pytest.mark.parametrize("N", (3, 4, 6))
def test_laplacian_on_a_ball_grid_is_the_stiffness_with_its_regularity_row(N):
    # -mass^{-1} K w on the unknowns 0..M-1, and at r = 0 the continuum value
    # Delta exp(-r^2) = -2N
    g = bt.build_grid(0.0, 5.0, 256, "uniform", N)
    u = np.exp(-g.nodes**2)
    u[-1] = 0.0
    mass, diag, off = g.stiffness
    w = u[g.unknowns]
    kw = diag * w
    kw[:-1] -= off * w[1:]
    kw[1:] -= off * w[:-1]
    lap = apply_radial_laplacian(bt.RadialField(g, u)).values[g.unknowns]
    assert np.max(np.abs(-kw / mass - lap)) <= 1e-12 * np.max(np.abs(lap))
    assert abs(lap[0] / (-2.0 * N) - 1.0) <= 1e-3
