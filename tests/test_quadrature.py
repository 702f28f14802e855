import pytest

from alefem.quadrature import (
    edge_rule,
    triangle_monomial_integral,
    triangle_rule,
)


@pytest.mark.parametrize("degree", range(13))
def test_triangle_exactness_sweep(degree):
    rule = triangle_rule(degree)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            got = (rule.weights * rule.points[:, 0] ** a
                   * rule.points[:, 1] ** b).sum()
            exact = triangle_monomial_integral(a, b)
            assert abs(got - exact) / exact < 1e-14


def test_triangle_constant_gives_reference_area():
    for degree in range(13):
        assert triangle_rule(degree).weights.sum() == pytest.approx(0.5, abs=1e-15)


def test_triangle_examples():
    # int x*y = 1/24, int x^4 = 1/30
    r2 = triangle_rule(2)
    assert (r2.weights * r2.points[:, 0] * r2.points[:, 1]).sum() == \
        pytest.approx(1.0 / 24.0, abs=1e-16)
    r4 = triangle_rule(4)
    assert (r4.weights * r4.points[:, 0] ** 4).sum() == \
        pytest.approx(1.0 / 30.0, abs=1e-16)


def test_weights_positive_points_inside():
    for degree in range(13):
        rule = triangle_rule(degree)
        assert (rule.weights > 0).all()
        x, y = rule.points[:, 0], rule.points[:, 1]
        assert (x >= -1e-15).all() and (y >= -1e-15).all()
        assert (x + y <= 1 + 1e-15).all()


def test_symmetry_under_rotation():
    rule = triangle_rule(6)
    # integrating x^a y^b and its rotated images must agree
    x, y = rule.points[:, 0], rule.points[:, 1]
    f1 = (rule.weights * x ** 3 * y).sum()
    f2 = (rule.weights * y ** 3 * (1 - x - y)).sum()
    f3 = (rule.weights * (1 - x - y) ** 3 * x).sum()
    assert f1 == pytest.approx(f2, rel=1e-13)
    assert f1 == pytest.approx(f3, rel=1e-13)


def test_edge_rule():
    assert edge_rule(1).weights.sum() == pytest.approx(1.0, abs=1e-15)
    r = edge_rule(2)
    assert (r.weights * r.points[:, 0] ** 2).sum() == \
        pytest.approx(1.0 / 3.0, abs=1e-15)
    r = edge_rule(5)
    assert (r.weights * r.points[:, 0] ** 5).sum() == \
        pytest.approx(1.0 / 6.0, abs=1e-15)


def test_degree_out_of_range():
    with pytest.raises(ValueError):
        triangle_rule(13)
    with pytest.raises(ValueError):
        triangle_rule(-1)
    with pytest.raises(ValueError):
        edge_rule(99)
