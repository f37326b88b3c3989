"""Sphere-probe half-branch counting."""

from __future__ import annotations

from fractions import Fraction

import pytest

from realcurve import halfbranch_count
from realcurve.errors import NotACurve, PointNotOnVariety
from realcurve.oracle import sphere_probe

from conftest import make_ideal

Q = Fraction


def test_node_has_four_halfbranches(node):
    assert halfbranch_count(node, [0, 0]) == 4


def test_node_single_radius(node):
    # brute-force check at radius 1/4: y^2 = x^2+x^3 meets x^2+y^2 = 1/16 in
    # four real points (two x-roots inside the disc, two signs of y each)
    assert halfbranch_count(node, [0, 0], [Q(1, 4), Q(1, 8)]) == 4


def test_cusp_has_two_halfbranches(cusp):
    assert halfbranch_count(cusp, [0, 0]) == 2


def test_isolated_point_has_none():
    assert halfbranch_count(make_ideal("x,y", "x^2 + y^2"), [0, 0]) == 0


def test_one_basis_for_the_curve_and_one_per_radius(monkeypatch, node):
    import realcurve.ideals as ideals_module
    from realcurve import oracle

    bases, probes = [], []
    original_buchberger, original_probe = ideals_module.buchberger, oracle.sphere_probe

    def counting(gens, order):
        bases.append(order)
        return original_buchberger(gens, order)

    def probing(i, point, radius):
        probes.append(radius)
        return original_probe(i, point, radius)

    monkeypatch.setattr(ideals_module, "buchberger", counting)
    monkeypatch.setattr(oracle, "sphere_probe", probing)
    assert halfbranch_count(node, [0, 0], [Q(1, 3), Q(1, 4), Q(1, 8)]) == 4
    assert len(probes) >= 2
    assert len(bases) == 1 + len(probes)


@pytest.mark.parametrize("radii", [[0, 0], [Q(1, 4), Q(-1, 8)], [Q(1, 2), 0]])
def test_non_positive_radius_rejected(node, radii):
    # a zero radius meets the node only at the point itself and used to read 1
    with pytest.raises(ValueError):
        halfbranch_count(node, [0, 0], radii)


def test_probe_ideal_shape(node):
    probe = sphere_probe(node, [0, 0], Q(1, 2))
    assert probe.radius == Q(1, 2)
    assert len(probe.probe_ideal.generators) == 2


def test_requires_point_on_variety(node):
    with pytest.raises(PointNotOnVariety):
        halfbranch_count(node, [1, 1])


def test_requires_curve():
    with pytest.raises(NotACurve):
        halfbranch_count(make_ideal("x,y", "x", "y"), [0, 0])


def test_even_parity_on_non_isolated_fixtures(node, cusp):
    fixtures = [
        node,
        cusp,
        make_ideal("x,y", "y^3 + 2x^2y - x^4"),
        make_ideal("x,y", "x^3 - 5y^3"),
    ]
    for i in fixtures:
        assert halfbranch_count(i, [0, 0]) % 2 == 0


def test_smooth_point_counts_one_branch(node):
    assert halfbranch_count(node, [-1, 0]) == 2


def test_degenerate_radius_skipped():
    # the probe at radius 1/4 contains the whole circle component, so it is
    # not zero-dimensional and must be skipped, not reported
    i = make_ideal("x,y", "y(x^2 + y^2 - 1/16)")
    count = halfbranch_count(i, [0, 0], [Q(1, 2), Q(1, 4), Q(1, 8)])
    assert count == 2


def test_no_stabilization_with_single_radius(node):
    from realcurve.errors import NoStabilization

    with pytest.raises(NoStabilization):
        halfbranch_count(node, [0, 0], [Q(1, 2)])
