import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sislab.mesh import (
    Field,
    build_grid,
    common_grid,
    eval_expression,
    quadrature,
    risk_signs,
    rmin_set,
)


class TestBuildGrid:
    def test_five_node_unit_interval(self):
        g = build_grid(0, 1, 5)
        assert g.nodes == pytest.approx([0, 0.25, 0.5, 0.75, 1.0])
        assert g.weights == pytest.approx([0.125, 0.25, 0.25, 0.25, 0.125])

    def test_desk_scale_grid(self):
        g = build_grid(0, 1, 201)
        assert g.dx == pytest.approx(0.005)
        assert g.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_wider_interval(self):
        g = build_grid(0, 2, 3)
        assert g.nodes == pytest.approx([0.0, 1.0, 2.0])
        assert g.weights == pytest.approx([0.5, 1.0, 0.5])

    @pytest.mark.parametrize("args", [(0, 1, 2), (0, 1, 0), (1, 1, 5), (2, 1, 5)])
    def test_rejects_bad_arguments(self, args):
        with pytest.raises(ValueError):
            build_grid(*args)

    @pytest.mark.parametrize("a, b", [(math.nan, 1.0), (0.0, math.nan), (0.0, math.inf),
                                      (-math.inf, 1.0)])
    def test_rejects_a_non_finite_endpoint(self, a, b):
        # b <= a is False when either end is nan, and an infinite domain has
        # infinite node spacing
        with pytest.raises(ValueError, match=rf"^grid endpoints must be finite, "
                                             rf"got \[{a}, {b}\]$"):
            build_grid(a, b, 5)

    @given(
        a=st.floats(-10, 10),
        width=st.floats(0.1, 20),
        nx=st.integers(3, 400),
    )
    @settings(max_examples=50, deadline=None)
    def test_weights_sum_to_the_length(self, a, width, nx):
        g = build_grid(a, a + width, nx)
        assert g.weights.sum() == pytest.approx(width, rel=1e-12)
        assert np.all(np.diff(g.nodes) > 0)


class TestGridRule:
    def test_grids_are_equal_exactly_when_their_domain_and_nodes_are(self):
        g = build_grid(0, 1, 9)
        assert g == build_grid(0.0, 1.0, 9) and g is not build_grid(0, 1, 9)
        assert hash(g) == hash(build_grid(0, 1, 9))
        assert len({g, build_grid(0, 1, 9), build_grid(0, 5, 9), build_grid(0, 1, 11)}) == 3
        for other in (build_grid(0, 5, 9), build_grid(-1, 1, 9), build_grid(0, 1, 11)):
            assert g != other

    def test_common_grid_returns_the_shared_grid(self):
        g = build_grid(0, 1, 9)
        fields = (Field(g, 1.0), Field(build_grid(0, 1, 9), 2.0))
        assert common_grid(*fields) is g
        assert common_grid(fields[1]) is fields[1].grid

    @pytest.mark.parametrize("a, b, nx", [(0, 5, 9), (0, 1, 11), (0.5, 1, 9)])
    def test_common_grid_rejects_fields_on_different_grids(self, a, b, nx):
        g = build_grid(0, 1, 9)
        with pytest.raises(ValueError, match="^fields live on different grids$"):
            common_grid(Field(g, 1.0), Field(g, 2.0), Field(build_grid(a, b, nx), 1.0))


class TestFieldAndIntegrate:
    def test_constant_integrates_exactly(self):
        g = build_grid(0, 1, 17)
        assert quadrature(g, Field(g, 3.25).values) == pytest.approx(3.25, abs=1e-15)

    def test_smooth_integral_at_desk_scale(self):
        g = build_grid(0, 1, 201)
        f = eval_expression(g, "4 - pi*sin(pi*x)")
        assert quadrature(f.grid, f.values) == pytest.approx(2.0, abs=1e-4)

    def test_cosine_integral(self):
        g = build_grid(0, 1, 201)
        f = eval_expression(g, "2 + cos(pi*x)")
        assert quadrature(f.grid, f.values) == pytest.approx(2.0, abs=1e-4)

    def test_a_scalar_is_the_constant_field(self):
        g = build_grid(0, 1, 5)
        f = Field(g, 2)
        assert f.values.tolist() == [2.0] * 5
        assert f.values.dtype == float and not f.values.flags.writeable

    def test_field_length_mismatch_rejected(self):
        g = build_grid(0, 1, 5)
        with pytest.raises(ValueError, match=r"^field values of shape \(7,\) are neither"):
            Field(g, np.zeros(7))

    @pytest.mark.parametrize("shape", [(1,), (4,), (2, 5), (1, 5)], ids=str)
    def test_values_of_any_other_shape_are_rejected(self, shape):
        # the Field's own error, not numpy's broadcasting one; a one-element
        # array is not a constant
        g = build_grid(0, 1, 5)
        with pytest.raises(ValueError, match=rf"^field values of shape {re.escape(str(shape))} "
                                             rf"are neither a scalar nor one value per node "
                                             rf"of a 5-node grid$"):
            Field(g, np.zeros(shape))

    @given(
        c0=st.floats(-5, 5),
        c1=st.floats(-5, 5),
        nx=st.integers(3, 120),
    )
    @settings(max_examples=50, deadline=None)
    def test_affine_fields_integrate_exactly(self, c0, c1, nx):
        g = build_grid(0, 2, nx)
        f = Field(g, c0 + c1 * g.nodes)
        exact = 2 * c0 + 2 * c1
        assert quadrature(f.grid, f.values) == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_refinement_is_second_order(self):
        exact = math.e - 1.0
        errs = []
        for nx in (51, 101, 201):
            g = build_grid(0, 1, nx)
            errs.append(abs(quadrature(g, eval_expression(g, "exp(x)").values) - exact))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)


class TestRiskSets:
    def test_std_incidence_scenario_partition(self):
        # nodes at 1/6 and 5/6 sit exactly on the sign change
        g = build_grid(0, 1, 13)
        beta = eval_expression(g, "1 + sin(pi*x)")
        gamma = Field(g, 1.5)
        signs = risk_signs(beta.values - gamma.values)
        zero_nodes = g.nodes[signs == 0]
        assert zero_nodes == pytest.approx([1 / 6, 5 / 6], abs=1e-12)
        interior = g.nodes[signs > 0]
        assert np.all((interior > 1 / 6) & (interior < 5 / 6))

    def test_constant_low_risk(self):
        g = build_grid(0, 1, 21)
        signs = risk_signs(Field(g, 0.5).values - Field(g, 1.0).values)
        assert np.count_nonzero(signs < 0) == g.nx
        assert np.count_nonzero(signs > 0) == 0

    def test_mass_action_two_bands(self):
        g = build_grid(0, 1, 401)
        beta = Field(g, 2.0)
        gamma = eval_expression(g, "14 - 4*pi*sin(4*pi*x)")
        h_plus = np.flatnonzero(risk_signs((3.5 / g.length) * beta.values - gamma.values) > 0)
        plus = g.nodes[h_plus]
        # indicator 7 - 14 + 4 pi sin(4 pi x) > 0 iff sin(4 pi x) > 7/(4 pi)
        expected = np.sin(4 * np.pi * g.nodes) > 7 / (4 * np.pi)
        assert set(h_plus) == set(np.flatnonzero(expected))
        assert plus.min() > 0.0 and plus.max() < 0.75
        # two separated bands around 1/8 and 5/8
        gaps = np.flatnonzero(np.diff(h_plus) > 1)
        assert len(gaps) == 1

    @given(
        amp=st.floats(-2, 2),
        shift=st.floats(-1, 1),
        n_pop=st.floats(0.5, 8),
        mass_action=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_is_total(self, amp, shift, n_pop, mass_action):
        g = build_grid(0, 1, 31)
        beta = Field(g, 1.5 + amp * np.sin(np.pi * g.nodes) * 0.4)
        gamma = Field(g, 1.5 + shift)
        scale = n_pop / g.length if mass_action else 1.0
        signs = risk_signs(scale * beta.values - gamma.values)
        union = np.concatenate([np.flatnonzero(signs == s) for s in (1, 0, -1)])
        assert sorted(union) == list(range(g.nx))


class TestRminSet:
    def test_smooth_minimum_at_the_center(self):
        g = build_grid(0, 1, 201)
        r = eval_expression(g, "4 - pi*sin(pi*x)")
        I0 = eval_expression(g, "1.5 + cos(pi*x)")
        r_min, idx = rmin_set(r, I0)
        assert r_min == pytest.approx(4 - math.pi, abs=1e-12)
        assert g.nodes[idx] == pytest.approx([0.5])

    def test_two_point_minimum_set(self):
        g = build_grid(0, 1, 201)
        r = eval_expression(g, "(14 - 4*pi*sin(4*pi*x))/2")
        I0 = eval_expression(g, "1.5 + cos(pi*x)")
        r_min, idx = rmin_set(r, I0)
        assert r_min == pytest.approx(7 - 2 * math.pi, abs=1e-12)
        assert g.nodes[idx] == pytest.approx([0.125, 0.625])

    def test_constant_ratio_returns_support(self):
        g = build_grid(0, 1, 9)
        r = Field(g, 2.0)
        I0 = Field(g, np.where(g.nodes > 0.5, 1.0, 0.0))
        r_min, idx = rmin_set(r, I0)
        assert r_min == 2.0
        # closure of the support: the support plus its left neighbour
        support = np.flatnonzero(I0.values > 0)
        assert set(support).issubset(set(idx))
        assert set(idx).issubset(set(support) | {support.min() - 1})

    @given(cut=st.floats(0.1, 0.9))
    @settings(max_examples=30, deadline=None)
    def test_enlarging_the_support_cannot_raise_the_minimum(self, cut):
        g = build_grid(0, 1, 41)
        r = Field(g, 2.0 + np.cos(3 * g.nodes))
        small = Field(g, np.where(g.nodes <= cut, 1.0, 0.0))
        full = Field(g, 1.0)
        r_small, _ = rmin_set(r, small)
        r_full, _ = rmin_set(r, full)
        assert r_full <= r_small + 1e-15
