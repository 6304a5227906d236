"""Exact invariances of the steady problem eps Lap W = (m / int W^p) W^(1+p),
W = b on the boundary, as property tests of the whole nonlocal solve.

- b: W_b = b W_1, and U does not depend on b.  The ball's adapted grid
  follows the layer width c_p sqrt(sigma) / b^(p/2), which does not depend
  on b either.
- eps and m enter only as eps / m: scaling both by k leaves W as it is and
  scales U by k.
- x -> 2 x on a planar domain, with h -> 2 h: W is the same at the scaled
  nodes, and lambda_eps = int W^p / m scales by 4.

A power-of-two factor scales every quantity of the solve exactly, so there
the tests assert equal bits: for eps, m x 2 on every draw, and for b x 2 at
the measured cases.  The b solve's absolute residual bound does not scale
with b^(1+p), so b x 2 may take one Newton step more or fewer and then
agrees only to rounding.  Other factors are held to relative bounds a few
times the worst measured over 500 random draws of the same ranges:
1.4e-14 in W and 1.2e-13 in U for b, 8.9e-15 in W and 9.6e-14 in U for
eps, m.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klayer.core import Params
from klayer.mass_constraint import solve_nonlocal
from klayer.planar2d import Ellipse, Star, build_domain, solve_nonlocal_2d

W_REL = 5e-14
U_REL = 5e-13

dimensions = st.integers(min_value=1, max_value=3)
exponents = st.floats(min_value=1.0, max_value=40.0)
epsilons = st.floats(min_value=1e-3, max_value=0.05)
factors = st.floats(min_value=0.25, max_value=4.0)


def relative_gap(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestBoundaryValue:
    @pytest.mark.parametrize("n, p, eps", [(2, 2, 0.004), (3, 8, 0.01)])
    def test_doubling_b_is_exact(self, n, p, eps):
        par = Params(epsilon=eps, p=p, b=1.0, m=1.0, n=n)
        one = solve_nonlocal(par, 1.0)
        two = solve_nonlocal(replace(par, b=2.0), 1.0)
        assert np.array_equal(two.W.grid.nodes, one.W.grid.nodes)
        assert np.array_equal(two.W.values, 2.0 * one.W.values)
        assert np.array_equal(two.U.values, one.U.values)
        assert two.bisection_iters == one.bisection_iters

    @settings(max_examples=25, deadline=None)
    @given(n=dimensions, p=exponents, eps=epsilons, b=factors)
    def test_w_scales_with_b(self, n, p, eps, b):
        par = Params(epsilon=eps, p=p, b=1.0, m=1.0, n=n)
        one = solve_nonlocal(par, 1.0)
        scaled = solve_nonlocal(replace(par, b=b), 1.0)
        assert relative_gap(scaled.W.values, b * one.W.values) <= W_REL
        assert relative_gap(scaled.U.values, one.U.values) <= U_REL


class TestEpsilonOverMass:
    @settings(max_examples=25, deadline=None)
    @given(n=dimensions, p=exponents, eps=epsilons)
    def test_doubling_eps_and_m_is_exact(self, n, p, eps):
        par = Params(epsilon=eps, p=p, b=1.0, m=1.0, n=n)
        one = solve_nonlocal(par, 1.0)
        two = solve_nonlocal(replace(par, epsilon=2.0 * eps, m=2.0), 1.0)
        assert np.array_equal(two.W.values, one.W.values)
        assert np.array_equal(two.U.values, 2.0 * one.U.values)
        assert two.bisection_iters == one.bisection_iters

    @settings(max_examples=25, deadline=None)
    @given(n=dimensions, p=exponents, eps=epsilons, k=factors)
    def test_u_scales_with_k(self, n, p, eps, k):
        par = Params(epsilon=eps, p=p, b=1.0, m=1.0, n=n)
        one = solve_nonlocal(par, 1.0)
        scaled = solve_nonlocal(replace(par, epsilon=k * eps, m=k), 1.0)
        assert relative_gap(scaled.W.values, one.W.values) <= W_REL
        assert relative_gap(scaled.U.values, k * one.U.values) <= U_REL


class TestPlanarScaling:
    @pytest.mark.parametrize(
        "shape, doubled",
        [
            (Ellipse(math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
             Ellipse(2.0 * math.sqrt(2.0), 2.0 / math.sqrt(2.0))),
            (Star(1.0, 0.15, 5), Star(2.0, 0.15, 5)),
        ],
        ids=["ellipse", "star-k5"],
    )
    def test_doubled_domain_and_spacing(self, shape, doubled):
        par = Params(epsilon=0.05, p=2, b=1.0, m=1.0, n=2)
        grid = build_domain(shape, 0.02)
        big = build_domain(doubled, 0.04)
        assert np.array_equal(big.inside, grid.inside)
        assert np.array_equal(big.phi, 2.0 * grid.phi)
        one = solve_nonlocal_2d(par, grid)
        two = solve_nonlocal_2d(par, big)
        assert np.array_equal(two.W.values, one.W.values)
        assert abs(two.lambda_eps - 4.0 * one.lambda_eps) <= np.spacing(two.lambda_eps)
        assert two.bisection_iters == one.bisection_iters
