"""Link function formulas, ranges and parsing."""

import numpy as np
import pytest
from scipy.special import expit, ndtr

from angcal.errors import ContractError
from angcal.links import LINK_KINDS, LinkFunction


GRID = np.linspace(-500.0, 500.0, 2001)


@pytest.mark.parametrize("kind", LINK_KINDS)
def test_output_in_unit_interval(kind):
    link = LinkFunction(kind, 3.0, 0.5)
    vals = link(GRID)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.all(np.isfinite(vals))


@pytest.mark.parametrize("a", [1e308, -1e308])
@pytest.mark.parametrize("kind", LINK_KINDS)
def test_output_in_unit_interval_extreme_slope(kind, a):
    link = LinkFunction(kind, a, 0.5)
    vals = link(GRID)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.all(np.isfinite(vals))


def test_sigmoid_formula():
    link = LinkFunction("sigmoid", 3.0, 1.0)
    u = np.linspace(-5, 5, 101)
    np.testing.assert_allclose(link(u), expit(3.0 * u + 1.0), rtol=0, atol=0)
    assert link(0.0) == pytest.approx(expit(1.0), abs=1e-15)


def test_probit_formula():
    link = LinkFunction("probit", 2.0, -0.5)
    u = np.linspace(-5, 5, 101)
    np.testing.assert_allclose(link(u), ndtr(2.0 * u - 0.5), rtol=0, atol=0)


def test_clipped_relu_formula():
    link = LinkFunction("crelu", 3.0, 0.5)
    assert link(0.0) == 0.5
    assert link(1.0) == 1.0
    assert link(-1.0) == 0.0
    np.testing.assert_allclose(link(np.array([0.1])), np.array([0.8]))


@pytest.mark.parametrize("kind", LINK_KINDS)
def test_scalar_in_numpy_scalar_out_and_input_untouched(kind):
    link = LinkFunction(kind, 3.0, 0.5)
    for u in (0.1, 2, np.float64(0.1), np.array(0.1)):
        out = link(u)
        assert type(out) is np.float64 and out == link(np.array([float(u)]))[0]
    u = GRID.copy()
    out = link(u)
    assert out is not u and out.shape == u.shape
    np.testing.assert_array_equal(u, GRID)


def test_degenerate_slope_allowed():
    # a = 0 produces a constant link; only slope-dividing operations reject it
    link = LinkFunction("crelu", 0.0, 1.0)
    assert np.all(link(GRID) == 1.0)


class TestParse:
    def test_full_forms(self):
        link = LinkFunction.parse("sigmoid:3:1")
        assert (link.kind, link.a, link.b) == ("sigmoid", 3.0, 1.0)
        link = LinkFunction.parse("probit:1.5:-0.25")
        assert (link.kind, link.a, link.b) == ("probit", 1.5, -0.25)

    def test_crelu_defaults(self):
        link = LinkFunction.parse("crelu")
        assert (link.kind, link.a, link.b) == ("crelu", 3.0, 0.5)

    @pytest.mark.parametrize("text", ["", "huber:1:2", "sigmoid:x:1", "sigmoid:1:2:3"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ContractError):
            LinkFunction.parse(text)


def test_nonfinite_parameters_rejected():
    with pytest.raises(ContractError):
        LinkFunction("sigmoid", np.nan, 0.0)
