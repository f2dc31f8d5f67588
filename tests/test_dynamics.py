import numpy as np
import pytest

from cbfsim import ControlAffineSystem
from cbfsim.dynamics import (
    EXAMPLE1_A,
    EXAMPLE1_B,
    EXAMPLE1_C,
    make_example1_system,
    make_rossler_system,
)


def test_example1_dimensions():
    sys_ = make_example1_system()
    assert (sys_.n, sys_.m, sys_.k) == (3, 1, 1)


def test_example1_drift_at_origin():
    sys_ = make_example1_system()
    np.testing.assert_array_equal(sys_.drift(np.array([0.0, 0.0, 0.0])), [0.0, 0.0, 0.0])


def test_example1_drift_hand_value():
    # A @ [2, 2.2, 2] worked by hand: [-2+4.4-4, -2.2+2, 2-2].
    sys_ = make_example1_system()
    np.testing.assert_allclose(sys_.drift(np.array([2.0, 2.2, 2.0])), [-1.6, -0.2, 0.0], atol=1e-14)


def test_example1_drift_first_column():
    sys_ = make_example1_system()
    np.testing.assert_allclose(sys_.drift(np.array([1.0, 0.0, 0.0])), [-1.0, 0.0, 1.0], atol=1e-15)


def test_example1_input_matrix_constant():
    sys_ = make_example1_system()
    rng = np.random.default_rng(7)
    for _ in range(100):
        np.testing.assert_array_equal(sys_.input_map(rng.normal(size=3)), EXAMPLE1_B)


def test_example1_output():
    sys_ = make_example1_system()
    np.testing.assert_allclose(sys_.output_map(np.array([2.0, 2.2, 2.0])), [4.2])
    np.testing.assert_array_equal(sys_.output_map(np.array([0.0, 0.0, 5.0])), [0.0])
    np.testing.assert_allclose(sys_.output_map(np.array([1.0, 1.0, 0.0])), [2.0])


def test_example1_drift_linearity():
    sys_ = make_example1_system()
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, z = rng.normal(size=3), rng.normal(size=3)
        al, be = rng.normal(), rng.normal()
        lhs = sys_.drift(al * x + be * z)
        rhs = al * sys_.drift(x) + be * sys_.drift(z)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_rossler_drift_values():
    sys_ = make_rossler_system(0.2, 0.2, 5.0)
    np.testing.assert_allclose(sys_.drift(np.array([0.0, 0.0, 0.0])), [0.0, 0.0, 0.2], atol=1e-15)
    # x3 (x1 - c) vanishes at x1 = c
    np.testing.assert_allclose(sys_.drift(np.array([5.0, 0.0, 1.0])), [-1.0, 5.0, 0.2], atol=1e-15)


def test_rossler_origin_equilibrium_when_b_zero():
    sys_ = make_rossler_system(0.2, 0.0, 5.0)
    np.testing.assert_array_equal(sys_.drift(np.array([0.0, 0.0, 0.0])), [0.0, 0.0, 0.0])


def test_rossler_input_matrix_identity():
    sys_ = make_rossler_system(0.2, 0.2, 5.0)
    rng = np.random.default_rng(11)
    for _ in range(100):
        np.testing.assert_array_equal(sys_.input_map(rng.normal(size=3)), np.eye(3))


def test_rossler_output_is_x1():
    sys_ = make_rossler_system(0.2, 0.2, 5.0)
    np.testing.assert_array_equal(sys_.output_map(np.array([1.0, 2.0, 3.0])), [1.0])


def test_zero_input_map_degenerate():
    sys_ = ControlAffineSystem(
        n=2, m=2, k=1,
        drift=lambda x: np.zeros(2),
        input_map=lambda x: np.zeros((2, 2)),
        output_map=lambda x: x[:1],
    )
    np.testing.assert_array_equal(sys_.input_map(np.array([1.0, 1.0])), np.zeros((2, 2)))


def test_nonpositive_dimensions_rejected():
    with pytest.raises(ValueError):
        ControlAffineSystem(
            n=0, m=1, k=1,
            drift=lambda x: x,
            input_map=lambda x: x,
            output_map=lambda x: x,
        )


def test_paper_matrices_frozen():
    # Constants used by every Example-1 oracle below; pin them.
    np.testing.assert_array_equal(
        EXAMPLE1_A, [[-1.0, 2.0, -2.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]]
    )
    np.testing.assert_array_equal(EXAMPLE1_B, [[0.0], [1.0], [1.0]])
    np.testing.assert_array_equal(EXAMPLE1_C, [[1.0, 1.0, 0.0]])
