"""Algebra layer: Hamilton product, involutions, rotations, parsing."""

import json
import math
import re
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from quatcalc import quaternion
from quatcalc.quaternion import (AXES, I, J, K, ONE, UNITS, ZERO, QArray,
                                 Quaternion, format_quaternion, hamilton,
                                 involute, involute_conj, mu_basis,
                                 parse_quaternion, rotate)
from quatcalc.sampling import make_rng, random_quaternion

SEED = 20240117
N_DRAWS = 200


def isclose(p: Quaternion, q: Quaternion,
            abs_tol: float = 1e-12, rel_tol: float = 1e-10) -> bool:
    """Tolerance-based comparison: true when |p - q| <= abs_tol + rel_tol*scale."""
    scale = max(abs(p), abs(q))
    return abs(p - q) <= abs_tol + rel_tol * scale


def basis_matrix(basis) -> np.ndarray:
    """The 3x3 matrix of a mu_basis: row r holds the (i, j, k) components of
    the r-th rotated unit, so the vector part of q^mu is (b, c, d) @ m."""
    return np.array([unit[1:] for unit in (basis.i_mu, basis.j_mu, basis.k_mu)])


def test_unit_products():
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert J * I == -K
    assert I * I == -ONE
    assert J * J == -ONE
    assert K * K == -ONE


def test_square_oracle():
    q = Quaternion(1.0, 2.0, 3.0, 4.0)
    assert q * q == Quaternion(-28.0, 4.0, 6.0, 8.0)


def test_cube_oracle():
    q = Quaternion(1.0, 1.0, 0.0, 0.0)
    assert q * q * q == Quaternion(-2.0, 2.0, 0.0, 0.0)


def test_conjugate_and_modulus():
    q = Quaternion(1.0, 2.0, 3.0, 4.0)
    assert q.conjugate() == Quaternion(1.0, -2.0, -3.0, -4.0)
    assert q.modulus_squared() == 30.0
    assert q.modulus() == pytest.approx(math.sqrt(30.0))
    assert q.vector_modulus() == pytest.approx(math.sqrt(29.0))
    assert (q * q.conjugate()).a == pytest.approx(30.0)


def test_inverse():
    q = Quaternion(1.0, 2.0, 3.0, 4.0)
    assert isclose(q * q.inverse(), ONE)
    assert isclose(q.inverse() * q, ONE)
    with pytest.raises(ValueError, match="zero quaternion has no inverse"):
        ZERO.inverse()


def test_inverse_of_product_reverses_factors():
    p = Quaternion(1.0, 1.0, 0.0, 0.0)
    q = Quaternion(1.0, 0.0, 1.0, 0.0)
    assert isclose((p * q).inverse(), q.inverse() * p.inverse())


def test_scalar_operations():
    q = Quaternion(1.0, -2.0, 0.5, 3.0)
    assert 2.0 * q == Quaternion(2.0, -4.0, 1.0, 6.0)
    assert q * 2.0 == 2.0 * q
    assert q / 2.0 == Quaternion(0.5, -1.0, 0.25, 1.5)
    assert q + 1.0 == Quaternion(2.0, -2.0, 0.5, 3.0)
    assert 1.0 - q == Quaternion(0.0, 2.0, -0.5, -3.0)


@pytest.mark.parametrize("numpy_op,float_op", [
    (lambda q: q * np.int64(2), lambda q: q * 2.0),
    (lambda q: q * np.float32(2), lambda q: q * 2.0),
    (lambda q: q / np.int64(2), lambda q: q / 2.0),
    (lambda q: q + np.int64(2), lambda q: q + 2.0),
    (lambda q: q - np.int64(2), lambda q: q - 2.0),
    (lambda q: np.float64(2) * q, lambda q: 2.0 * q),
    (lambda q: np.int64(2) * q, lambda q: 2.0 * q),
    (lambda q: np.int64(2) - q, lambda q: 2.0 - q),
])
def test_numpy_scalars_act_as_real_scalars(numpy_op, float_op):
    q = Quaternion(1.0, -2.0, 3.0, 0.5)
    out = numpy_op(q)
    assert isinstance(out, Quaternion)
    assert out == float_op(q)


def _same_bits(actual: np.ndarray, expected: np.ndarray) -> bool:
    """Equal bit patterns, with any NaN (an overflowing inf - inf) matching NaN."""
    nan = np.isnan(expected)
    return (np.array_equal(np.isnan(actual), nan)
            and np.array_equal(actual[~nan].view(np.uint64),
                               expected[~nan].view(np.uint64)))


# Finite floats, with signed zeros drawn often.
FINITE = st.one_of(st.sampled_from([0.0, -0.0]),
                   st.floats(allow_nan=False, allow_infinity=False))

# Nonzero finite floats of either sign, subnormals included: a magnitude
# above zero, then a sign, so no draw is thrown away.
NONZERO = st.builds(math.copysign,
                    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False,
                              allow_subnormal=True),
                    st.sampled_from([1.0, -1.0]))


# Components of either sign, zeros, infinities and subnormals drawn often,
# and floats of like size, whose sums round differently in another order.
# No NaN is drawn; the products make their own from inf * 0 and inf - inf.
COMPONENT = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, -1e-310]),
                      st.floats(min_value=-4.0, max_value=4.0),
                      st.floats(allow_nan=False))

# The (p, q) element shapes the derivative engine multiplies, for N points:
# points by one coefficient, and a stencil's (axis, +/-, point) values by
# per-point constants, either way round.
ENGINE_SHAPES = (lambda n: ((n,), (1,)), lambda n: ((1, 1, n), (4, 2, n)),
                 lambda n: ((4, 2, n), (1, 1, n)))


@given(data=st.data())
def test_array_hamilton_matches_scalar_product_bitwise(data):
    if data.draw(st.booleans()):
        shape_of = data.draw(st.sampled_from(ENGINE_SHAPES))
        p_shape, q_shape = shape_of(data.draw(st.integers(min_value=1, max_value=3)))
    else:
        shapes = data.draw(hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3,
                                                             max_side=3))
        ndim = len(shapes.result_shape)
        p_shape, q_shape = ((1,) * (ndim - len(s)) + s for s in shapes.input_shapes)
    result_shape = np.broadcast_shapes(p_shape, q_shape)
    p = data.draw(hnp.arrays(np.float64, (4,) + p_shape, elements=COMPONENT,
                             fill=st.nothing()))
    q = data.draw(hnp.arrays(np.float64, (4,) + q_shape, elements=COMPONENT,
                             fill=st.nothing()))
    with np.errstate(over="ignore", invalid="ignore"):
        out = hamilton(p, q)
    assert out.shape == (4,) + result_shape
    p_full = np.broadcast_to(p, out.shape)
    q_full = np.broadcast_to(q, out.shape)
    expected = np.empty(out.shape)
    for idx in np.ndindex(result_shape):
        at = (slice(None),) + idx
        expected[at] = (Quaternion(*p_full[at].tolist())
                        * Quaternion(*q_full[at].tolist()))
    assert _same_bits(out, expected)


# Each QArray operation beside the Quaternion operation it mirrors: binary
# operations between quaternions, operations with a real x, unary ones.
QUATERNION_OPS = (lambda p, q: p + q, lambda p, q: p - q, lambda p, q: p * q)
REAL_OPS = (lambda p, x: p + x, lambda p, x: x + p, lambda p, x: p - x,
            lambda p, x: x - p, lambda p, x: p * x, lambda p, x: x * p,
            lambda p, x: p / x, lambda p, x: -p,
            lambda p, x: type(p).from_real(p.modulus_squared()),
            lambda p, x: type(p).from_real(p.a))


@given(data=st.data())
def test_qarray_operators_match_quaternion_bitwise(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    p = data.draw(hnp.arrays(np.float64, (4, n), elements=FINITE))
    q = data.draw(hnp.arrays(np.float64, (4, n), elements=FINITE))
    x = data.draw(FINITE.filter(lambda v: v != 0.0))
    ps = [Quaternion(*p[:, k].tolist()) for k in range(n)]
    qs = [Quaternion(*q[:, k].tolist()) for k in range(n)]
    cases = [(lambda fn=fn: fn(QArray(p), QArray(q)),
              lambda k, fn=fn: fn(ps[k], qs[k])) for fn in QUATERNION_OPS]
    # A Quaternion operand applies to every element of the QArray.
    cases += [(lambda fn=fn: fn(ps[0], QArray(q)),
               lambda k, fn=fn: fn(ps[0], qs[k])) for fn in QUATERNION_OPS]
    cases += [(lambda fn=fn: fn(QArray(p), qs[0]),
               lambda k, fn=fn: fn(ps[k], qs[0])) for fn in QUATERNION_OPS]
    cases += [(lambda fn=fn: fn(QArray(p), x),
               lambda k, fn=fn: fn(ps[k], x)) for fn in REAL_OPS]
    for batched, scalar in cases:
        with np.errstate(over="ignore", invalid="ignore"):
            out = batched()
        assert isinstance(out, QArray)
        expected = np.array([tuple(scalar(k)) for k in range(n)]).T
        assert _same_bits(out.c, expected)


@given(p=hnp.arrays(np.float64, st.tuples(st.just(4), st.integers(1, 4)),
                   elements=FINITE))
def test_qarray_methods_match_quaternion_bitwise(p):
    ps = [Quaternion(*p[:, k].tolist()) for k in range(p.shape[1])]
    names = ["conjugate", "vector", "modulus", "vector_modulus", "modulus_squared",
             "__abs__"]
    with np.errstate(over="ignore", invalid="ignore"):
        if all(q.modulus_squared() != 0.0 for q in ps):
            names.append("inverse")
        else:
            with pytest.raises(ValueError, match="no inverse"):
                QArray(p).inverse()
        for name in names:
            out = getattr(QArray(p), name)()
            expected = np.array([getattr(q, name)() for q in ps]).T
            assert _same_bits(getattr(out, "c", out), expected), name


@given(data=st.data())
def test_qarray_scales_by_one_real_per_element(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    p = data.draw(hnp.arrays(np.float64, (4, n), elements=FINITE))
    x = data.draw(hnp.arrays(np.float64, (n,), elements=NONZERO))
    ps = [Quaternion(*p[:, k].tolist()) for k in range(n)]
    xs = x.tolist()
    cases = [(lambda: QArray(p) * x, lambda k: ps[k] * xs[k]),
             (lambda: x * QArray(p), lambda k: xs[k] * ps[k]),
             (lambda: QArray(p) / x, lambda k: ps[k] / xs[k]),
             # One quaternion meets every element's real.
             (lambda: QArray.from_real(1.0) * x, lambda k: ONE * xs[k])]
    for batched, scalar in cases:
        with np.errstate(over="ignore", invalid="ignore"):
            out = batched()
        assert _same_bits(out.c, np.array([tuple(scalar(k)) for k in range(n)]).T)


@given(data=st.data())
def test_qarray_adds_one_real_per_element(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    p = data.draw(hnp.arrays(np.float64, (4, n), elements=FINITE))
    x = data.draw(hnp.arrays(np.float64, (n,), elements=FINITE))
    ps = [Quaternion(*p[:, k].tolist()) for k in range(n)]
    xs = x.tolist()
    cases = [(lambda: QArray(p) + x, lambda k: ps[k] + xs[k]),
             (lambda: x + QArray(p), lambda k: xs[k] + ps[k]),
             (lambda: QArray(p) - x, lambda k: ps[k] - xs[k]),
             (lambda: x - QArray(p), lambda k: xs[k] - ps[k])]
    for batched, scalar in cases:
        with np.errstate(over="ignore", invalid="ignore"):
            out = batched()
        assert _same_bits(out.c, np.array([tuple(scalar(k)) for k in range(n)]).T)


@given(p=hnp.arrays(np.float64, st.tuples(st.just(4), st.integers(1, 4)),
                   elements=FINITE))
def test_involutions_of_a_qarray_match_quaternion_bitwise(p):
    ps = [Quaternion(*p[:, k].tolist()) for k in range(p.shape[1])]
    for axis in AXES:
        out = involute(QArray(p), axis)
        assert _same_bits(out.c, np.array([involute(q, axis) for q in ps]).T), axis
    with pytest.raises(ValueError, match="unknown involution axis"):
        involute(QArray(p), "x")


def test_qarray_element_axes_align_from_the_right():
    rng = np.random.default_rng(SEED)
    coef = rng.normal(size=(4, 3))
    points = rng.normal(size=(4, 2, 3))
    real = rng.normal(size=3)
    products = (QArray(coef) * QArray(points), QArray(points) * QArray(coef),
                QArray(points) - QArray(coef), QArray(points) * real)
    for m in range(2):
        for n in range(3):
            c = Quaternion(*coef[:, n].tolist())
            q = Quaternion(*points[:, m, n].tolist())
            expected = (c * q, q * c, q - c, q * real[n])
            assert [tuple(out.c[:, m, n].tolist()) for out in products] == \
                [tuple(e) for e in expected]


def test_rotate_takes_qarrays_and_rejects_a_zero_axis():
    rng = make_rng(SEED, stream=7)
    qs = [random_quaternion(rng) for _ in range(5)]
    mus = [random_quaternion(rng) for _ in range(5)]
    out = rotate(QArray(list(zip(*qs))), QArray(list(zip(*mus))))
    assert [tuple(c) for c in out.c.T.tolist()] == \
        [tuple(rotate(q, mu)) for q, mu in zip(qs, mus)]
    mus[3] = ZERO
    with pytest.raises(ValueError, match="nonzero"):
        rotate(QArray(list(zip(*qs))), QArray(list(zip(*mus))))


# Axes that rotate to NaN: a NaN or infinite component, or a |mu|^2 that
# overflows.
NON_FINITE_AXES = [Quaternion(math.nan, 0.0, 0.0, 0.0), Quaternion(math.inf, 0.0, 0.0, 0.0),
                   Quaternion(1e200, 1e200, 0.0, 0.0)]
NON_FINITE_IDS = ["nan", "inf", "overflowing"]


@pytest.mark.parametrize("mu", NON_FINITE_AXES, ids=NON_FINITE_IDS)
def test_rotate_rejects_a_non_finite_axis_naming_it(mu):
    # The rotation was NaN: only a zero axis was rejected.
    with pytest.raises(ValueError, match=re.escape(f"rotation axis {format_quaternion(mu)} "
                                                   f"must be finite")):
        rotate(I, mu)
    rng = make_rng(SEED, stream=8)
    mus = [random_quaternion(rng, min_modulus=0.1) for _ in range(5)]
    mus[3] = mu
    # A QArray of axes names its first bad one.  Its |mu|^2 overflows with
    # numpy's warning, as any QArray arithmetic outside an np.errstate does.
    with pytest.raises(ValueError, match=re.escape(format_quaternion(mu))), \
            np.errstate(over="ignore"):
        rotate(I, QArray(list(zip(*mus))))


# An axis whose |mu|^2 overflows, and a QArray of axes that holds it second.
OVERFLOWING_AXIS = Quaternion(1e200, 1e200, 0.0, 0.0)
OVERFLOWING_AXES = QArray([[1.0, 1e200], [0.0, 1e200], [0.0, 0.0], [0.0, 0.0]])


def test_rotate_rejects_an_overflowing_axis_array_without_a_warning():
    # numpy's "overflow encountered in multiply" came first, and under
    # error::RuntimeWarning it was what the caller saw.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(format_quaternion(OVERFLOWING_AXIS))):
            rotate(I, OVERFLOWING_AXES)


@pytest.mark.parametrize("value", [0, 7, -3, 10 ** 400, np.int64(7), np.uint8(2)],
                         ids=["zero", "seven", "negative", "huge", "int64", "uint8"])
def test_integer_takes_any_integer_as_it_is(value):
    assert quaternion.integer("count", value) is value


@pytest.mark.parametrize("value", [True, False, 2.0, 2.5, np.float64(2.0), "3", None, 1 + 0j])
def test_integer_rejects_a_bool_and_whatever_is_no_integer_naming_the_key(value):
    with pytest.raises(ValueError, match=re.escape(f"count must be an integer, got {value!r}")):
        quaternion.integer("count", value)


def test_integer_holds_a_lower_bound_in_the_callers_words():
    assert quaternion.integer("points", 1, 1, "a positive integer") == 1
    for value in (0, -1, np.int64(0)):
        with pytest.raises(ValueError, match=re.escape(
                f"points must be a positive integer, got {value!r}")):
            quaternion.integer("points", value, 1, "a positive integer")


def test_qarray_rejects_division_by_a_quaternion():
    with pytest.raises(TypeError):
        QArray(np.ones((4, 2))) / ONE
    with pytest.raises(TypeError):
        ONE / QArray(np.ones((4, 2)))


def test_involutions_oracle():
    q = Quaternion(1.0, 1.0, 1.0, 1.0)
    assert involute(q, "1") == q
    assert involute(q, "i") == Quaternion(1.0, 1.0, -1.0, -1.0)
    assert involute(q, "j") == Quaternion(1.0, -1.0, 1.0, -1.0)
    assert involute(q, "k") == Quaternion(1.0, -1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="unknown involution axis"):
        involute(q, "x")


def test_involution_is_rotation():
    rng = make_rng(SEED)
    for _ in range(50):
        q = random_quaternion(rng)
        for axis in ("i", "j", "k"):
            assert isclose(involute(q, axis), rotate(q, UNITS[axis]))


def test_involution_self_inverse_and_multiplicative():
    rng = make_rng(SEED, stream=1)
    for _ in range(N_DRAWS):
        p = random_quaternion(rng)
        q = random_quaternion(rng)
        for axis in AXES:
            assert involute(involute(p, axis), axis) == p
            assert isclose(involute(p * q, axis),
                           involute(p, axis) * involute(q, axis))
            assert involute_conj(p, axis) == involute(p, axis).conjugate()


def test_rotation_oracle():
    assert isclose(rotate(I, J), -I)
    assert isclose(rotate(J, I), -J)
    assert isclose(rotate(K, K), K)
    with pytest.raises(ValueError, match="rotation axis must be nonzero"):
        rotate(I, ZERO)


def test_rotation_ignores_axis_scale():
    rng = make_rng(SEED, stream=2)
    for _ in range(50):
        q = random_quaternion(rng)
        mu = random_quaternion(rng, min_modulus=0.1)
        assert isclose(rotate(q, mu), rotate(q, mu * 3.5))
        assert isclose(rotate(rotate(q, mu), mu.inverse()), q)


def test_rotation_preserves_real_part_and_modulus():
    rng = make_rng(SEED, stream=3)
    for _ in range(N_DRAWS):
        q = random_quaternion(rng)
        mu = random_quaternion(rng, min_modulus=0.1)
        r = rotate(q, mu)
        assert r.a == pytest.approx(q.a, abs=1e-12)
        assert r.modulus() == pytest.approx(q.modulus(), abs=1e-12)


def test_mu_basis_matches_rotation():
    rng = make_rng(SEED, stream=5)
    for _ in range(50):
        mu = random_quaternion(rng, min_modulus=0.1)
        basis = mu_basis(mu)
        assert isclose(basis.i_mu, rotate(I, mu))
        assert isclose(basis.j_mu, rotate(J, mu))
        assert isclose(basis.k_mu, rotate(K, mu))
        for row, unit in zip(basis_matrix(basis), (basis.i_mu, basis.j_mu, basis.k_mu)):
            np.testing.assert_allclose(row, [unit.b, unit.c, unit.d],
                                       atol=1e-12)


def test_mu_basis_matrix_is_special_orthogonal():
    rng = make_rng(SEED, stream=6)
    for _ in range(N_DRAWS):
        m = basis_matrix(mu_basis(random_quaternion(rng, min_modulus=0.1)))
        np.testing.assert_allclose(m @ m.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)


def test_mu_basis_identity_axis():
    basis = mu_basis(ONE)
    assert basis.i_mu == I
    assert basis.j_mu == J
    assert basis.k_mu == K
    with pytest.raises(ValueError, match="nonzero"):
        mu_basis(ZERO)


def test_components_from_involutions_is_exact():
    # a = (q + q^i + q^j + q^k)/4, b = -i(q + q^i - q^j - q^k)/4 and
    # cyclically; pairwise association keeps the round trip exact.
    rng = make_rng(SEED, stream=7)
    for _ in range(N_DRAWS):
        q = random_quaternion(rng, -10.0, 10.0)
        qi, qj, qk = (involute(q, axis) for axis in "ijk")
        s_a = (q + qi) + (qj + qk)
        s_b = (q + qi) - (qj + qk)
        s_c = (q - qi) + (qj - qk)
        s_d = (q - qi) - (qj - qk)
        assert ((s_a / 4.0).a, ((-I) * (s_b / 4.0)).a, ((-J) * (s_c / 4.0)).a,
                ((-K) * (s_d / 4.0)).a) == tuple(q)


def test_conjugate_links():
    rng = make_rng(SEED, stream=8)
    for _ in range(50):
        q = random_quaternion(rng)
        qi, qj, qk = (involute(q, axis) for axis in "ijk")
        # q* = (-q + q^i + q^j + q^k)/2; for q^(eta*) the minus sign moves
        # to q^eta.
        assert isclose((-q + qi + qj + qk) / 2.0, q.conjugate())
        assert isclose((q - qi + qj + qk) / 2.0, involute_conj(q, "i"))
        assert isclose((q + qi - qj + qk) / 2.0, involute_conj(q, "j"))
        assert isclose((q + qi + qj - qk) / 2.0, involute_conj(q, "k"))


def test_format_parse_roundtrip():
    rng = make_rng(SEED, stream=10)
    for _ in range(N_DRAWS):
        q = random_quaternion(rng, -100.0, 100.0)
        assert parse_quaternion(format_quaternion(q)) == q


def test_parse_flexible_forms():
    assert parse_quaternion("1+2i+3j+4k") == Quaternion(1.0, 2.0, 3.0, 4.0)
    assert parse_quaternion("-i") == Quaternion(0.0, -1.0, 0.0, 0.0)
    assert parse_quaternion("3k - 2j") == Quaternion(0.0, 0.0, -2.0, 3.0)
    assert parse_quaternion("0") == ZERO
    assert parse_quaternion("1.5e-3i") == Quaternion(0.0, 1.5e-3, 0.0, 0.0)


# The last two overflow a double.
@pytest.mark.parametrize("text", ["", "1+2i+3i", "1+2x", "1++2i", "2i4j",
                                  "1e999", "1+2i-3e400k"])
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_quaternion(text)


def test_noncommutativity_witness():
    p = Quaternion(0.0, 1.0, 0.0, 0.0)
    q = Quaternion(0.0, 0.0, 1.0, 0.0)
    assert p * q != q * p
    assert p * q == -(q * p)


class _DrawCounter:
    """Generator proxy that stops a rejection loop which never ends."""

    def __init__(self, rng, limit):
        self.rng = rng
        self.limit = limit
        self.calls = 0

    def random(self, *args, **kwargs):
        self.calls += 1
        if self.calls > self.limit:
            raise AssertionError("rejection sampling kept drawing")
        return self.rng.random(*args, **kwargs)


def test_random_quaternion_unreachable_modulus_raises():
    # |q| <= 4 on [-2, 2]^4, so a modulus of 5 is never reached.
    rng = _DrawCounter(make_rng(3), limit=100_000)
    with pytest.raises(ValueError, match="modulus"):
        random_quaternion(rng, -2.0, 2.0, min_modulus=5.0)


def _state(rng) -> str:
    """The bit generator's whole state, its arrays as lists."""
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist)


def _uniform_quaternion(rng, lo, hi, min_modulus):
    """random_quaternion's oracle: rejection over rng.uniform 4-vectors."""
    while True:
        q = Quaternion.from_components(rng.uniform(lo, hi, size=4))
        if q.modulus() >= min_modulus:
            return q


@pytest.mark.parametrize("min_modulus", [0.0, 0.9])
@pytest.mark.parametrize("lo, hi", [(-2.0, 2.0), (-1.0, 1.0)])
def test_random_quaternion_rejection_keeps_the_stream(lo, hi, min_modulus):
    # Accepted draws are the first rng.uniform 4-vectors that reach the modulus.
    sampled, raw = make_rng(4), make_rng(4)
    for _ in range(N_DRAWS):
        assert _hex(random_quaternion(sampled, lo, hi, min_modulus)) == \
            _hex(_uniform_quaternion(raw, lo, hi, min_modulus))
    # The generators end in the same state, so later draws line up.
    assert _state(sampled) == _state(raw)
    assert sampled.random(5).tolist() == raw.random(5).tolist()


# Bounds of either sign and any exponent whose span hi - lo stays finite.
BOUND = st.floats(min_value=-1e300, max_value=1e300)


@given(BOUND, BOUND, st.integers(min_value=0, max_value=2**32 - 1))
def test_random_quaternion_matches_rng_uniform_on_any_finite_span(x, y, seed):
    lo, hi = min(x, y), max(x, y)
    sampled, raw = make_rng(seed), make_rng(seed)
    for _ in range(3):
        assert _hex(random_quaternion(sampled, lo, hi)) == \
            _hex(_uniform_quaternion(raw, lo, hi, 0.0))
    assert _state(sampled) == _state(raw)


def test_random_quaternion_rejects_an_infinite_span_as_rng_uniform_does():
    with pytest.raises(OverflowError):
        make_rng(1).uniform(-1e308, 1e308, size=4)
    with pytest.raises(OverflowError):
        random_quaternion(make_rng(1), -1e308, 1e308)




# Components of magnitude 1e-50 to 1e50, or signed zero: products of three
# stay clear of overflow, and moduli of products clear of underflow.
MAGNITUDE = st.floats(min_value=1e-50, max_value=1e50)
SCALED = st.one_of(st.sampled_from([0.0, -0.0]), MAGNITUDE, MAGNITUDE.map(lambda x: -x))
SCALED_QUATERNIONS = st.builds(Quaternion, SCALED, SCALED, SCALED, SCALED)
FINITE_QUATERNIONS = st.builds(Quaternion, FINITE, FINITE, FINITE, FINITE)


def _hex(q: Quaternion) -> tuple[str, ...]:
    return tuple(x.hex() for x in q)


@given(SCALED_QUATERNIONS, SCALED_QUATERNIONS)
def test_modulus_is_multiplicative(p, q):
    assert math.isclose(abs(p * q), abs(p) * abs(q), rel_tol=1e-12)


@given(SCALED_QUATERNIONS, SCALED_QUATERNIONS, SCALED_QUATERNIONS)
def test_product_is_associative(p, q, r):
    assert abs((p * q) * r - p * (q * r)) <= 1e-12 * abs(p) * abs(q) * abs(r)


@given(FINITE_QUATERNIONS, st.sampled_from(AXES))
def test_involutions_are_self_inverse(q, axis):
    assert _hex(involute(involute(q, axis), axis)) == _hex(q)
    assert _hex(involute_conj(involute_conj(q, axis), axis)) == _hex(q)
    assert _hex(q.conjugate().conjugate()) == _hex(q)


@given(SCALED_QUATERNIONS, SCALED_QUATERNIONS.filter(lambda mu: abs(mu) > 0.0))
def test_rotation_preserves_modulus(q, mu):
    assert math.isclose(abs(rotate(q, mu)), abs(q), rel_tol=1e-12)


@given(FINITE_QUATERNIONS)
def test_format_parse_round_trip_is_bitwise(q):
    assert _hex(parse_quaternion(format_quaternion(q))) == _hex(q)


def _format_by_component(q: Quaternion) -> str:
    """format_quaternion's oracle: each component on its own, its sign by
    copysign, so -0.0 shows as "-0"."""
    parts = [f"{q.a:.17g}"]
    for value, unit in ((q.b, "i"), (q.c, "j"), (q.d, "k")):
        sign = "-" if value < 0 or (value == 0 and math.copysign(1.0, value) < 0) else "+"
        parts.append(f"{sign}{abs(value):.17g}{unit}")
    return "".join(parts)


# Every float: signed zeros, both infinities, NaN with either sign bit,
# subnormals and the ends of the exponent range drawn often.
ANY_FLOAT = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                     5e-324, -5e-324, 2.2250738585072009e-308, 1e-308, -1e-308,
                     1e308, -1e308, 1.7976931348623157e308]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))


@given(st.builds(Quaternion, ANY_FLOAT, ANY_FLOAT, ANY_FLOAT, ANY_FLOAT))
def test_format_quaternion_matches_the_per_component_form(q):
    assert format_quaternion(q) == _format_by_component(q)


def test_format_quaternion_signs():
    assert format_quaternion(Quaternion(-0.0, -0.0, 0.0, -math.nan)) == "-0-0i+0j+nank"
    assert format_quaternion(Quaternion(math.nan, -math.inf, math.inf, -1.5)) == \
        "nan-infi+infj-1.5k"


# Every operator of both types with a real operand on the side it takes
# one, and the same operator with the operand's float.
OPERAND_OPS = {"+": lambda p, x: p + x, "r+": lambda p, x: x + p, "-": lambda p, x: p - x,
               "r-": lambda p, x: x - p, "*": lambda p, x: p * x, "r*": lambda p, x: x * p,
               "/": lambda p, x: p / x}


@pytest.mark.parametrize("x", [Fraction(1, 3), np.float32(0.1), np.int64(3), True, 7],
                         ids=["fraction", "float32", "int64", "bool", "int"])
@pytest.mark.parametrize("op", OPERAND_OPS.values(), ids=OPERAND_OPS.keys())
def test_any_real_operand_acts_as_its_float(op, x):
    q = Quaternion(1.0, -2.0, 3.0, 0.5)
    assert op(q, x) == op(q, float(x)) and type(op(q, x)) is Quaternion
    batch = QArray(np.array([tuple(q), (-0.0, 0.25, 7.0, -1e300)]).T)
    assert _same_bits(op(batch, x).c, op(batch, float(x)).c)


class _TakesNothing:
    """What Python raises when every operator returns NotImplemented."""

    __array_ufunc__ = None

    def _nothing(self, other):
        return NotImplemented

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = __truediv__ = _nothing


@pytest.mark.parametrize("x", ["2", Decimal("2"), 2j, None], ids=["str", "decimal",
                                                                  "complex", "none"])
@pytest.mark.parametrize("op", OPERAND_OPS.values(), ids=OPERAND_OPS.keys())
def test_an_operand_that_is_not_real_is_not_implemented(op, x):
    # A QArray's operators return NotImplemented, the reflected - too, so
    # Python names the operator as written; a Quaternion, a tuple, may get
    # a tuple's TypeError.
    with pytest.raises(TypeError):
        op(Quaternion(1.0, -2.0, 3.0, 0.5), x)
    with pytest.raises(TypeError) as expected:
        op(_TakesNothing(), x)
    with pytest.raises(TypeError) as got:
        op(QArray(np.ones((4, 2))), x)
    assert str(got.value) == str(expected.value).replace("_TakesNothing", "QArray")
