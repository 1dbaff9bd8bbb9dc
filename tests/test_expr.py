"""Expression language: parsing, precedence, evaluation, derivatives,
and the compiled bundles checked against the tree walk."""

import math

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings, \
    strategies as st

import thermolab.expr
from thermolab.errors import DomainError, ParseError, UnknownIdentifier
from thermolab.expr import CHUNK_POINTS, VARIABLES, Bundle, _FLOATS, \
    _MATH_ALLOWLIST, _UFUNCS, _operands, _straight_line, parse_expression

FUNCS = ["sin", "cos", "tan", "exp", "log", "sqrt", "tanh", "abs", "sign"]


def test_simple_values():
    assert parse_expression("sin(2*pi*x)").eval(0.25, 0.0, 0.0) == \
        pytest.approx(1.0)
    assert parse_expression("2+3*4").eval(0.0, 0.0, 0.0) == 14.0
    assert parse_expression("(2+3)*4").eval(0.0, 0.0, 0.0) == 20.0


def test_power_right_associative_and_tight():
    # 2^3^2 = 2^(3^2) = 512; -x^2 = -(x^2)
    assert parse_expression("2^3^2").eval(0, 0, 0) == 512.0
    assert parse_expression("-x^2").eval(3.0, 0, 0) == -9.0
    assert parse_expression("2*x^2").eval(3.0, 0, 0) == 18.0


def test_variables_and_constants():
    e = parse_expression("x + 2*y - theta/pi")
    assert e.eval(1.0, 2.0, np.pi) == pytest.approx(4.0)


def test_unknown_identifier_offset():
    with pytest.raises(UnknownIdentifier) as exc:
        parse_expression("siin(x)")
    assert exc.value.offset == 0


def test_parse_error_reports_offset():
    with pytest.raises(ParseError):
        parse_expression("1 + * 2")
    with pytest.raises(ParseError):
        parse_expression("")


def test_print_parse_round_trip():
    rng = np.random.default_rng(11)
    texts = ["sin(2*pi*x)*cos(theta) + exp(-y^2)",
             "x^2 - 3*y/(1 + theta^2)",
             "tanh(x*y) + sqrt(abs(y) + 1)",
             "-(x + y)*sin(theta)/2"]
    for text in texts:
        e = parse_expression(text)
        e2 = parse_expression(str(e))
        pts = rng.uniform(0.2, 1.5, (100, 3))
        for x, y, th in pts:
            assert e2.eval(x, y, th) == pytest.approx(e.eval(x, y, th),
                                                      abs=1e-15, rel=1e-15)


@pytest.mark.parametrize("fn", FUNCS)
def test_derivative_matches_fd(fn):
    e = parse_expression(f"{fn}(x*y + theta/3)")
    d = e.diff("x")
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(20):
        x, y, th = rng.uniform(0.3, 0.9, 3)
        fd = (e.eval(x + h, y, th) - e.eval(x - h, y, th)) / (2 * h)
        assert d.eval(x, y, th) == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_derivative_built_once_per_node():
    # a derivative is kept on its node: asked again, the same object; a
    # subtree shared by two parents has one derivative, which both reuse
    e = parse_expression("exp(x*y)*sin(x) + x^3")
    assert e.diff("x") is e.diff("x")
    assert e.diff("y") is not e.diff("x")
    shared = parse_expression("exp(x*y)")
    f = shared * shared.diff("x") + shared
    d = f.diff("x")
    assert d.b is shared.diff("x")


def test_theta_derivative():
    e = parse_expression("sin(theta)^2")
    d = e.diff("theta")
    assert d.eval(0.0, 0.0, 0.7) == pytest.approx(2 * np.sin(0.7) * np.cos(0.7))


def test_vectorized_eval():
    e = parse_expression("x^2 + sin(theta)")
    x = np.linspace(0, 1, 7)
    out = e.eval(x, 0.0, np.pi / 2)
    assert np.allclose(out, x ** 2 + 1.0)


# ---------------------------------------------------------------------------
# Compiled bundles against the tree walk
# ---------------------------------------------------------------------------

# a grid that crosses the block size, with zeros for division by zero and
# log/sqrt of zero and of negatives
_RNG = np.random.default_rng(3)
GRID = _RNG.uniform(-3.0, 3.0, (3, CHUNK_POINTS + 123))
GRID[:, ::97] = 0.0

_LEAVES = st.sampled_from(["x", "y", "theta", "pi", "0", "1", "2", "0.5",
                           "3"])


def _extend(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/^"), children).map(
            lambda t: f"({t[0]}){t[1]}({t[2]})"),
        st.tuples(st.sampled_from(FUNCS), children).map(
            lambda t: f"{t[0]}({t[1]})"),
        children.map(lambda c: f"-({c})"))


# every drawn tree is extended twice more, so that the properties meet
# nested calls and operators, not mostly one- or two-node trees
EXPRESSIONS = _extend(_extend(st.recursive(_LEAVES, _extend,
                                           max_leaves=10)))
PROPERTY = settings(max_examples=120, deadline=None, database=None,
                    derandomize=True)


def _parse_with_derivatives(text):
    try:
        e = parse_expression(text)
        return [e] + [e.diff(v) for v in VARIABLES]
    except DomainError:
        # constant folding in Python floats: 1/0, 3^1000 and (-2)^0.5 at
        # parse time, and 1/0 in the derivative of log(0)
        assume(False)


@PROPERTY
@given(EXPRESSIONS)
def test_bundle_matches_tree_walk_on_grid(text):
    exprs = _parse_with_derivatives(text)
    x, y, th = GRID
    with np.errstate(all="ignore"):
        compiled = Bundle(exprs)(x, y, th)
        for value, e in zip(compiled, exprs):
            walked = np.broadcast_to(e.eval(x, y, th), x.shape)
            assert value.shape == x.shape
            assert np.array_equal(value, walked, equal_nan=True), str(e)


@PROPERTY
@given(EXPRESSIONS)
def test_bundle_scalars_match_bundle_grid(text):
    bundle = Bundle(_parse_with_derivatives(text))
    x, y, th = GRID[:, :40]
    with np.errstate(all="ignore"):
        grid = bundle(x, y, th)
        for i in range(x.size):
            point = bundle.kernel(x[i], y[i], th[i])
            for value, column in zip(point, grid):
                assert np.array_equal(value, column[i], equal_nan=True)


def _same_bits(a, b):
    """a and b are the same float64, bit for bit, or both NaN."""
    a, b = np.float64(a), np.float64(b)
    return a.tobytes() == b.tobytes() or (np.isnan(a) and np.isnan(b))


# no shrinking: a failing example already names its expression and first
# bad column, and shrinking one that loops over 40 columns took minutes
@settings(PROPERTY, phases=[p for p in Phase if p is not Phase.shrink])
@given(EXPRESSIONS)
def test_float_binding_matches_kernel(text):
    # the float binding at Python floats against the numpy kernel at
    # float64 scalars; GRID's zeros make the float program raise (x/0),
    # so the fallback to the kernel is covered too
    bundle = Bundle(_parse_with_derivatives(text))
    x, y, th = GRID[:, :40]
    bad = []
    with np.errstate(all="ignore"):
        for i in range(x.size):
            point = bundle.kernel(x[i], y[i], th[i])
            floats = bundle.scalar(*(float(v[i]) for v in (x, y, th)))
            if len(floats) != len(point) or not all(
                    _same_bits(v, e) for v, e in zip(floats, point)):
                bad.append(i)
    assert not bad, f"{text!r}: {len(bad)} bad columns, first {bad[0]}"


@pytest.mark.parametrize("text, point, expected", [
    ("1/x", (0.0, 0.0, 0.0), math.inf),           # ZeroDivisionError
    ("sin(1/x)", (0.0, 0.0, 0.0), math.nan),      # 1/0, then sin(inf)
    ("sin(x*x)", (1e200, 0.0, 0.0), math.nan),    # math.sin(inf) raises
    ("cos(x*x) + 1/y", (1e200, 1.0, 0.0), math.nan),
])
def test_float_binding_falls_back_to_numpy(text, point, expected):
    bundle = Bundle([parse_expression(text)])
    with np.errstate(all="ignore"):
        (value,) = bundle.scalar(*point)
        (reference,) = bundle.kernel(*map(np.float64, point))
    assert _same_bits(value, expected)
    assert _same_bits(value, reference)


# a fixed seeded sample for the math allowlist: signed zeros, subnormals,
# multiples of pi/2 and their neighbours, and magnitudes up to 1e6
_SAMPLE_RNG = np.random.default_rng(29)
_HALF_PI_MULTIPLES = np.pi / 2 * np.concatenate(
    [np.arange(-40.0, 41.0), _SAMPLE_RNG.integers(-636619, 636620, 200)])
_ALLOWLIST_SAMPLE = np.concatenate([
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e6, -1e6],
    _SAMPLE_RNG.uniform(-1.0, 1.0, 100) * 2.2250738585072014e-308,
    _HALF_PI_MULTIPLES,
    np.nextafter(_HALF_PI_MULTIPLES, np.inf),
    np.nextafter(_HALF_PI_MULTIPLES, -np.inf),
    (_SAMPLE_RNG.uniform(-1.0, 1.0, 3000)
     * 10.0 ** _SAMPLE_RNG.uniform(-300.0, 6.0, 3000)),
    _SAMPLE_RNG.uniform(-1e6, 1e6, 2000),
])


def test_float_table_takes_only_the_allowlist_from_math():
    assert set(_FLOATS) == set(_UFUNCS)
    for name, fn in _FLOATS.items():
        if name in _MATH_ALLOWLIST:
            assert fn is getattr(math, name)
        else:
            assert getattr(fn, "__module__", None) == "thermolab.expr"


@pytest.mark.parametrize("name", sorted(_MATH_ALLOWLIST))
def test_math_allowlist_matches_numpy(name):
    # the float binding takes these functions from math (sin and cos):
    # each must give its ufunc's bits at float64 scalars.  A function that
    # fails here leaves the allowlist; this test is never loosened.
    fn, ufunc = _MATH_ALLOWLIST[name], _UFUNCS[name]
    for v in _ALLOWLIST_SAMPLE:
        assert np.float64(fn(float(v))).tobytes() == \
            ufunc(np.float64(v)).tobytes(), (name, float(v).hex())


def test_bundle_compiled_once_for_both_bindings(monkeypatch):
    # one compile per bundle, bound once to each table it is used with;
    # a bundle evaluated on grids only never binds the float table
    compiled, bound = [], []
    compile_ = thermolab.expr._compile

    def counted(exprs):
        compiled.append(exprs)
        bind = compile_(exprs)

        def counted_bind(table):
            bound.append(table)
            return bind(table)
        return counted_bind
    monkeypatch.setattr(thermolab.expr, "_compile", counted)
    e = parse_expression("sin(x)*exp(y) + theta/x")
    x = np.linspace(0.5, 1.0, 5)
    both = Bundle([e])
    both(x, 0.2, 0.3)
    assert both.scalar(0.5, 0.2, 0.3) == both.kernel(
        np.float64(0.5), np.float64(0.2), np.float64(0.3))
    both.scalar(0.7, 0.2, 0.3)
    both(x, 0.4, 0.1)
    assert len(compiled) == 1
    assert bound == [_UFUNCS, _FLOATS]
    grid_only = Bundle([e])
    grid_only(x, 0.2, 0.3)
    grid_only(np.ones((3, CHUNK_POINTS + 1)), 0.2, 0.3)
    assert len(compiled) == 2
    assert bound == [_UFUNCS, _FLOATS, _UFUNCS]


@PROPERTY
@given(EXPRESSIONS)
@example("(-(0.5-0.5))^theta")  # a folded -0.0 base must print in parens
def test_print_parse_round_trip_random(text):
    x, y, th = GRID
    for e in _parse_with_derivatives(text):
        printed = str(e)
        e2 = parse_expression(printed)
        assert str(e2) == printed
        with np.errstate(all="ignore"):
            walked = np.broadcast_to(e.eval(x, y, th), x.shape)
            reread = np.broadcast_to(e2.eval(x, y, th), x.shape)
        assert np.array_equal(reread, walked, equal_nan=True), printed


def test_bundle_shares_subexpressions():
    exprs = [parse_expression(t) for t in
             ("exp(-x)*cos(theta)", "exp(-x)*sin(theta)", "sin(theta)^2")]
    lines, outputs, constants = _straight_line(exprs)
    # -x, exp, cos, product, sin, product, power: each computed once
    assert [code for _, code, _ in lines].count("exp(t0)") == 1
    assert len(lines) == 7
    assert len(set(outputs)) == 3
    assert sorted(constants.values()) == [2.0]


def test_bundle_folds_variable_free_trees_like_the_tree_walk():
    # sin(1)^2.5 is a numpy scalar ** float in the walk (C pow); the fold
    # keeps that value, so the grid results agree bit for bit
    e = parse_expression("sin(1)^2.5*x + (cos(2) + 1)^(1/3)")
    x = np.linspace(0.0, 1.0, 11)
    (value,) = Bundle([e])(x, 0.0, 0.0)
    assert np.array_equal(value, e.eval(x, 0.0, 0.0))
    lines, _, _ = _straight_line([e])
    assert len(lines) == 2


# points for the derivative property: away from 0, where abs, sign and
# the general power rule have their kinks and singularities
_POINTS = _RNG.uniform(-2.0, 2.0, (3, 64))
_POINTS[np.abs(_POINTS) < 0.05] += 0.1


def _central_difference(e, var, h):
    """4th-order central difference of e in var at _POINTS."""
    k = VARIABLES.index(var)

    def shifted(offset):
        p = _POINTS.copy()
        p[k] += offset
        return np.broadcast_to(e.eval(*p), p[0].shape)

    return (-shifted(2 * h) + 8 * shifted(h) - 8 * shifted(-h)
            + shifted(-2 * h)) / (12 * h)


def _well_defined(e):
    """Where every subexpression of e is finite and at most 1e12 in
    magnitude at _POINTS."""
    nodes, defined = [e], np.ones(_POINTS.shape[1], dtype=bool)
    while nodes:
        node = nodes.pop()
        nodes.extend(_operands(node))
        defined &= np.abs(node.eval(*_POINTS)) <= 1e12
    return defined


# a function of a binary combination of random subexpressions, so that
# every derivative rule meets a non-trivial argument
_COMPOSITES = st.tuples(st.sampled_from(FUNCS), EXPRESSIONS,
                        st.sampled_from("+-*/^"), EXPRESSIONS).map(
    lambda t: f"{t[0]}(({t[1]}){t[2]}({t[3]}))")


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_COMPOSITES)
# zero bases under a variable exponent, which once read 0 * log(0) = nan
@example("sin(((0)^(x))+(y))")
@example("sin(((sin(0))^(x))-(x))")
# a subexpression that absorbs every shift of y
@example("sin(((x+y)+(-0.5))+(exp((x)^(theta))))")
def test_diff_matches_central_difference(text):
    # where two step sizes agree, the expression is smooth across the
    # stencil and the difference is a reference for the derivative; only
    # where every subexpression is defined: not where one is nan or
    # infinite although the whole has a value (nan^0 = 1, tanh(inf) = 1),
    # and not where one is so large that rounding absorbs the shifts
    # (sin(y + exp(x^theta)) with exp(x^theta) ~ 1e19), so that both
    # differences are 0 whatever the derivative
    e = _parse_with_derivatives(text)[0]
    with np.errstate(all="ignore"):
        defined = _well_defined(e)
        for var in VARIABLES:
            coarse = _central_difference(e, var, 1e-3)
            fine = _central_difference(e, var, 5e-4)
            exact = np.broadcast_to(e.diff(var).eval(*_POINTS),
                                    fine.shape)
            smooth = np.isfinite(coarse) & np.isfinite(fine) & \
                (np.abs(coarse - fine) <= 1e-7 * (1.0 + np.abs(fine))) & \
                defined
            err = np.abs(exact - fine)[smooth]
            scale = 1.0 + np.abs(fine[smooth])
            assert np.all(err <= 1e-6 * scale), (str(e), var)
