"""Small arithmetic expression language with symbolic differentiation.

Expressions are ASTs over the variables x, y, theta, the constant pi,
the binary operators + - * / ^ (with ^ binding tightest and right
associative), unary minus, and the functions sin, cos, tan, exp, log,
sqrt, tanh, abs.  Every node type knows its own partial derivatives, so
arbitrarily nested derivatives stay analytic.

`Expr.eval` walks the tree and is the reference evaluator.  Fields and
right-hand sides evaluate through `Bundle`, which compiles a list of
trees once, on first use, into one straight-line program that computes
each common subexpression once.  The program is bound to numpy ufuncs
(`Bundle.kernel`, for float64 scalars and arrays, the same floats as the
walk on arrays) and, for one point at a time, to Python floats
(`Bundle.scalar`, the same bits as the kernel at float64 scalars).
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import DomainError, ParseError, UnknownIdentifier

VARIABLES = ("x", "y", "theta")

_CONSTANTS = {"pi": np.pi}

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "tanh": np.tanh,
    "abs": np.abs,
    "sign": np.sign,    # the derivative of abs
}


class Expr:
    """Base expression node."""

    def eval(self, x, y, theta):
        raise NotImplementedError

    def diff(self, var):
        """The partial derivative in var, built once by the node type's rule
        `_diff` and kept on the node: a subtree shared by several parents has
        one derivative, which `Bundle` compiles once."""
        memo = vars(self).setdefault("_derivatives", {})
        if var not in memo:
            memo[var] = self._diff(var)
        return memo[var]

    def __call__(self, x, y, theta):
        return self.eval(x, y, theta)

    # -- operator sugar used internally when assembling derived fields --

    def __add__(self, other):
        return add(self, as_expr(other))

    def __radd__(self, other):
        return add(as_expr(other), self)

    def __sub__(self, other):
        return sub(self, as_expr(other))

    def __rsub__(self, other):
        return sub(as_expr(other), self)

    def __mul__(self, other):
        return mul(self, as_expr(other))

    def __rmul__(self, other):
        return mul(as_expr(other), self)

    def __truediv__(self, other):
        return div(self, as_expr(other))

    def __rtruediv__(self, other):
        return div(as_expr(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, other):
        return pow_(self, as_expr(other))


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = float(value)

    def eval(self, x, y, theta):
        return self.value

    def _diff(self, var):
        return Const(0.0)

    def __str__(self):
        # -0.0 too: unparenthesized, (-0.0)^theta would read as -(0.0^theta)
        if math.copysign(1.0, self.value) < 0:
            return f"({self.value!r})"
        return repr(self.value)


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def eval(self, x, y, theta):
        return {"x": x, "y": y, "theta": theta}[self.name]

    def _diff(self, var):
        return Const(1.0 if var == self.name else 0.0)

    def __str__(self):
        return self.name


class Binary(Expr):
    __slots__ = ("a", "b")
    op = "?"

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __str__(self):
        return f"({self.a}{self.op}{self.b})"


class Add(Binary):
    op = "+"

    def eval(self, x, y, theta):
        return self.a.eval(x, y, theta) + self.b.eval(x, y, theta)

    def _diff(self, var):
        return add(self.a.diff(var), self.b.diff(var))


class Sub(Binary):
    op = "-"

    def eval(self, x, y, theta):
        return self.a.eval(x, y, theta) - self.b.eval(x, y, theta)

    def _diff(self, var):
        return sub(self.a.diff(var), self.b.diff(var))


class Mul(Binary):
    op = "*"

    def eval(self, x, y, theta):
        return self.a.eval(x, y, theta) * self.b.eval(x, y, theta)

    def _diff(self, var):
        return add(
            mul(self.a.diff(var), self.b),
            mul(self.a, self.b.diff(var)),
        )


class Div(Binary):
    op = "/"

    def eval(self, x, y, theta):
        return self.a.eval(x, y, theta) / self.b.eval(x, y, theta)

    def _diff(self, var):
        da, db = self.a.diff(var), self.b.diff(var)
        return div(
            sub(mul(da, self.b), mul(self.a, db)),
            mul(self.b, self.b),
        )


class Pow(Binary):
    op = "^"

    def eval(self, x, y, theta):
        return self.a.eval(x, y, theta) ** self.b.eval(x, y, theta)

    def _diff(self, var):
        da, db = self.a.diff(var), self.b.diff(var)
        if isinstance(self.b, Const):
            # d(u^c) = c * u^(c-1) * u'
            return mul(
                mul(self.b, pow_(self.a, Const(self.b.value - 1.0))),
                da,
            )
        # d(u^v) = u^v * (v' log w + v u'/w) with w = u where u != 0 and
        # w = 1 where u = 0: there u^v = 0 (v > 0), and log(u) and u'/u
        # would turn the product into 0 * inf = nan
        w = self.a
        if not (_is_const(w) and w.value != 0.0):
            w = add(w, sub(Const(1.0), call("abs", call("sign", w))))
        return mul(
            self,
            add(mul(db, call("log", w)), mul(self.b, div(da, w))),
        )


class Neg(Expr):
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def eval(self, x, y, theta):
        return -self.a.eval(x, y, theta)

    def _diff(self, var):
        return neg(self.a.diff(var))

    def __str__(self):
        return f"(-{self.a})"


class Call(Expr):
    __slots__ = ("fn", "a")

    def __init__(self, fn, a):
        self.fn = fn
        self.a = a

    def eval(self, x, y, theta):
        return _FUNCTIONS[self.fn](self.a.eval(x, y, theta))

    def _diff(self, var):
        u, du = self.a, self.a.diff(var)
        if self.fn == "sin":
            outer = call("cos", u)
        elif self.fn == "cos":
            outer = neg(call("sin", u))
        elif self.fn == "tan":
            outer = div(Const(1.0), mul(call("cos", u), call("cos", u)))
        elif self.fn == "exp":
            outer = self
        elif self.fn == "log":
            outer = div(Const(1.0), u)
        elif self.fn == "sqrt":
            outer = div(Const(0.5), self)
        elif self.fn == "tanh":
            outer = sub(Const(1.0), mul(self, self))
        elif self.fn == "abs":
            outer = call("sign", u)
        elif self.fn == "sign":
            outer = Const(0.0)
        else:  # pragma: no cover
            raise ValueError(f"no derivative rule for {self.fn}")
        return mul(outer, du)

    def __str__(self):
        return f"{self.fn}({self.a})"


def as_expr(obj):
    if isinstance(obj, Expr):
        return obj
    if isinstance(obj, (int, float)):
        return Const(obj)
    if isinstance(obj, str):
        return parse_expression(obj)
    raise TypeError(f"cannot convert {type(obj)!r} to Expr")


def _is_const(e, value=None):
    return isinstance(e, Const) and (value is None or e.value == value)


# Smart constructors with light constant folding.  They keep the ASTs
# produced by repeated frame-operator application from ballooning.

def add(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def sub(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return Sub(a, b)


def mul(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Mul(a, b)


_FOLDS = {"/": operator.truediv, "^": operator.pow}


def _fold(a, op, b):
    """Const(a op b) for two constants, folded in Python floats; an
    undefined, overflowing or non-real result raises DomainError."""
    try:
        result = _FOLDS[op](a.value, b.value)
    except ZeroDivisionError:
        raise DomainError(f"constant expression {a}{op}{b} divides by "
                          "zero") from None
    except OverflowError:
        raise DomainError(f"constant expression {a}{op}{b} overflows") \
            from None
    if isinstance(result, complex):
        raise DomainError(f"constant expression {a}{op}{b} is not real")
    return Const(result)


def div(a, b):
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b):
        return _fold(a, "/", b)
    return Div(a, b)


def neg(a):
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def pow_(a, b):
    if _is_const(b, 1.0):
        return a
    if _is_const(b, 0.0):
        return Const(1.0)
    if _is_const(a) and _is_const(b):
        return _fold(a, "^", b)
    return Pow(a, b)


def call(fn, a):
    return Call(fn, a)


# ---------------------------------------------------------------------------
# Parser: recursive descent with standard precedence.
#   expr   := term (('+'|'-') term)*
#   term   := unary (('*'|'/') unary)*
#   unary  := '-' unary | power
#   power  := atom ('^' unary)?          (right associative)
#   atom   := NUMBER | IDENT '(' expr ')' | IDENT | '(' expr ')'
# ---------------------------------------------------------------------------

class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._scan()
        self.index = 0

    def _scan(self):
        text = self.text
        i = 0
        n = len(text)
        while i < n:
            c = text[i]
            if c.isspace():
                i += 1
                continue
            if c.isdigit() or c == ".":
                j = i
                while j < n and (text[j].isdigit() or text[j] == "."):
                    j += 1
                # exponent part
                if j < n and text[j] in "eE":
                    k = j + 1
                    if k < n and text[k] in "+-":
                        k += 1
                    if k < n and text[k].isdigit():
                        j = k
                        while j < n and text[j].isdigit():
                            j += 1
                try:
                    value = float(text[i:j])
                except ValueError:
                    raise ParseError(f"bad number '{text[i:j]}'", i)
                self.tokens.append(("num", value, i))
                i = j
            elif c.isalpha() or c == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("ident", text[i:j], i))
                i = j
            elif c in "+-*/^()":
                self.tokens.append((c, c, i))
                i += 1
            else:
                raise ParseError(f"unexpected character '{c}'", i)
        self.tokens.append(("end", None, n))

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok


class _Parser:
    def __init__(self, text):
        self.toks = _Tokenizer(text)

    def parse(self):
        e = self.expr()
        kind, _, offset = self.toks.peek()
        if kind != "end":
            raise ParseError("trailing input", offset)
        return e

    def expr(self):
        e = self.term()
        while self.toks.peek()[0] in ("+", "-"):
            op = self.toks.next()[0]
            rhs = self.term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def term(self):
        e = self.unary()
        while self.toks.peek()[0] in ("*", "/"):
            op = self.toks.next()[0]
            rhs = self.unary()
            e = mul(e, rhs) if op == "*" else div(e, rhs)
        return e

    def unary(self):
        if self.toks.peek()[0] == "-":
            self.toks.next()
            return neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.toks.peek()[0] == "^":
            self.toks.next()
            return pow_(base, self.unary())
        return base

    def atom(self):
        kind, value, offset = self.toks.next()
        if kind == "num":
            return Const(value)
        if kind == "(":
            e = self.expr()
            k, _, off = self.toks.next()
            if k != ")":
                raise ParseError("expected ')'", off)
            return e
        if kind == "ident":
            if self.toks.peek()[0] == "(":
                if value not in _FUNCTIONS:
                    raise UnknownIdentifier(value, offset)
                self.toks.next()
                arg = self.expr()
                k, _, off = self.toks.next()
                if k != ")":
                    raise ParseError("expected ')'", off)
                return call(value, arg)
            if value in VARIABLES:
                return Var(value)
            if value in _CONSTANTS:
                return Const(_CONSTANTS[value])
            raise UnknownIdentifier(value, offset)
        raise ParseError(f"unexpected token '{value}'", offset)


def parse_expression(text):
    """Parse expression text into an AST.

    Raises ParseError (with byte offset) on malformed input and
    UnknownIdentifier for names outside the supported vocabulary.
    """
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Compilation: a list of trees to one straight-line program, bound to numpy
# ufuncs or to Python floats.
# ---------------------------------------------------------------------------

# points per block when a bundle evaluates a grid, and nodes per block of
# `geometry.grid_blocks` and of a quadrature grid: bounds the memory that a
# bundle's temporaries and a grid probe's nodes and values hold
CHUNK_POINTS = 8192

# the function tables a compiled program is bound to.  The numpy binding
# takes numpy ufuncs only: math.exp and friends, and the ** operator on
# numpy scalars (C pow), differ from them in the last bit for some inputs.
_UFUNCS = {**_FUNCTIONS, "power": np.power}

# The float binding runs + - * / and negation on Python floats, which round
# as numpy's float64 scalars do, and takes from `math` only the functions
# on this allowlist: each is pinned bit for bit to its ufunc by a test in
# tests/test_expr.py.  A function whose test fails on some platform leaves
# the list; the test is never loosened.
_MATH_ALLOWLIST = {"sin": math.sin, "cos": math.cos}


def _on_floats(ufunc):
    """ufunc as a function of Python floats that returns a Python float."""
    if ufunc.nin == 2:
        return lambda a, b: float(ufunc(a, b))
    return lambda v: float(ufunc(v))


_FLOATS = {name: _MATH_ALLOWLIST.get(name) or _on_floats(ufunc)
           for name, ufunc in _UFUNCS.items()}

_BINARY_CODE = {Add: "{} + {}", Sub: "{} - {}", Mul: "{} * {}",
                Div: "{} / {}", Pow: "power({}, {})"}


def _operands(node):
    if isinstance(node, Binary):
        return (node.a, node.b)
    if isinstance(node, (Neg, Call)):
        return (node.a,)
    return ()


def _straight_line(exprs):
    """Statements, output names and constants of a function computing exprs.

    Each node id is visited once and value-numbered on (op, operand
    names), so shared and repeated subexpressions are computed once.  A
    subtree without variables is folded by Expr.eval, with the arithmetic
    it has there.  Returns (lines, outputs, constants), where each line is
    (target, code, operand names).
    """
    names = {}          # id(node) -> operand name, or None for constants
    numbered = {}       # (op, operand names) -> temporary name
    constants = {}      # constant name -> value
    by_value = {}       # float.hex of a constant -> constant name
    folded = {}         # id(node) -> constant name
    lines = []

    def constant(node):
        if id(node) not in folded:
            value = float(node.value if isinstance(node, Const)
                          else node.eval(0.0, 0.0, 0.0))
            key = value.hex()
            if key not in by_value:
                by_value[key] = f"c{len(constants)}"
                constants[by_value[key]] = value
            folded[id(node)] = by_value[key]
        return folded[id(node)]

    def operand(node):
        name = names[id(node)]
        return constant(node) if name is None else name

    for root in exprs:
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in names:
                continue
            kids = _operands(node)
            if not expanded:
                stack.append((node, True))
                stack.extend((k, False) for k in reversed(kids))
                continue
            if isinstance(node, Var):
                names[id(node)] = node.name
                continue
            if all(names[id(k)] is None for k in kids):
                names[id(node)] = None       # Const, or a variable-free tree
                continue
            args = tuple(operand(k) for k in kids)
            if isinstance(node, Call):
                op, code = node.fn, f"{node.fn}({args[0]})"
            elif isinstance(node, Neg):
                op, code = "neg", f"-{args[0]}"
            else:
                op, code = type(node).op, _BINARY_CODE[type(node)].format(*args)
            key = (op,) + args
            if key not in numbered:
                numbered[key] = f"t{len(lines)}"
                lines.append((numbered[key], code, args))
            names[id(node)] = numbered[key]
    outputs = [operand(root) for root in exprs]
    return lines, outputs, constants


def _compile(exprs):
    """The straight-line program of exprs, compiled once: bind(table)
    gives f(x, y, theta) -> tuple of values, one per expression, that
    applies the functions of table (`_UFUNCS` or `_FLOATS`)."""
    lines, outputs, constants = _straight_line(exprs)
    # drop each temporary after its last use, so that a grid block holds
    # only the live ones
    last_use = {}
    for i, (_, _, args) in enumerate(lines):
        for a in args:
            last_use[a] = i
    dead = {}
    for target, _, _ in lines:
        if target not in outputs:
            dead.setdefault(last_use[target], []).append(target)
    body = []
    for i, (target, code, _) in enumerate(lines):
        body.append(f"        {target} = {code}")
        if i in dead:
            body.append(f"        del {', '.join(dead[i])}")
    free = sorted(_UFUNCS) + sorted(constants)
    source = "\n".join(
        [f"def _bind({', '.join(free)}):",
         "    def bundle(x, y, theta):", *body,
         f"        return ({''.join(o + ', ' for o in outputs)})",
         "    return bundle"])
    namespace = {}
    exec(compile(source, "<expr bundle>", "exec"), namespace)
    bind = namespace["_bind"]
    return lambda table: bind(**table, **constants)


class Bundle:
    """Expression trees evaluated together by one compiled program.

    The program is generated and compiled on first use and kept here,
    with each of its two bindings, also built on first use.
    """

    __slots__ = ("exprs", "_bind", "_kernel", "_scalar")

    def __init__(self, exprs):
        self.exprs = tuple(exprs)
        self._bind = self._kernel = self._scalar = None

    def _program(self):
        if self._bind is None:
            self._bind = _compile(self.exprs)
        return self._bind

    @property
    def kernel(self):
        """f(x, y, theta) -> tuple of values, one per expression.

        The program bound to numpy ufuncs: pass float64 scalars or arrays,
        on which x/0 and sin(inf) give numpy's inf and nan under the
        caller's np.errstate.
        """
        if self._kernel is None:
            self._kernel = self._program()(_UFUNCS)
        return self._kernel

    @property
    def scalar(self):
        """f(x, y, theta) -> tuple of values at one point of Python floats.

        The program bound to Python floats: the values have the bits of
        `kernel` at the same float64 scalars, at a fraction of the cost of
        a numpy call per operation.  An int coordinate is taken as its
        float, as a float64 array holds it (int arithmetic would lose the
        sign of -0.0).  A call that raises on floats (x/0, math.sin(inf))
        is evaluated again by `kernel` at float64 scalars, so that inf and
        nan come out as numpy gives them.
        """
        if self._scalar is None:
            program, kernel = self._program()(_FLOATS), self.kernel

            def scalar(x, y, theta):
                try:
                    return program(float(x), float(y), float(theta))
                except (ArithmeticError, ValueError):
                    return kernel(np.float64(x), np.float64(y),
                                  np.float64(theta))
            self._scalar = scalar
        return self._scalar

    def __call__(self, x, y, theta):
        """Values at broadcastable inputs as float arrays of their common
        shape; a grid is evaluated in blocks of CHUNK_POINTS points."""
        x, y, theta = (np.asarray(v, dtype=float) for v in (x, y, theta))
        shape = np.broadcast_shapes(x.shape, y.shape, theta.shape)
        size = math.prod(shape)
        kernel = self.kernel
        if size <= CHUNK_POINTS:
            return tuple(_filled(v, shape) for v in kernel(x, y, theta))
        flat = [np.broadcast_to(v, shape).reshape(-1) for v in (x, y, theta)]
        outs = [np.empty(size) for _ in self.exprs]
        for lo in range(0, size, CHUNK_POINTS):
            block = kernel(*(v[lo:lo + CHUNK_POINTS] for v in flat))
            for out, v in zip(outs, block):
                out[lo:lo + CHUNK_POINTS] = v
        return tuple(out.reshape(shape) for out in outs)


def _filled(value, shape):
    value = np.asarray(value, dtype=float)
    if value.shape != shape:
        value = np.broadcast_to(value, shape).copy()
    return value
