"""Immutable symbolic expression trees over t, x, y, z (or s in
one-variable function bodies), with named parameter functions, a
structure-preserving printer, capture-free substitution, and symbolic
differentiation."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from operator import attrgetter

VARS4 = ("t", "x", "y", "z")

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_UNARY = 2.5
_PREC_POW = 3
_PREC_ATOM = 4


def wrap(value) -> "Expr":
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Const(float(value))
    raise TypeError(f"cannot use {value!r} as an expression")


@dataclass(frozen=True)
class Expr:
    """Base node.  Arithmetic operators build folded trees (constant
    identities removed); the parser builds raw nodes instead so printed
    text round-trips structurally."""

    def __add__(self, other):
        return add(self, wrap(other))

    def __radd__(self, other):
        return add(wrap(other), self)

    def __sub__(self, other):
        return sub(self, wrap(other))

    def __rsub__(self, other):
        return sub(wrap(other), self)

    def __mul__(self, other):
        return mul(self, wrap(other))

    def __rmul__(self, other):
        return mul(wrap(other), self)

    def __truediv__(self, other):
        return div(self, wrap(other))

    def __rtruediv__(self, other):
        return div(wrap(other), self)

    def __pow__(self, e):
        return pow_node(self, e)

    def __neg__(self):
        return neg(self)

    def children(self) -> tuple["Expr", ...]:
        return self._get_kids(self)

    def free_vars(self) -> frozenset[str]:
        out = frozenset()
        for c in self.children():
            out |= c.free_vars()
        return out

    def _subst(self, mapping: dict[str, "Expr"], memo: dict) -> "Expr":
        """The node with its children substituted, each child object once
        (memo maps its id to its substitute); itself if none changes."""
        new, changed = [], False
        for c in map(self.__getattribute__, self._kids):
            got = memo.get(id(c))
            if got is None:
                got = memo[id(c)] = c._subst(mapping, memo)
            new.append(got)
            changed = changed or got is not c
        if not changed:
            return self
        for i, name in self._own_at:
            new.insert(i, getattr(self, name))
        return type(self)(*new)

    def _diff(self, var: str, d) -> "Expr":
        """The node's derivative in var, its children's taken by d."""
        raise NotImplementedError

    def _print(self) -> tuple[str, float]:
        """Returns (text, precedence of the outermost construct)."""
        raise NotImplementedError

    def __repr__(self):
        return print_expr(self)


def node(cls=None, **options):
    """Declare an expression node type: a frozen dataclass (options pass
    through) whose fields annotated Expr are its children, in field order,
    and whose other fields are its own data.  It records their names in
    _kids and _own, and children, substitution and the evaluator's keys
    follow from those; a node type supplies _diff and _print."""
    if cls is None:
        return lambda cls: node(cls, **options)
    cls = dataclass(frozen=True, repr=False, **options)(cls)
    kid = {f.name: f.type in ("Expr", Expr) for f in fields(cls)}
    cls._kids = tuple(n for n in kid if kid[n])
    cls._own = tuple(n for n in kid if not kid[n])
    cls._own_at = tuple((i, n) for i, n in enumerate(kid) if not kid[n])
    get = attrgetter(*cls._kids) if cls._kids else lambda e: ()
    one = len(cls._kids) == 1
    cls._get_kids = staticmethod((lambda e: (get(e),)) if one else get)
    cls._key = staticmethod(_own_key(cls))
    return cls


# Per annotation of an own field: the function name -> (node -> the
# field's part of the node's key).  Any other field enters by value.
_FIELD_KEYS = {"float": lambda name: lambda e: float(getattr(e, name)).hex(),
               "ParamFn": lambda name: lambda e: id(getattr(e, name))}


def _own_key(cls):
    """node -> its own fields as they tell equal nodes apart (with its
    type and children): floats by their bits, so 0.0 and -0.0 stay
    apart, a parameter function by identity, and the rest by value."""
    kind = {f.name: getattr(f.type, "__name__", f.type) for f in fields(cls)}
    parts = [_FIELD_KEYS.get(kind[n], attrgetter)(n) for n in cls._own]
    if len(parts) < 2:
        return parts[0] if parts else lambda e: ()
    return lambda e: tuple([part(e) for part in parts])


def _memo(step):
    """f: node -> step(node, f), once per node object (held, so that its
    id stays its own): shared subtrees cost once, not once per path."""
    memo = {}

    def f(e):
        got = memo.get(id(e))
        if got is None:
            got = memo[id(e)] = (step(e, f), e)
        return got[0]
    return f


def _infix(e, op: str, prec: float):
    """Print e.a op e.b, for left-associative operators of precedence prec."""
    la, pa = e.a._print()
    lb, pb = e.b._print()
    if pa < prec:
        la = f"({la})"
    if pb <= prec:
        lb = f"({lb})"
    return f"{la}{op}{lb}", prec


@node
class Const(Expr):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))

    def _diff(self, var, d):
        return Const(0.0)

    def _print(self):
        v = self.value
        if v.is_integer() and abs(v) < 1e16:
            text = str(int(v))
        else:
            text = repr(v)
        return text, (_PREC_UNARY if v < 0 else _PREC_ATOM)


@node
class Var(Expr):
    name: str

    def free_vars(self):
        return frozenset((self.name,))

    def _subst(self, mapping, memo):
        return mapping.get(self.name, self)

    def _diff(self, var, d):
        return Const(1.0) if self.name == var else Const(0.0)

    def _print(self):
        return self.name, _PREC_ATOM


@node
class Add(Expr):
    a: Expr
    b: Expr

    def _diff(self, var, d):
        return add(d(self.a), d(self.b))

    def _print(self):
        return _infix(self, " + ", _PREC_ADD)


@node
class Sub(Expr):
    a: Expr
    b: Expr

    def _diff(self, var, d):
        return sub(d(self.a), d(self.b))

    def _print(self):
        return _infix(self, " - ", _PREC_ADD)


@node
class Mul(Expr):
    a: Expr
    b: Expr

    def _diff(self, var, d):
        return add(mul(d(self.a), self.b), mul(self.a, d(self.b)))

    def _print(self):
        # Mul(Const(-1), e) renders as unary minus unless e is a constant
        # (that case would re-parse as a single negative literal).
        if self.a == Const(-1.0) and not isinstance(self.b, Const):
            lb, pb = self.b._print()
            if pb <= _PREC_UNARY:
                lb = f"({lb})"
            return f"-{lb}", _PREC_UNARY
        return _infix(self, "*", _PREC_MUL)


@node
class Div(Expr):
    a: Expr
    b: Expr

    def _diff(self, var, d):
        da, db = d(self.a), d(self.b)
        den = mul(self.b, self.b)
        if den == Const(0.0):  # b is a constant whose square underflows
            return div(da, self.b)
        return div(sub(mul(da, self.b), mul(self.a, db)), den)

    def _print(self):
        return _infix(self, "/", _PREC_MUL)


def _pow_print(base: Expr, etext: str):
    lb, pb = base._print()
    if pb < _PREC_ATOM:
        lb = f"({lb})"
    return f"{lb}^{etext}", _PREC_POW


def _pow_diff(base: Expr, e, d):
    return mul(mul(Const(float(e)), pow_node(base, e - 1)), d(base))


@node
class IntPow(Expr):
    base: Expr
    n: int

    def _diff(self, var, d):
        return _pow_diff(self.base, self.n, d)

    def _print(self):
        return _pow_print(self.base, str(self.n))


@node
class RealPow(Expr):
    base: Expr
    e: float

    def _diff(self, var, d):
        return _pow_diff(self.base, self.e, d)

    def _print(self):
        return _pow_print(self.base, repr(self.e))


@node
class Call(Expr):
    kind: str
    arg: Expr

    def __post_init__(self):
        if self.kind not in BUILTINS:
            raise ValueError(f"unknown builtin {self.kind!r}")

    def _diff(self, var, d):
        return _CALL_DIFF[self.kind](self.arg, d(self.arg))

    def _print(self):
        la, _ = self.arg._print()
        return f"{self.kind}({la})", _PREC_ATOM


# Per builtin: its derivative, d kind(u) = f(u, du), as a folded tree.
_CALL_DIFF = {
    "exp": lambda u, du: mul(Call("exp", u), du),
    "log": lambda u, du: div(du, u),
    "sin": lambda u, du: mul(Call("cos", u), du),
    "cos": lambda u, du: mul(neg(Call("sin", u)), du),
    "tanh": lambda u, du: mul(sub(Const(1.0), IntPow(Call("tanh", u), 2)),
                              du),
    "sqrt": lambda u, du: div(du, mul(Const(2.0), Call("sqrt", u))),
}
BUILTINS = tuple(_CALL_DIFF)


@node
class Atan2(Expr):
    """Two-argument angle atan2(num, den): the smooth branch of
    arctan(num/den) away from num = den = 0."""

    num: Expr
    den: Expr

    def _diff(self, var, d):
        b, a = self.num, self.den
        db, da = d(b), d(a)
        num = sub(mul(db, a), mul(b, da))
        den = add(mul(a, a), mul(b, b))
        if den == Const(0.0):  # two tiny constants: num is the constant 0
            return num
        return div(num, den)

    def _print(self):
        ln, _ = self.num._print()
        ld, _ = self.den._print()
        return f"atan2({ln}, {ld})", _PREC_ATOM


@dataclass(frozen=True)
class ParamFn:
    """A named smooth one-variable function.  The body is stored over the
    bound variable s; display_var is the name used in source text."""

    name: str
    body: Expr
    display_var: str = "s"

    def __post_init__(self):
        extra = self.body.free_vars() - {"s"}
        if extra:
            raise ValueError(
                f"ParamFn {self.name!r} body uses variables {sorted(extra)}; "
                "only the bound variable is allowed"
            )

    def __call__(self, arg, k: int = 0) -> "FnApp":
        return FnApp(self, int(k), wrap(arg))

    @cached_property
    def _derivs(self):
        """The derivatives formed so far, by k, and the step d/ds, which
        hash-conses: a node equal to one formed before becomes that one."""
        table = {}

        def canonical(e, cons):  # e over its children's canonical forms
            e = e._subst({}, {id(c): cons(c) for c in e.children()})
            return table.setdefault(
                (type(e), e._key(e), tuple(map(id, e.children()))), e)
        cons = _memo(canonical)
        return {0: self.body}, _memo(lambda e, d: cons(e._diff("s", d)))

    def deriv(self, k: int) -> Expr:
        """The body's k-th derivative in s, formed once over a DAG: each
        step differentiates each distinct node once, and equal subtrees of
        all steps are one object, so it grows as its tape does."""
        derivs, step = self._derivs
        return derivs[k] if k in derivs else derivs.setdefault(
            k, step(self.deriv(k - 1)))


@node
class FnApp(Expr):
    """Application of the k-th derivative of a ParamFn to a sub-expression."""

    fn: ParamFn
    k: int
    arg: Expr

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("derivative order must be non-negative")

    def _diff(self, var, d):
        return mul(FnApp(self.fn, self.k + 1, self.arg), d(self.arg))

    @cached_property
    def inlined(self) -> Expr:
        """fn's k-th derivative with arg for s, one object per FnApp."""
        return substitute(self.fn.deriv(self.k), {"s": self.arg})

    @cached_property
    def domain(self) -> tuple:
        """Besides arg, the trees whose domain errors are this FnApp's: for
        k > 0, fn(arg), as fn^(k) can be defined where fn is not
        (log(s - 3)' = 1/(s - 3), (1/(s - s))' = 0)."""
        return (FnApp(self.fn, 0, self.arg),) if self.k else ()

    def _print(self):
        la, _ = self.arg._print()
        primes = "'" * self.k
        return f"{self.fn.name}{primes}({la})", _PREC_ATOM


class FnContext:
    """Registration-ordered set of ParamFns.  Bodies may reference only
    functions registered earlier, which rules out reference cycles."""

    def __init__(self):
        self.fns: dict[str, ParamFn] = {}

    def register(self, fn: ParamFn) -> ParamFn:
        if fn.name in BUILTINS or fn.name == "atan2":
            raise ValueError(f"{fn.name!r} is a builtin and cannot be redefined")
        if fn.name in self.fns:
            raise ValueError(f"{fn.name!r} is already defined")
        for ref in _fn_refs(fn.body):
            if ref.name not in self.fns or self.fns[ref.name] is not ref:
                raise ValueError(
                    f"{fn.name!r} references {ref.name!r}, which is not "
                    "registered earlier in this context"
                )
        self.fns[fn.name] = fn
        return fn


def _fn_refs(e: Expr):
    if isinstance(e, FnApp):
        yield e.fn
        yield from _fn_refs(e.fn.body)
    for c in e.children():
        yield from _fn_refs(c)


# ---------------------------------------------------------------------------
# Folding constructors (used by operators, differentiation, and builders).

def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if isinstance(a, Const) and a.value == 0.0:
        return b
    if isinstance(b, Const) and b.value == 0.0:
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if isinstance(b, Const) and b.value == 0.0:
        return a
    if isinstance(a, Const) and a.value == 0.0:
        return neg(b)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if isinstance(a, Const):
        if a.value == 0.0:
            return Const(0.0)
        if a.value == 1.0:
            return b
    if isinstance(b, Const):
        if b.value == 0.0:
            return Const(0.0)
        if b.value == 1.0:
            return a
        return Mul(b, a)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    """Folding quotient; a constant zero denominator stays a node, whose
    jet rule raises the domain error (as a derivative of x/0 must)."""
    if isinstance(b, Const):
        if b.value == 0.0:
            return Div(a, b)
        if isinstance(a, Const):
            return Const(a.value / b.value)
        if b.value == 1.0:
            return a
    if isinstance(a, Const) and a.value == 0.0:
        return Const(0.0)
    return Div(a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    return Mul(Const(-1.0), a)


def pow_node(base: Expr, e) -> Expr:
    """Normalizing power constructor: integer-valued exponents become
    IntPow, others RealPow; trivial exponents fold, and so does a
    constant base where its power is a finite float.  Any other constant
    power stays a node, whose jet rule raises the domain error."""
    if isinstance(e, Expr):
        if not isinstance(e, Const):
            raise ValueError("exponent must be a numeric literal")
        e = e.value
    e = float(e)
    n = int(e) if e.is_integer() else None
    if n == 0:
        return Const(1.0)
    if n == 1:
        return base
    if isinstance(base, Const):
        try:
            value = base.value ** (e if n is None else n)
        except (ZeroDivisionError, OverflowError):
            value = None
        if isinstance(value, float) and math.isfinite(value):
            return Const(value)
    return RealPow(base, e) if n is None else IntPow(base, n)


def print_expr(e: Expr) -> str:
    text, _ = e._print()
    return text


def substitute(e: Expr, mapping: dict[str, Expr]) -> Expr:
    """Simultaneous capture-free substitution of variables.  ParamFn
    bodies are closed over their bound variable and are not entered;
    antiderivative nodes substitute their ambient parts only.  A shared
    subtree is substituted once and stays shared."""
    mapping = {k: wrap(v) for k, v in mapping.items()}
    return e._subst(mapping, {})


def diff(e: Expr, var: str) -> Expr:
    """Symbolic partial derivative (folding), once per node object."""
    return _memo(lambda n, d: n._diff(var, d))(e)


def free_vars(e: Expr) -> frozenset[str]:
    return e.free_vars()
