"""Compiled big-step evaluator for closed terms.

A term is compiled once into nested Python closures, one per node ("Using
closures for code generation", Feeley & Lapalme, 1987), which can then be
run any number of times (`compile_term`, `eval_compiled`; `eval_term` and
`run` do both).  Evaluation order is call-by-value, matching the
safe-reduction strategy on the terms this package produces, and counts the
same numeric steps.  Used by the verification layer where source-level
rewriting would be too slow; the rewriting engine remains the reference
implementation, and tests/test_machine.py checks the two against each
other.

Compilation resolves every variable to a slot of a frame, a Python list.
Applying a closure allocates one frame for its pattern, for every let in
its body and for the values it captured; a closure captures the values of
the outer variables its body uses when it is made, so frames never refer
to one another.  A let (``App(Abs(p, M), N)``) binds into the current
frame without building a closure, and a chain of lets runs as a loop, so
long let-spines need no Python stack.  The free variables of the whole
term are read from the caller's environment once per run; one that the
environment lacks fails only when it is evaluated.

Let right-hand sides are flattened at compile time on an explicit stack
("Let-floating", Peyton Jones, Partain & Santos, 1996): a with- or
tensor-pattern against a pair of its kind binds component by component
without building the pair, and a right-hand side that is a let spine adds
its lets to the same loop.  So the lets that the transposition nests
through right-hand sides compile and run at a host depth independent of
their number.  Flops are unchanged; a split pattern's shape error is
raised before its later components run.  Values are slotted dataclasses,
never changed in place (tests/test_layering.py checks this).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from linlog.errors import LinlogError
from linlog.lll.lets import spine
from linlog.lll.prims import PrimId
from linlog.lll.terms import (
    Abs, App, BangVal, Numeral, Pattern, PBang, PlusDot, PrimFn, PTensor,
    PUnit, PVar, PWith, TensorPair, Term, TimesDot, TopVal, UnitVal, Var,
    WithPair, Zero,
)


class MachineError(LinlogError):
    pass


class Value:
    __slots__ = ()


@dataclass(slots=True, unsafe_hash=True)
class VNum(Value):
    value: float


@dataclass(slots=True, unsafe_hash=True)
class VUnit(Value):
    pass


@dataclass(slots=True, unsafe_hash=True)
class VTop(Value):
    pass


@dataclass(slots=True, unsafe_hash=True)
class VPair(Value):
    left: Value
    right: Value


@dataclass(slots=True, unsafe_hash=True)
class VWith(Value):
    left: Value
    right: Value


@dataclass(slots=True, unsafe_hash=True)
class VBang(Value):
    inner: Value


class VClosure(Value):
    """An abstraction's value: its compiled body `code`, called as
    ``code(env, argument, flops)``, and `env`, the tuple of the values of
    the outer variables it uses.  `pat` and `body` are the source, kept for
    display.  Equal only to itself."""

    __slots__ = ("pat", "body", "code", "env")

    def __init__(self, pat: Pattern, body: Term, code, env: tuple):
        self.pat = pat
        self.body = body
        self.code = code
        self.env = env

    def __repr__(self):
        return f"VClosure(pat={self.pat!r}, body={self.body!r})"


@dataclass(slots=True, unsafe_hash=True)
class VPrim(Value):
    fn: PrimId


@dataclass(slots=True, unsafe_hash=True)
class VPlus(Value):
    pass


@dataclass(slots=True, unsafe_hash=True)
class VTimes(Value):
    partial: float | None = None


class Flops:
    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


def _num(v: Value) -> float:
    if isinstance(v, VNum):
        return v.value
    raise MachineError(f"expected a number, got {v!r}")


def _prim_args(v: Value, arity: int) -> list[float]:
    out = []
    cur = v
    for _ in range(arity - 1):
        if not isinstance(cur, VPair):
            raise MachineError(f"primitive argument {v!r}")
        if not isinstance(cur.left, VBang):
            raise MachineError(f"primitive argument {v!r}")
        out.append(_num(cur.left.inner))
        cur = cur.right
    if not isinstance(cur, VBang):
        raise MachineError(f"primitive argument {v!r}")
    out.append(_num(cur.inner))
    return out


def apply_value(f: Value, a: Value, flops: Flops) -> Value:
    t = type(f)
    if t is VClosure:
        return f.code(f.env, a, flops)
    if t is VPrim:
        args = _prim_args(a, f.fn.arity)
        flops.count += 1
        return VBang(VNum(f.fn.eval(*args)))
    if t is VPlus:
        if not isinstance(a, VWith):
            raise MachineError(f"+. applied to {a!r}")
        flops.count += 1
        return VNum(_num(a.left) + _num(a.right))
    if t is VTimes:
        if f.partial is None:
            return VTimes(partial=_num(a))
        flops.count += 1
        return VNum(f.partial * _num(a))
    raise MachineError(f"applying non-function {f!r}")


# ------------------------------------------------------------ compilation
#
# The code for a term is a function ``code(frame, flops) -> Value`` made by
# a factory from its operands: sub-codes, slots and constants.  Operands are
# default arguments, which CPython reads as fast locals and which cost fewer
# objects than closure cells.  Code depends on nothing but its operands, so
# one compilation makes each distinct factory call once (`_Scope.share`):
# the same read or pair of reads in many abstractions is one function.

_UNBOUND = object()  # a free variable the environment does not bind


class _Scope:
    """Compile-time map from variable names to frame slots.

    One frame is open per enclosing abstraction.  A frame holds the
    abstraction's own variables (pattern and lets) at slots 0, 1, ... and,
    at slots -1, -2, ..., the values of the outer variables its body
    uses, copied when the closure is made.  `sizes[k]` counts frame k's own
    slots so far and `caps[k]` maps its captured names to their order of
    capture.  The outermost frame also holds the term's free variables."""

    def __init__(self):
        self.sizes = [0]
        self.caps: list[dict[str, int]] = [{}]
        self.bound: dict[str, list[tuple[int, int]]] = {}
        self.trail: list[str] = []
        self.free: dict[str, int] = {}  # free name -> slot in frame 0
        self.made: dict[tuple, object] = {}

    def share(self, make, *operands):
        """``make(*operands)``, made once per compilation."""
        key = (make, *operands)
        code = self.made.get(key)
        if code is None:
            code = self.made[key] = make(*operands)
        return code

    def open(self):
        self.sizes.append(0)
        self.caps.append({})

    def close(self) -> tuple[int, list[str]]:
        """Close the innermost frame: (own slots, captured names in order)."""
        return self.sizes.pop(), list(self.caps.pop())

    def bind(self, name: str) -> int:
        level = len(self.sizes) - 1
        slot = self.sizes[level]
        self.sizes[level] = slot + 1
        self.bound.setdefault(name, []).append((level, slot))
        self.trail.append(name)
        return slot

    def unwind(self, mark: int):
        """Forget the bindings made since `len(self.trail)` was `mark`."""
        while len(self.trail) > mark:
            self.bound[self.trail.pop()].pop()

    def lookup(self, name: str) -> tuple[int, bool]:
        """(slot in the innermost frame, whether the name is free in the
        term, so that the environment may not bind it)"""
        level = len(self.sizes) - 1
        stack = self.bound.get(name)
        if stack and stack[-1][0] == level:
            return stack[-1][1], False
        if level == 0:
            slot = self.free.get(name)
            if slot is None:
                slot = self.free[name] = self.sizes[0]
                self.sizes[0] += 1
            return slot, True
        caps = self.caps[level]
        j = caps.setdefault(name, len(caps))
        return -1 - j, not stack


# ---- code factories

def _const(v: Value):
    def const(fr, fl, v=v):
        return v
    return const


_UNIT, _TOP, _PLUS, _TIMES, _ZERO = map(
    _const, (VUnit(), VTop(), VPlus(), VTimes(), VNum(0.0)))


def _var(i: int):
    def var(fr, fl, i=i):
        return fr[i]
    return var


def _free_var(i: int, name: str):
    def var(fr, fl, i=i, name=name):
        v = fr[i]
        if v is _UNBOUND:
            raise MachineError(f"unbound {name}")
        return v
    return var


def _closure(pat: Pattern, body: Term, enter, srcs: list[int]):
    """Makes the closure, copying the captured values from slots `srcs`."""
    if len(srcs) > 1:
        def closure(fr, fl, p=pat, body=body, enter=enter,
                    get=itemgetter(*srcs)):
            return VClosure(p, body, enter, get(fr))
    elif srcs:
        def closure(fr, fl, p=pat, body=body, enter=enter, i=srcs[0]):
            return VClosure(p, body, enter, (fr[i],))
    else:
        def closure(fr, fl, p=pat, body=body, enter=enter):
            return VClosure(p, body, enter, ())
    return closure


def _enter(size: int, bind, code):
    def enter(env, arg, fl, template=[None] * size, bind=bind, code=code):
        fr = [*template, *env]
        bind(fr, arg)
        return code(fr, fl)
    return enter


def _lets(steps: tuple, body):
    def lets(fr, fl, steps=steps, body=body):
        for bind, rhs in steps:
            bind(fr, rhs(fr, fl))
        return body(fr, fl)
    return lets


def _app(f, a):
    def app(fr, fl, f=f, a=a):
        fv = f(fr, fl)
        av = a(fr, fl)
        if type(fv) is VClosure:
            return fv.code(fv.env, av, fl)
        return apply_value(fv, av, fl)
    return app


def _tensor_pair(l, r):
    def pair(fr, fl, l=l, r=r):
        return VPair(l(fr, fl), r(fr, fl))
    return pair


def _with_pair(l, r):
    def pair(fr, fl, l=l, r=r):
        return VWith(l(fr, fl), r(fr, fl))
    return pair


def _bang(i):
    def bang(fr, fl, i=i):
        return VBang(i(fr, fl))
    return bang


# ---- binder factories: ``bind(frame, value)`` stores into slots

def _bind_var(i: int):
    def bind(fr, v, i=i):
        fr[i] = v
    return bind


def _bind_bang(i: int, n: str):
    def bind(fr, v, i=i, n=n):
        if type(v) is not VBang:
            raise MachineError(f"pattern !{n} against {v!r}")
        fr[i] = v.inner
    return bind


def _bind_unit(fr, v):
    if type(v) is not VUnit:
        raise MachineError(f"unit pattern against {v!r}")


def _bind_tensor(bl, br):
    def bind(fr, v, bl=bl, br=br):
        if type(v) is not VPair:
            raise MachineError(f"tensor pattern against {v!r}")
        bl(fr, v.left)
        br(fr, v.right)
    return bind


def _bind_with(bl, br):
    def bind(fr, v, bl=bl, br=br):
        if type(v) is not VWith:
            raise MachineError(f"with pattern against {v!r}")
        bl(fr, v.left)
        br(fr, v.right)
    return bind


# ---- the compiler

def _compile_pattern(p: Pattern, sc: _Scope):
    """The binder for `p`; binds its variables in `sc`."""
    t = type(p)
    if t is PVar:
        return sc.share(_bind_var, sc.bind(p.name))
    if t is PBang:
        return sc.share(_bind_bang, sc.bind(p.name), p.name)
    if t is PUnit:
        return _bind_unit
    if t is not PTensor and t is not PWith:
        raise AssertionError(p)
    bl = _compile_pattern(p.left, sc)
    return sc.share(_bind_tensor if t is PTensor else _bind_with, bl,
                    _compile_pattern(p.right, sc))


def _compile_var(m: Var, sc: _Scope):
    slot, free = sc.lookup(m.name)
    return sc.share(_free_var, slot, m.name) if free else sc.share(_var, slot)


def _compile_abs(m: Abs, sc: _Scope):
    sc.open()
    mark = len(sc.trail)
    bind = _compile_pattern(m.pat, sc)
    code = _compile(m.body, sc)
    sc.unwind(mark)
    size, captured = sc.close()
    enter = sc.share(_enter, size, bind, code)
    # reversed, so that the value of capture j lands at slot -1-j
    srcs = [sc.lookup(name)[0] for name in reversed(captured)]
    return _closure(m.pat, m.body, enter, srcs)


def _compile_app(m: App, sc: _Scope):
    """A let-spine ``let p1 = N1 in ... let pk = Nk in M`` binds into the
    current frame, without a closure, and runs as a loop."""
    frames, body = spine(m)
    if not frames:
        f = _compile(m.fn, sc)
        return sc.share(_app, f, _compile(m.arg, sc))
    mark = len(sc.trail)
    steps = _let_steps(frames, sc)
    body = _compile(body, sc)
    sc.unwind(mark)
    return sc.share(_lets, steps, body)


_SPLITS = {(PWith, WithPair), (PTensor, TensorPair)}
_BIND, _UNWIND = object(), object()


def _let_steps(frames, sc: _Scope) -> tuple:
    """The (binder, code) steps of the lets `frames`, their right-hand
    sides flattened; binds their patterns in `sc`.  A pattern is bound once
    its whole right-hand side is compiled and the names of the lets inside
    it are forgotten, so each right-hand side sees the scope before its let."""
    steps, open_ = [], []  # open_: steps whose pattern is not bound yet
    todo = []

    def push(frames):
        for p, n in reversed(frames):
            todo.extend(((_BIND, len(open_)), (p, n)))

    push(frames)
    while todo:
        p, n = todo.pop()
        if p is _BIND:
            for i in open_[n:]:
                pat, code = steps[i]
                steps[i] = (_compile_pattern(pat, sc), code)
            del open_[n:]
        elif p is _UNWIND:
            sc.unwind(n)
        elif (type(p), type(n)) in _SPLITS:
            todo.extend(((p.right, n.right), (p.left, n.left)))
        else:
            inner, tail = spine(n)
            if inner:
                todo.extend(((_UNWIND, len(sc.trail)), (p, tail)))
                push(inner)
            else:
                open_.append(len(steps))
                steps.append((p, _compile(n, sc)))
    return tuple(steps)


def _compile_pair(make):
    def compile_pair(m, sc):
        l = _compile(m.left, sc)
        return sc.share(make, l, _compile(m.right, sc))
    return compile_pair


_COMPILERS = {
    Var: _compile_var,
    Numeral: lambda m, sc: _const(VNum(m.value)),
    Zero: lambda m, sc: _ZERO,
    PrimFn: lambda m, sc: _const(VPrim(m.fn)),
    PlusDot: lambda m, sc: _PLUS,
    TimesDot: lambda m, sc: _TIMES,
    UnitVal: lambda m, sc: _UNIT,
    TopVal: lambda m, sc: _TOP,
    Abs: _compile_abs,
    App: _compile_app,
    TensorPair: _compile_pair(_tensor_pair),
    WithPair: _compile_pair(_with_pair),
    BangVal: lambda m, sc: sc.share(_bang, _compile(m.inner, sc)),
}


def _compile(m: Term, sc: _Scope):
    """The code of `m` in scope `sc`."""
    return _COMPILERS[type(m)](m, sc)


# ------------------------------------------------------------ entry points

class Compiled:
    """A term compiled once, to be run by `eval_compiled` any number of
    times.  `free` lists the term's free names with their frame slots."""

    __slots__ = ("code", "size", "free")

    def __init__(self, code, size: int, free: tuple[tuple[str, int], ...]):
        self.code = code
        self.size = size
        self.free = free


def compile_term(m: Term) -> Compiled:
    sc = _Scope()
    code = _compile(m, sc)
    return Compiled(code, sc.sizes[0], tuple(sc.free.items()))


def eval_compiled(c: Compiled, env: dict, flops: Flops) -> Value:
    """Run a compiled term; `env` maps its free names to values."""
    fr = [None] * c.size
    for name, slot in c.free:
        fr[slot] = env.get(name, _UNBOUND)
    return c.code(fr, flops)


def eval_term(m: Term, env: dict, flops: Flops) -> Value:
    return eval_compiled(compile_term(m), env, flops)


def run(m: Term, env: dict | None = None) -> tuple[Value, int]:
    flops = Flops()
    v = eval_term(m, env or {}, flops)
    return v, flops.count


def value_to_term(v: Value) -> Term:
    match v:
        case VNum(x):
            return Numeral(x)
        case VUnit():
            return UnitVal()
        case VTop():
            return TopVal()
        case VPair(l, r):
            return TensorPair(value_to_term(l), value_to_term(r))
        case VWith(l, r):
            return WithPair(value_to_term(l), value_to_term(r))
        case VBang(i):
            return BangVal(value_to_term(i))
    raise MachineError(f"{v!r} is not a first-order value")


def values_close(a: Value, b: Value, rel_tol: float) -> bool:
    match a, b:
        case (VNum(x), VNum(y)):
            return abs(x - y) <= rel_tol * max(1.0, abs(x), abs(y))
        case (VUnit(), VUnit()) | (VTop(), VTop()):
            return True
        case (VPair(l1, r1), VPair(l2, r2)) | (VWith(l1, r1), VWith(l2, r2)):
            return values_close(l1, l2, rel_tol) and values_close(r1, r2, rel_tol)
        case (VBang(i1), VBang(i2)):
            return values_close(i1, i2, rel_tol)
    return False
