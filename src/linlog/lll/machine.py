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
Applying a closure allocates one frame for its argument, for every let in
its body, for its constants and for the values it captured; a closure
captures the values of the outer variables its body uses when it is made,
so frames never refer to one another.  A let (``App(Abs(p, M), N)``) binds
into the current frame without building a closure, and a chain of lets
runs as a loop, so long let-spines need no Python stack.  The free
variables of the whole term are read from the caller's environment once
per run; one that the environment lacks fails only when it is evaluated.

Let right-hand sides are flattened at compile time on an explicit stack
("Let-floating", Peyton Jones, Partain & Santos, 1996): a with- or
tensor-pattern against a pair of its kind binds component by component
without building the pair, and a right-hand side that is a let spine adds
its lets to the same loop.  So the lets that the transposition nests
through right-hand sides compile and run at a host depth independent of
their number.

Codes are specialised on the shapes of their operands, so that the common
nodes cost no Python call of their own (superoperators: Proebsting,
"Optimizing an ANSI C interpreter with superoperators", POPL 1995):

- a bound variable or a constant is a slot operand, which the code of its
  parent reads itself; constants live in the frame's template;
- a let of a variable to a bound variable or a constant (also a component
  of a split pair) aliases the name to that slot and runs nothing, since
  each slot is written once per activation of its frame;
- a variable binder is a store, a pair pattern one shape check and two
  stores, and a closure's entry runs its body's let loop itself, so that
  applying a closure costs two host frames (its application and the
  entry);
- `+.` on a with-pair, `*.` on two arguments and a primitive on its
  argument are one code each, building no intermediate pair or partial
  application.

Flops, evaluation order and every error message are those of applying the
nodes one by one; a split pattern's shape error is raised before its later
components run.  Values are slotted dataclasses, never changed in place
(tests/test_layering.py checks this).

`apply_lanes` applies a function to k arguments of one shape in one run
(vectorising map: JAX's `vmap`, Frostig, Johnson & Leary, SysML 2018).  It
packs the arguments into one value whose number leaves are `VLanes`, the k
numbers side by side, runs the function once and unpacks its result lane by
lane.  Only `+.` and `*.` learn lanes, on their slow paths: each acts lane
by lane and broadcasts a number against lanes.  This is exact, values and
flops alike, for two reasons.  No control flow depends on a number: a
pattern checks shapes, never numbers, so every lane takes the path the
others take and one run does each lane's work in order.  And a lane never
reaches a primitive: a primitive's argument is a `!`, and promotion admits
only exponential variables under a `!`, while lanes enter only through
the argument of the linear map being applied.  So the count of one run
times k is the count of k runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, itemgetter, mul

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
class VLanes(Value):
    """The numbers of k lanes at one leaf, made only by `apply_lanes`."""

    values: tuple[float, ...]


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


@dataclass(slots=True, eq=False, repr=False)
class VClosure(Value):
    """An abstraction's value: its compiled body `code`, called as
    ``code(env, argument, flops)``, and `env`, the tuple of the values of
    the outer variables it uses.  `pat` and `body` are the source, kept for
    display.  Equal only to itself."""

    pat: Pattern
    body: Term
    code: object
    env: tuple

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
    partial: float | VLanes | None = None


class Flops:
    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


def _num(v: Value) -> float:
    if isinstance(v, VNum):
        return v.value
    raise MachineError(f"expected a number, got {v!r}")


def _operand(v: Value) -> float | VLanes:
    """An operand of `+.` or `*.`: a number's float, or lanes as they are."""
    t = type(v)
    if t is VNum:
        return v.value
    if t is VLanes:
        return v
    raise MachineError(f"expected a number, got {v!r}")


def _arith_op(op, x: float | VLanes, y: float | VLanes) -> Value:
    """`op` on two operands, lane by lane where either is lanes; a float
    is broadcast against lanes."""
    if type(x) is VLanes:
        if type(y) is VLanes:
            return VLanes(tuple(map(op, x.values, y.values)))
        return VLanes(tuple([op(a, y) for a in x.values]))
    if type(y) is VLanes:
        return VLanes(tuple([op(x, b) for b in y.values]))
    return VNum(op(x, y))


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
        return _arith_op(add, _operand(a.left), _operand(a.right))
    if t is VTimes:
        if f.partial is None:
            return VTimes(partial=_operand(a))
        flops.count += 1
        return _arith_op(mul, f.partial, _operand(a))
    raise MachineError(f"applying non-function {f!r}")


# ------------------------------------------------------------ compilation
#
# The code for a term is a function ``code(frame, flops) -> Value`` made by
# a factory from its operands.  An operand is a slot or a code: a bound
# variable is its slot, and so is a constant, which is written into the
# frame's template; anything else is the code that computes it.  A factory
# picks its body by the kinds of its operands and reads ``fr[i]`` itself
# where an operand is a slot.  Operands are default arguments, which
# CPython reads as fast locals and which cost fewer objects than closure
# cells.  Code depends on nothing but its operands, so one compilation
# makes each distinct factory call once (`_Scope.share`): the same pair of
# slots in many abstractions is one function.

_UNBOUND = object()  # a free variable the environment does not bind


class _Scope:
    """Compile-time map from variable names to frame slots.

    One frame is open per enclosing abstraction.  A frame holds the
    abstraction's argument, its own variables (pattern and lets) and its
    constants at slots 0, 1, ... and, at slots -1, -2, ..., the values of
    the outer variables its body uses, copied when the closure is made.
    `sizes[k]` counts frame k's own slots so far, `caps[k]` maps its
    captured names to their order of capture and `consts[k]` lists the
    (slot, value) of its constants.  The outermost frame also holds the
    term's free variables."""

    def __init__(self):
        self.sizes = [0]
        self.caps: list[dict[str, int]] = [{}]
        self.consts: list[list[tuple[int, Value]]] = [[]]
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
        self.consts.append([])

    def close(self) -> tuple[list, list[str]]:
        """Close the innermost frame: (the template of its own slots, which
        holds its constants, and its captured names in order)."""
        template = [None] * self.sizes.pop()
        for slot, v in self.consts.pop():
            template[slot] = v
        return template, list(self.caps.pop())

    def slot(self) -> int:
        """A new slot of the innermost frame."""
        level = len(self.sizes) - 1
        slot = self.sizes[level]
        self.sizes[level] = slot + 1
        return slot

    def alias(self, name: str, slot: int):
        """Bind `name` to `slot` of the innermost frame."""
        self.bound.setdefault(name, []).append((len(self.sizes) - 1, slot))
        self.trail.append(name)

    def bind(self, name: str) -> int:
        slot = self.slot()
        self.alias(name, slot)
        return slot

    def const(self, v: Value) -> int:
        """A new slot of the innermost frame, holding `v`."""
        slot = self.slot()
        self.consts[-1].append((slot, v))
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
                slot = self.free[name] = self.slot()
            return slot, True
        caps = self.caps[level]
        j = caps.setdefault(name, len(caps))
        return -1 - j, not stack


# ---- code factories

def _var(i: int):
    def var(fr, fl, i=i):
        return fr[i]
    return var


def _code(x, sc: _Scope):
    """The operand `x` as a code."""
    return sc.share(_var, x) if type(x) is int else x


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


# A let step is a triple (bind, rhs, i): with no binder it stores the value
# of the code `rhs` at slot `i`; with no code it binds the value at slot
# `i`; with both it binds the value of `rhs`.  A body that is a code is one
# more step, storing its value at the slot that `_enter` or `_lets`
# returns.  Each runs the steps in its own loop, so that a right-hand side
# applying a closure costs two host frames: its `app` and the callee's
# `enter`.

def _enter(rest: tuple, steps: tuple, result: int):
    """A closure's code: a frame of the argument at slot 0, the template
    `rest` of its other own slots and the captured values `env`; then the
    let steps of its body."""
    def enter(env, arg, fl, rest=rest, steps=steps, result=result):
        fr = [arg, *rest, *env]
        for bind, rhs, i in steps:
            if bind is None:
                fr[i] = rhs(fr, fl)
            elif rhs is None:
                bind(fr, fr[i])
            else:
                bind(fr, rhs(fr, fl))
        return fr[result]
    return enter


def _lets(steps: tuple, result: int):
    def lets(fr, fl, steps=steps, result=result):
        for bind, rhs, i in steps:
            if bind is None:
                fr[i] = rhs(fr, fl)
            elif rhs is None:
                bind(fr, fr[i])
            else:
                bind(fr, rhs(fr, fl))
        return fr[result]
    return lets


def _app(f, a):
    """Applies `f` to `a`; `a` is a slot only if `f` is."""
    if type(f) is not int:
        def app(fr, fl, f=f, a=a):
            fv = f(fr, fl)
            av = a(fr, fl)
            if type(fv) is VClosure:
                return fv.code(fv.env, av, fl)
            return apply_value(fv, av, fl)
    elif type(a) is int:
        def app(fr, fl, f=f, a=a):
            fv = fr[f]
            if type(fv) is VClosure:
                return fv.code(fv.env, fr[a], fl)
            return apply_value(fv, fr[a], fl)
    else:
        def app(fr, fl, f=f, a=a):
            fv = fr[f]
            av = a(fr, fl)
            if type(fv) is VClosure:
                return fv.code(fv.env, av, fl)
            return apply_value(fv, av, fl)
    return app


def _pair(cls, l, r):
    """The `cls` pair (`VPair` or `VWith`) of `l` and `r`."""
    if type(l) is int:
        if type(r) is int:
            def pair(fr, fl, cls=cls, l=l, r=r):
                return cls(fr[l], fr[r])
        else:
            def pair(fr, fl, cls=cls, l=l, r=r):
                return cls(fr[l], r(fr, fl))
    elif type(r) is int:
        def pair(fr, fl, cls=cls, l=l, r=r):
            return cls(l(fr, fl), fr[r])
    else:
        def pair(fr, fl, cls=cls, l=l, r=r):
            return cls(l(fr, fl), r(fr, fl))
    return pair


def _bang(x):
    if type(x) is int:
        def bang(fr, fl, x=x):
            return VBang(fr[x])
    else:
        def bang(fr, fl, x=x):
            return VBang(x(fr, fl))
    return bang


# Saturated arithmetic: `+.` on a with-pair, `*.` on two arguments and a
# primitive on its argument, each without the intermediate pair or partial
# application.  Both operands are slots or both are codes.  The flop is
# counted and a non-number rejected in the order `apply_value` does.

def _plus(l, r):
    if type(l) is int:
        def plus(fr, fl, l=l, r=r):
            x = fr[l]
            y = fr[r]
            fl.count += 1
            if type(x) is VNum and type(y) is VNum:
                return VNum(x.value + y.value)
            return _arith_op(add, _operand(x), _operand(y))
    else:
        def plus(fr, fl, l=l, r=r):
            x = l(fr, fl)
            y = r(fr, fl)
            fl.count += 1
            if type(x) is VNum and type(y) is VNum:
                return VNum(x.value + y.value)
            return _arith_op(add, _operand(x), _operand(y))
    return plus


def _times(a, b):
    if type(a) is int:
        def times(fr, fl, a=a, b=b):
            x = fr[a]
            y = fr[b]
            if type(x) is VNum and type(y) is VNum:
                fl.count += 1
                return VNum(x.value * y.value)
            p = _operand(x)
            fl.count += 1
            return _arith_op(mul, p, _operand(y))
    else:
        def times(fr, fl, a=a, b=b):
            p = _operand(a(fr, fl))
            y = b(fr, fl)
            fl.count += 1
            return _arith_op(mul, p, _operand(y))
    return times


def _prim(fn: PrimId, a):
    def prim(fr, fl, f=fn.fn, arity=fn.arity, a=a):
        args = _prim_args(a(fr, fl), arity)
        fl.count += 1
        return VBang(VNum(f(*args)))
    return prim


# ---- binder factories: ``bind(frame, value)`` checks the value's shape
# and stores into slots

def _bind_bang(i: int, n: str):
    def bind(fr, v, i=i, n=n):
        if type(v) is not VBang:
            raise MachineError(f"pattern !{n} against {v!r}")
        fr[i] = v.inner
    return bind


def _bind_unit(fr, v):
    if type(v) is not VUnit:
        raise MachineError(f"unit pattern against {v!r}")


def _bind_pair(cls, kind: str, i: int, j: int):
    """Stores the components of a `cls` pair at slots `i` and `j`."""
    def bind(fr, v, cls=cls, kind=kind, i=i, j=j):
        if type(v) is not cls:
            raise MachineError(f"{kind} pattern against {v!r}")
        fr[i] = v.left
        fr[j] = v.right
    return bind


# ---- the compiler

_PAIRS = {PTensor: (VPair, "tensor"), PWith: (VWith, "with")}


def _bind_steps(p: Pattern, rhs, sc: _Scope, steps: list):
    """Append to `steps` the steps that bind `p` to the operand `rhs`, and
    bind `p`'s names in `sc`, left to right.  A variable is an alias of the
    slot that holds its value, so a variable over a slot makes no step: a
    slot is written once per activation of its frame.  The components of a
    pair pattern go to slots of their own, which its subpatterns then bind,
    so shapes are checked in the order of a walk of `p` from the root."""
    t = type(p)
    if t is PVar:
        sc.alias(p.name, _result(steps, rhs, sc))
        return
    if t is PBang:
        bind = sc.share(_bind_bang, sc.bind(p.name), p.name)
    elif t is PUnit:
        bind = _bind_unit
    elif t is PTensor or t is PWith:
        i, j = sc.slot(), sc.slot()
        bind = sc.share(_bind_pair, *_PAIRS[t], i, j)
    else:
        raise AssertionError(p)
    steps.append((bind, None, rhs) if type(rhs) is int else (bind, rhs, 0))
    if t is PTensor or t is PWith:
        _bind_steps(p.left, i, sc, steps)
        _bind_steps(p.right, j, sc, steps)


def _compile_var(m: Var, sc: _Scope):
    """A bound variable is its slot; a free one is read by a code that
    checks the environment bound it."""
    slot, free = sc.lookup(m.name)
    return sc.share(_free_var, slot, m.name) if free else slot


def _compile_abs(m: Abs, sc: _Scope):
    sc.open()
    mark = len(sc.trail)
    steps = []
    _bind_steps(m.pat, sc.slot(), sc, steps)  # the argument is slot 0
    frames, body = spine(m.body)
    steps += _let_steps(frames, sc)
    result = _result(steps, _compile(body, sc), sc)
    sc.unwind(mark)
    template, captured = sc.close()
    enter = _enter(tuple(template[1:]), tuple(steps), result)
    # reversed, so that the value of capture j lands at slot -1-j
    srcs = [sc.lookup(name)[0] for name in reversed(captured)]
    return _closure(m.pat, m.body, enter, srcs)


def _result(steps: list, x, sc: _Scope) -> int:
    """The slot of the operand `x` once `steps` have run: a code becomes
    one more step, which stores its value."""
    if type(x) is int:
        return x
    steps.append((None, x, sc.slot()))
    return steps[-1][2]


def _compile_app(m: App, sc: _Scope):
    """A let-spine ``let p1 = N1 in ... let pk = Nk in M`` binds into the
    current frame, without a closure, and runs as a loop.  Saturated
    arithmetic is one code."""
    frames, body = spine(m)
    if frames:
        mark = len(sc.trail)
        steps = _let_steps(frames, sc)
        result = _result(steps, _compile(body, sc), sc)
        sc.unwind(mark)
        return sc.share(_lets, tuple(steps), result) if steps else result
    f, a = m.fn, m.arg
    if type(f) is PlusDot and type(a) is WithPair:
        return _arith(_plus, _compile(a.left, sc), _compile(a.right, sc), sc)
    if type(f) is App and type(f.fn) is TimesDot:
        return _arith(_times, _compile(f.arg, sc), _compile(a, sc), sc)
    if type(f) is PrimFn:
        return sc.share(_prim, f.fn, _code(_compile(a, sc), sc))
    f = _compile(f, sc)
    a = _compile(a, sc)
    return sc.share(_app, f, a if type(f) is int else _code(a, sc))


def _arith(make, l, r, sc: _Scope):
    if type(l) is not int or type(r) is not int:
        l, r = _code(l, sc), _code(r, sc)
    return sc.share(make, l, r)


_SPLITS = {(PWith, WithPair), (PTensor, TensorPair)}
_BIND, _UNWIND = object(), object()


def _let_steps(frames, sc: _Scope) -> list:
    """The steps of the lets `frames`, their right-hand sides flattened;
    binds their patterns in `sc`.  A pattern is bound once its whole
    right-hand side is compiled and the names of the lets inside it are
    forgotten, so each right-hand side sees the scope before its let."""
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
                pat, rhs = steps[i]
                steps[i] = []
                _bind_steps(pat, rhs, sc, steps[i])
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
    return [step for bound in steps for step in bound]


def _compile_pair(cls):
    def compile_pair(m, sc):
        l = _compile(m.left, sc)
        return sc.share(_pair, cls, l, _compile(m.right, sc))
    return compile_pair


_CONSTANTS = {Zero: VNum(0.0), PlusDot: VPlus(), TimesDot: VTimes(),
              UnitVal: VUnit(), TopVal: VTop()}


def _compile_const(m, sc: _Scope):
    return sc.const(_CONSTANTS[type(m)])


_COMPILERS = {
    Var: _compile_var,
    Numeral: lambda m, sc: sc.const(VNum(m.value)),
    PrimFn: lambda m, sc: sc.const(VPrim(m.fn)),
    **dict.fromkeys(_CONSTANTS, _compile_const),
    Abs: _compile_abs,
    App: _compile_app,
    TensorPair: _compile_pair(VPair),
    WithPair: _compile_pair(VWith),
    BangVal: lambda m, sc: sc.share(_bang, _compile(m.inner, sc)),
}


def _compile(m: Term, sc: _Scope):
    """The operand of `m` in scope `sc`: a slot or a code."""
    return _COMPILERS[type(m)](m, sc)


# ------------------------------------------------------------ entry points

class Compiled:
    """A term compiled once, to be run by `eval_compiled` any number of
    times.  `template` holds the outermost frame's constants and `free`
    lists the term's free names with their frame slots."""

    __slots__ = ("code", "template", "free")

    def __init__(self, code, template: tuple,
                 free: tuple[tuple[str, int], ...]):
        self.code = code
        self.template = template
        self.free = free


def compile_term(m: Term) -> Compiled:
    sc = _Scope()
    code = _code(_compile(m, sc), sc)
    template, _ = sc.close()
    return Compiled(code, tuple(template), tuple(sc.free.items()))


def eval_compiled(c: Compiled, env: dict, flops: Flops) -> Value:
    """Run a compiled term; `env` maps its free names to values."""
    fr = [*c.template]
    for name, slot in c.free:
        fr[slot] = env.get(name, _UNBOUND)
    return c.code(fr, flops)


def eval_term(m: Term, env: dict, flops: Flops) -> Value:
    return eval_compiled(compile_term(m), env, flops)


def run(m: Term, env: dict | None = None) -> tuple[Value, int]:
    flops = Flops()
    v = eval_term(m, env or {}, flops)
    return v, flops.count


def apply_lanes(f: Value, vals: list[Value], flops: Flops) -> list[Value]:
    """``[apply_value(f, v, flops) for v in vals]`` in one run of `f` over
    the values packed as lanes (module docstring), with the flops of the
    k runs.  The values share one shape of numbers, units, tops and pairs,
    and the results must be first-order."""
    k = len(vals)
    if not k:
        return []
    c0 = flops.count
    out = apply_value(f, _pack(vals), flops)
    flops.count = c0 + (flops.count - c0) * k
    return _unpack(out, k)


def _pack(vs: list[Value]) -> Value:
    t = type(vs[0])
    if any(type(v) is not t for v in vs):
        raise MachineError(f"lanes of different shapes: {vs!r}")
    if t is VNum:
        return VLanes(tuple([v.value for v in vs]))
    if t is VPair or t is VWith:
        return t(_pack([v.left for v in vs]), _pack([v.right for v in vs]))
    if t is VUnit or t is VTop:
        return vs[0]
    raise MachineError(f"cannot run {vs[0]!r} in lanes")


def _unpack(v: Value, k: int) -> list[Value]:
    """The k values of the lanes of `v`; a part without lanes is shared."""
    t = type(v)
    if t is VLanes:
        return [VNum(x) for x in v.values]
    if t is VPair or t is VWith:
        return list(map(t, _unpack(v.left, k), _unpack(v.right, k)))
    if t is VBang:
        return list(map(VBang, _unpack(v.inner, k)))
    if t is VTimes and type(v.partial) is VLanes:
        return [VTimes(x) for x in v.partial.values]
    if t is VClosure:
        raise MachineError(f"cannot split {v!r} into lanes")
    return [v] * k


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
    cls = a.__class__
    if cls is not b.__class__:
        return False
    if cls is VNum:
        x, y = a.value, b.value
        return abs(x - y) <= rel_tol * max(1.0, abs(x), abs(y))
    if cls is VPair or cls is VWith:
        return (values_close(a.left, b.left, rel_tol)
                and values_close(a.right, b.right, rel_tol))
    if cls is VBang:
        return values_close(a.inner, b.inner, rel_tol)
    return cls is VUnit or cls is VTop
