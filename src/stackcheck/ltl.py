"""Extended-LTL security properties over memory states.

The supported fragment is safety-only: an outermost G over a
propositional body built from boolean connectives, stack/buffer
quantifiers, index-range conjunctions and atoms over bytes, buffers,
canaries and the previous transition. The violation monitor for G p is
the two-state automaton {run, reject}: run self-loops while p holds and
moves to the absorbing reject state on the first state falsifying p.

Formula syntax (one formula per property):

    G (forall_stack f . all i in 0..7 : byte(i, stack(f)) = Critical)
    G (previous_transition != call_gets)

``all i in a..b :`` denotes the conjunction over the indices of the
range; indices the frame does not hold are skipped as vacuous (a frame
before the base-register push has no bytes 8-15, which must not count as
corruption). A bare byte atom with an out-of-frame index evaluates false
and records a vacuity note.

`compile_monitor` compiles each body once into a closure over slot-bound
variables; `Monitor.step` calls it, and `eval_body`/`eval_atom` are thin
entry points into the same compiled form. An index-range conjunction of a
single byte atom, such as the one above, becomes a slice compare over the
frame's letters.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache

from . import load_data
from .memstace import (RBP_RANGE, ByteState, MemoryState, StackFrame,
                       buffer_index_span)


class PropertySyntaxError(Exception):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{message} (line {line}, col {col})")


class UnknownOperator(Exception):
    pass


class UnsupportedFragment(Exception):
    pass


# --- AST ---------------------------------------------------------------------

@dataclass(frozen=True)
class Always:
    body: object


@dataclass(frozen=True)
class Not:
    operand: object


@dataclass(frozen=True)
class And:
    items: tuple


@dataclass(frozen=True)
class Or:
    items: tuple


@dataclass(frozen=True)
class Implies:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class ForallStack:
    var: str
    body: object


@dataclass(frozen=True)
class ExistsStack:
    var: str
    body: object


@dataclass(frozen=True)
class ForallBuffer:
    var: str
    frame_var: str
    body: object


@dataclass(frozen=True)
class ExistsBuffer:
    var: str
    frame_var: str
    body: object


@dataclass(frozen=True)
class AllRange:
    var: str
    lo: int
    hi: int
    body: object


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class IndexExpr:
    base: str                   # const | var | start | end
    value: int = 0              # constant value or +- offset
    var: str | None = None      # index or buffer variable


@dataclass(frozen=True)
class ByteAtom:
    index: IndexExpr
    frame_var: str
    op: str                     # = or !=
    state: ByteState


@dataclass(frozen=True)
class HasCanary:
    frame_var: str


@dataclass(frozen=True)
class PrevTransition:
    op: str                     # = or !=
    targets: tuple[tuple, ...]  # ("loop",) | ("libc",) | ("call", name)


@dataclass(frozen=True)
class PropertyAst:
    name: str
    formula: Always
    cwes: tuple[str, ...] = ()
    source: str = ""


# --- lexer/parser ------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<num>\d+)
  | (?P<dotdot>\.\.)
  | (?P<neq>!=)
  | (?P<arrow>->)
  | (?P<sym>[().,{}:=&|!+\-])
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
""", re.VERBOSE)

_STATE_NAMES = {"Free": ByteState.FREE, "Critical": ByteState.CRITICAL,
                "Occupied": ByteState.OCCUPIED, "Modified": ByteState.MODIFIED}
_TEMPORAL = {"G", "F", "X", "U", "W", "R"}
_ATOM_HEADS = {"byte", "has_canary", "previous_transition", "start", "end",
               "stack", "buffer", "true", "false"}


@dataclass
class _Tok:
    kind: str
    text: str
    line: int
    col: int


def _lex(text: str) -> list[_Tok]:
    toks = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise PropertySyntaxError(f"bad character {text[pos]!r}", line, col)
        kind = m.lastgroup
        lexeme = m.group()
        if kind != "ws":
            toks.append(_Tok(kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _lex(text)
        self.pos = 0
        self.open_parens: list[_Tok] = []

    def peek(self) -> _Tok | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> _Tok:
        tok = self.peek()
        if tok is None:
            if self.open_parens:
                p = self.open_parens[-1]
                raise PropertySyntaxError("unbalanced '('", p.line, p.col)
            last = self.toks[-1] if self.toks else _Tok("", "", 1, 1)
            raise PropertySyntaxError("unexpected end of input", last.line,
                                      last.col + len(last.text))
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Tok:
        tok = self.next()
        if tok.text != text:
            raise PropertySyntaxError(f"expected {text!r}, found {tok.text!r}",
                                      tok.line, tok.col)
        return tok

    def formula(self) -> Always:
        head = self.next()
        if head.text in _TEMPORAL - {"G"}:
            raise UnsupportedFragment(
                f"temporal operator {head.text} outside G is not in the safety fragment")
        if head.text != "G":
            raise PropertySyntaxError("formula must start with G", head.line, head.col)
        self.expect("(")
        self.open_parens.append(self.toks[self.pos - 1])
        body = self.body()
        self.expect(")")
        self.open_parens.pop()
        tok = self.peek()
        if tok is not None:
            raise PropertySyntaxError(f"trailing input {tok.text!r}", tok.line, tok.col)
        return Always(body)

    def body(self):
        lhs = self.or_expr()
        tok = self.peek()
        if tok is not None and tok.kind == "arrow":
            self.next()
            return Implies(lhs, self.body())
        return lhs

    def or_expr(self):
        items = [self.and_expr()]
        while (tok := self.peek()) is not None and tok.text == "|":
            self.next()
            items.append(self.and_expr())
        return items[0] if len(items) == 1 else Or(tuple(items))

    def and_expr(self):
        items = [self.unary()]
        while (tok := self.peek()) is not None and tok.text == "&":
            self.next()
            items.append(self.unary())
        return items[0] if len(items) == 1 else And(tuple(items))

    def unary(self):
        tok = self.peek()
        if tok is None:
            self.next()  # raises with position info
        if tok.text == "!":
            self.next()
            return Not(self.unary())
        if tok.text == "(":
            self.next()
            self.open_parens.append(tok)
            inner = self.body()
            self.expect(")")
            self.open_parens.pop()
            return inner
        if tok.text in ("forall_stack", "exists_stack"):
            self.next()
            var = self.next().text
            self.expect(".")
            body = self.body()
            cls = ForallStack if tok.text == "forall_stack" else ExistsStack
            return cls(var, body)
        if tok.text in ("forall_buffer", "exists_buffer"):
            self.next()
            var = self.next().text
            self.expect("in")
            frame_var = self.next().text
            self.expect(".")
            body = self.body()
            cls = ForallBuffer if tok.text == "forall_buffer" else ExistsBuffer
            return cls(var, frame_var, body)
        if tok.text == "all":
            self.next()
            var = self.next().text
            self.expect("in")
            lo = int(self.next().text)
            self.expect("..")
            hi = int(self.next().text)
            self.expect(":")
            return AllRange(var, lo, hi, self.body())
        if tok.text in _TEMPORAL:
            raise UnsupportedFragment(
                f"temporal operator {tok.text} inside the body is not supported")
        return self.atom()

    def atom(self):
        tok = self.next()
        if tok.text == "true":
            return BoolLit(True)
        if tok.text == "false":
            return BoolLit(False)
        if tok.text == "byte":
            self.expect("(")
            idx = self.index_expr()
            self.expect(",")
            self.expect("stack")
            self.expect("(")
            fvar = self.next().text
            self.expect(")")
            self.expect(")")
            op = self.cmp()
            state_tok = self.next()
            if state_tok.text not in _STATE_NAMES:
                raise PropertySyntaxError(f"unknown byte state {state_tok.text!r}",
                                          state_tok.line, state_tok.col)
            return ByteAtom(idx, fvar, op, _STATE_NAMES[state_tok.text])
        if tok.text == "has_canary":
            self.expect("(")
            fvar = self.next().text
            self.expect(")")
            return HasCanary(fvar)
        if tok.text == "previous_transition":
            op = self.cmp()
            return PrevTransition(op, self.transition_targets())
        if tok.kind == "ident":
            raise UnknownOperator(f"unknown operator {tok.text!r} at line {tok.line}, col {tok.col}")
        raise PropertySyntaxError(f"unexpected {tok.text!r}", tok.line, tok.col)

    def cmp(self) -> str:
        tok = self.next()
        if tok.text not in ("=", "!="):
            raise PropertySyntaxError(f"expected '=' or '!=', found {tok.text!r}",
                                      tok.line, tok.col)
        return tok.text

    def transition_targets(self) -> tuple:
        tok = self.next()
        if tok.text == "{":
            names = [self.next().text]
            while self.peek() is not None and self.peek().text == ",":
                self.next()
                names.append(self.next().text)
            self.expect("}")
            return tuple(self._target(n, tok) for n in names)
        return (self._target(tok.text, tok),)

    @staticmethod
    def _target(name: str, tok: _Tok) -> tuple:
        if name == "loop":
            return ("loop",)
        if name == "libc":
            return ("libc",)
        if name.startswith("call_"):
            return ("call", name[len("call_"):])
        raise PropertySyntaxError(f"unknown transition target {name!r}", tok.line, tok.col)

    def index_expr(self) -> IndexExpr:
        tok = self.next()
        if tok.kind == "num":
            return IndexExpr("const", int(tok.text))
        if tok.text in ("start", "end"):
            self.expect("(")
            bvar = self.next().text
            self.expect(")")
            off = 0
            nxt = self.peek()
            if nxt is not None and nxt.text in ("+", "-"):
                sign = -1 if self.next().text == "-" else 1
                off = sign * int(self.next().text)
            return IndexExpr(tok.text, off, bvar)
        if tok.kind == "ident":
            return IndexExpr("var", 0, tok.text)
        raise PropertySyntaxError(f"bad index expression {tok.text!r}", tok.line, tok.col)


def parse_property(text: str, name: str = "anonymous",
                   cwes: tuple[str, ...] = ()) -> PropertyAst:
    formula = _Parser(text).formula()
    return PropertyAst(name=name, formula=formula, cwes=cwes, source=text.strip())


_BLOCK_HEAD_RE = re.compile(
    r'property\s+(?:"(?P<qname>[^"]+)"|(?P<name>[\w-]+))\s*\{')


def parse_property_file(text: str) -> list[PropertyAst]:
    """Parse ``property <name> { ltl: <formula> cwe: [CWE-..] }`` blocks.

    Block bodies balance braces, so ``{loop, libc}`` target sets nest fine.
    """
    out = []
    pos = 0
    stripped = re.sub(r"#[^\n]*", "", text)
    while True:
        m = _BLOCK_HEAD_RE.search(stripped, pos)
        if not m:
            leftover = stripped[pos:].strip()
            if leftover:
                raise PropertySyntaxError("unrecognized property block", 1, 1)
            break
        name = m.group("qname") or m.group("name")
        depth = 1
        end = m.end()
        while end < len(stripped) and depth:
            if stripped[end] == "{":
                depth += 1
            elif stripped[end] == "}":
                depth -= 1
            end += 1
        if depth:
            raise PropertySyntaxError(f"unterminated property block {name!r}", 1, 1)
        body = stripped[m.end():end - 1]
        ltl_part, sep, cwe_part = body.partition("cwe:")
        ltl_text = ltl_part.split("ltl:", 1)[1].strip() if "ltl:" in ltl_part else ltl_part.strip()
        cwes: tuple[str, ...] = ()
        if sep:
            inside = cwe_part.strip().lstrip("[").split("]", 1)[0]
            cwes = tuple(c.strip() for c in inside.split(",") if c.strip())
        out.append(parse_property(ltl_text, name=name, cwes=cwes))
        pos = end
    return out


# --- evaluation ---------------------------------------------------------------
#
# A body compiles once into a closure pred(state, env, ctx) -> bool. Every
# variable binder owns one slot of the `env` list, resolved at compile time,
# so evaluation builds no dicts and dispatches on no node types. Evaluation
# order is the formula's: connectives and quantifiers short-circuit left to
# right, and `all i in a..b` evaluates every index it does not skip, so the
# EvalContext counters and notes record every atom and domain evaluated.

@dataclass
class EvalContext:
    libc_names: set[str] = field(default_factory=set)
    notes: list[str] = field(default_factory=list)
    implications: int = 0
    antecedents_true: int = 0
    quantifier_domains: int = 0
    empty_domains: int = 0

    def vacuous(self) -> bool:
        if self.implications and self.antecedents_true == 0:
            return True
        return bool(self.quantifier_domains) and self.quantifier_domains == self.empty_domains


Pred = Callable[[MemoryState, list, EvalContext], bool]


def eval_atom(atom, state: MemoryState, env: dict | None = None,
              ctx: EvalContext | None = None) -> bool:
    return eval_body(atom, state, env or {}, ctx if ctx is not None else EvalContext())


def eval_body(node, state: MemoryState, env: dict, ctx: EvalContext) -> bool:
    """Evaluate `node` with `env` (variable name -> frame, buffer or index)
    bound, through the node's compiled form."""
    return compile_body(node, tuple(env))(state, ctx, *env.values())


@lru_cache(maxsize=256)
def compile_body(node, free: tuple[str, ...] = ()) -> Callable[..., bool]:
    """pred(state, ctx, *values), with `values` bound to the `free` names."""
    compiler = _Compiler(len(free))
    inner = compiler.node(node, {name: k for k, name in enumerate(free)})
    binder_slots = [None] * (compiler.slots - len(free))

    def pred(state: MemoryState, ctx: EvalContext, *values) -> bool:
        return inner(state, [*values, *binder_slots], ctx)
    return pred


def _unbound(name: str):
    """A variable that no binder in scope defines raises KeyError when it is
    evaluated, so a branch that is never reached does not fail."""
    def unbound_variable(*_):
        raise KeyError(name)
    return unbound_variable


class _Compiler:
    """Compiles body nodes to closures; each variable binder gets the next
    slot of the `env` list, after the slots of the free variables."""

    def __init__(self, slots: int):
        self.slots = slots

    def bind(self, scope: dict, var: str) -> tuple[int, dict]:
        self.slots += 1
        return self.slots - 1, {**scope, var: self.slots - 1}

    def node(self, node, scope: dict) -> Pred:
        for kinds, method in self.RULES:
            if isinstance(node, kinds):
                return method(self, node, scope)
        raise TypeError(f"cannot evaluate node {node!r}")

    def byte_atom(self, atom: ByteAtom, scope: dict) -> Pred:
        fs = scope.get(atom.frame_var)
        if fs is None:
            return _unbound(atom.frame_var)
        index = self.index(atom.index, scope)
        letter, want = ord(atom.state.value), atom.op == "="

        def byte(state, env, ctx):
            frame = env[fs]
            idx = index(frame, env)
            if 0 <= idx < len(frame.bytes):
                return (frame.bytes[idx] == letter) == want
            ctx.notes.append(f"byte index {idx} outside frame {frame.label!r}; atom false")
            return False
        return byte

    def index(self, expr: IndexExpr, scope: dict) -> Callable[[StackFrame, list], int]:
        if expr.base == "const":
            value = expr.value
            return lambda frame, env: value
        slot = scope.get(expr.var)
        if slot is None:
            return _unbound(expr.var)
        if expr.base == "var":
            return lambda frame, env: env[slot]
        end, off = expr.base == "end", expr.value
        return lambda frame, env: buffer_index_span(frame, *env[slot])[end] + off

    def has_canary(self, atom: HasCanary, scope: dict) -> Pred:
        fs = scope.get(atom.frame_var)
        if fs is None:
            return _unbound(atom.frame_var)
        return lambda state, env, ctx: env[fs].has_canary

    def prev_transition(self, atom: PrevTransition, scope: dict) -> Pred:
        loop, libc = ("loop",) in atom.targets, ("libc",) in atom.targets
        calls = {t[1] for t in atom.targets if t[0] == "call"}
        want = atom.op == "="

        def prev(state, env, ctx):
            label = state.incoming_label
            if label is None or label.kind not in ("loop", "call"):
                return not want
            if label.kind == "loop":
                return loop == want
            matched = label.name in calls or (libc and label.name in ctx.libc_names)
            return matched == want
        return prev

    def bool_lit(self, lit: BoolLit, scope: dict) -> Pred:
        value = lit.value
        return lambda state, env, ctx: value

    def negation(self, node: Not, scope: dict) -> Pred:
        inner = self.node(node.operand, scope)
        return lambda state, env, ctx: not inner(state, env, ctx)

    def junction(self, node, scope: dict) -> Pred:
        items = tuple(self.node(i, scope) for i in node.items)
        stop = isinstance(node, Or)     # the value that ends the scan

        def junction(state, env, ctx):
            for item in items:
                if item(state, env, ctx) == stop:
                    return stop
            return not stop
        return junction

    def implies(self, node: Implies, scope: dict) -> Pred:
        lhs, rhs = self.node(node.lhs, scope), self.node(node.rhs, scope)

        def implies(state, env, ctx):
            ctx.implications += 1
            if not lhs(state, env, ctx):
                return True
            ctx.antecedents_true += 1
            return rhs(state, env, ctx)
        return implies

    def quantifier(self, node, scope: dict) -> Pred:
        """forall/exists over the state's frames or a frame's buffers (in
        sorted order); each quantifier evaluation is one domain."""
        if isinstance(node, (ForallStack, ExistsStack)):
            domain = lambda state, env: state.frames
        elif (fs := scope.get(node.frame_var)) is None:
            return _unbound(node.frame_var)
        else:
            domain = lambda state, env: sorted(env[fs].buffers)
        slot, inner_scope = self.bind(scope, node.var)
        body = self.node(node.body, inner_scope)
        stop = isinstance(node, (ExistsStack, ExistsBuffer))

        def quantifier(state, env, ctx):
            items = domain(state, env)
            ctx.quantifier_domains += 1
            if not items:
                ctx.empty_domains += 1
            for item in items:
                env[slot] = item
                if body(state, env, ctx) == stop:
                    return stop
            return not stop
        return quantifier

    def all_range(self, node: AllRange, scope: dict) -> Pred:
        """Conjunction over the range. Indices the frame does not hold are
        skipped, so that pre-prologue frames do not count as corrupted; an
        all-skipped range is an empty (vacuous) domain."""
        slot, inner_scope = self.bind(scope, node.var)
        body, indices = node.body, range(node.lo, node.hi + 1)
        if isinstance(body, ByteAtom) and body.index == IndexExpr("var", 0, node.var) \
                and body.frame_var in scope and body.frame_var != node.var:
            return _range_slice(scope[body.frame_var], node.lo, node.hi, body)
        absent = self.absent(body, inner_scope)
        inner = self.node(body, inner_scope)

        def conjunction(state, env, ctx):
            held, seen = True, False
            for i in indices:
                env[slot] = i
                if absent is not None and absent(env):
                    continue
                seen = True
                if not inner(state, env, ctx):
                    held = False
            if not seen:
                ctx.quantifier_domains += 1
                ctx.empty_domains += 1
            return held
        return conjunction

    def absent(self, body, scope: dict):
        """absent(env): every byte atom of the body's propositional part
        indexes a slot the frame does not hold: past its extent, or in the
        saved-base-register positions 8..15 of a frame whose prologue never
        pushed the base register. None when the body has no byte atoms."""
        atoms = [(scope.get(a.frame_var), self.index(a.index, scope))
                 for a in _byte_atoms(body)]
        if not atoms:
            return None

        def absent(env):
            for fs, index in atoms:
                if fs is None:
                    return False
                frame = env[fs]
                idx = index(frame, env)
                if idx in RBP_RANGE and not frame.has_rbp_slot:
                    continue
                if 0 <= idx < len(frame.bytes):
                    return False
            return True
        return absent

    RULES = (
        (ByteAtom, byte_atom), (HasCanary, has_canary),
        (PrevTransition, prev_transition), (BoolLit, bool_lit),
        (Not, negation), ((And, Or), junction), (Implies, implies),
        ((ForallStack, ExistsStack, ForallBuffer, ExistsBuffer), quantifier),
        (AllRange, all_range),
    )


def _range_slice(fs: int, lo: int, hi: int, atom: ByteAtom) -> Pred:
    """`all i in lo..hi : byte(i, stack(f)) op S` as one slice compare over
    the indices the range does not skip; no index it keeps is out of frame,
    so the atom never notes."""
    letter, want = ord(atom.state.value), atom.op == "="

    def conjunction(state, env, ctx):
        frame = env[fs]
        a, z = max(lo, 0), min(hi + 1, len(frame.bytes))
        seg = frame.bytes[a:z]
        if not frame.has_rbp_slot and a < RBP_RANGE.stop and z > RBP_RANGE.start:
            seg = frame.bytes[a:RBP_RANGE.start] + frame.bytes[RBP_RANGE.stop:z]
        if not seg:
            ctx.quantifier_domains += 1
            ctx.empty_domains += 1
            return True
        return seg.count(letter) == len(seg) if want else letter not in seg
    return conjunction


def _byte_atoms(node):
    """Byte atoms of the propositional part; quantified bodies are not entered."""
    if isinstance(node, ByteAtom):
        yield node
    elif isinstance(node, (Not, And, Or, Implies)):
        for child in _children(node):
            yield from _byte_atoms(child)


# --- monitors -----------------------------------------------------------------

RUN = "run"
REJECT = "reject"


@dataclass(frozen=True)
class Monitor:
    """Violation monitor for a safety property G p.

    The positive-form automaton is a single state self-looping on p; the
    monitor of the negation adds an absorbing, accepting reject state
    reached exactly when p first fails (bad-prefix acceptance).
    """

    name: str
    body: object
    cwes: tuple[str, ...] = ()
    states: tuple[str, ...] = (RUN, REJECT)
    initial: str = RUN
    accepting: tuple[str, ...] = (REJECT,)
    predicate: Callable[..., bool] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "predicate", compile_body(self.body))

    def positive_form(self) -> dict:
        return {"states": ("run",), "initial": "run",
                "transitions": (("run", "p", "run"),)}

    def step(self, monitor_state: str, memory_state: MemoryState,
             ctx: EvalContext) -> str:
        if monitor_state == REJECT:
            return REJECT
        return RUN if self.predicate(memory_state, ctx) else REJECT


def compile_monitor(ast: PropertyAst) -> Monitor:
    """Check the formula is in the G <body> fragment and compile its body."""
    if not isinstance(ast.formula, Always):
        raise UnsupportedFragment("only G <body> properties are supported")
    _reject_temporal(ast.formula.body)
    return Monitor(name=ast.name, body=ast.formula.body, cwes=ast.cwes)


def _reject_temporal(node) -> None:
    if isinstance(node, Always):
        raise UnsupportedFragment("nested G is outside the supported fragment")
    for child in _children(node):
        _reject_temporal(child)


def _children(node):
    if isinstance(node, Not):
        return (node.operand,)
    if isinstance(node, (And, Or)):
        return node.items
    if isinstance(node, Implies):
        return (node.lhs, node.rhs)
    if isinstance(node, (ForallStack, ExistsStack, ForallBuffer, ExistsBuffer, AllRange)):
        return (node.body,)
    return ()


def load_bundled_properties() -> list[PropertyAst]:
    return load_data("properties.props", parse_property_file)
