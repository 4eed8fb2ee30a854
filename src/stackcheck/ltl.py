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

``previous_transition`` reads the incoming label: ``call_<name>`` is a
library call or safecall by that name, ``libc`` a library call the libc
database models, as the label's `calls` field says; no user call is
either.

``all i in a..b :`` denotes the conjunction over the indices of the
range; indices the frame does not hold are skipped as vacuous (a frame
before the base-register push has no bytes 8-15, which must not count as
corruption). A bare byte atom with an out-of-frame index evaluates false
and records a vacuity note.

`compile_body` writes each body as the source of one straight-line Python
function and compiles it once: one `for` loop per quantifier, bound
variables as locals, and an index-range conjunction of a single byte atom,
such as the one above, as one slice compare over the frame's letters.
`Monitor.step` calls that function. `compile_kernel` writes the code of a
whole property set's bodies into one function, which the checker calls
once per state. A body nested deeper than Python compiles (more than 20
quantifiers and ranges inside one another), or more than MAX_NESTING
levels deep in all, is an unsupported fragment.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from contextlib import contextmanager, nullcontext
from functools import cache, lru_cache
from itertools import count
from typing import NamedTuple

from . import load_data
from .frontend import USER
from .memstace import (LIBC, RBP_RANGE, ByteState, MemoryState, StackFrame,
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


TOO_DEEP = "property body nests too deeply"
# parentheses, negations, quantifiers, ranges and implications one inside
# another; a deeper body is rejected before the parser's recursion, or any
# later walk over the body, reaches Python's recursion limit
MAX_NESTING = 100


class UnboundVariable(Exception):
    pass


class VariableKindError(Exception):
    """A frame, buffer or index variable used where another kind belongs."""


# --- AST ---------------------------------------------------------------------
#
# Nodes are NamedTuples, so they hash and compare in C: `compile_body` and
# `compile_kernel` are caches keyed by them. Tuple equality ignores the
# class, so the last field of every node is its kind, and no two kinds of
# node with equal fields compare equal (And(x) != Or(x)).

class Always(NamedTuple):
    body: object
    kind: str = "G"


class Not(NamedTuple):
    operand: object
    kind: str = "not"


class And(NamedTuple):
    items: tuple
    kind: str = "and"


class Or(NamedTuple):
    items: tuple
    kind: str = "or"


class Implies(NamedTuple):
    lhs: object
    rhs: object
    kind: str = "implies"


class ForallStack(NamedTuple):
    var: str
    body: object
    kind: str = "forall_stack"


class ExistsStack(NamedTuple):
    var: str
    body: object
    kind: str = "exists_stack"


class ForallBuffer(NamedTuple):
    var: str
    frame_var: str
    body: object
    kind: str = "forall_buffer"


class ExistsBuffer(NamedTuple):
    var: str
    frame_var: str
    body: object
    kind: str = "exists_buffer"


class AllRange(NamedTuple):
    var: str
    lo: int
    hi: int
    body: object
    kind: str = "all"


class BoolLit(NamedTuple):
    value: bool
    kind: str = "bool"


class IndexExpr(NamedTuple):
    base: str                   # const | var | start | end
    value: int = 0              # constant value or +- offset
    var: str | None = None      # index or buffer variable
    kind: str = "index"


class ByteAtom(NamedTuple):
    index: IndexExpr
    frame_var: str
    op: str                     # = or !=
    state: ByteState
    kind: str = "byte"


class HasCanary(NamedTuple):
    frame_var: str
    kind: str = "has_canary"


class PrevTransition(NamedTuple):
    op: str                     # = or !=
    targets: tuple[tuple, ...]  # ("loop",) | ("libc",) | ("call", name)
    kind: str = "previous_transition"


class PropertyAst(NamedTuple):
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


class _Tok(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def _where(text: str, pos: int) -> tuple[int, int]:
    """The 1-based line and column of text[pos]."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _lex(text: str, pos: int = 0, end: int | None = None) -> list[_Tok]:
    """The tokens of text[pos:end], each at its line and column in `text`."""
    end = len(text) if end is None else end
    toks = []
    line, col = _where(text, pos)
    while pos < end:
        m = _TOKEN_RE.match(text, pos, end)
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
    def __init__(self, text: str, start: int = 0, end: int | None = None):
        self.toks = _lex(text, start, end)
        self.origin = _where(text, start)
        self.pos = 0
        self.open_parens: list[_Tok] = []
        self.depth = 0      # enclosing bodies and negations

    def peek(self) -> _Tok | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> _Tok:
        tok = self.peek()
        if tok is None:
            if self.open_parens:
                p = self.open_parens[-1]
                raise PropertySyntaxError("unbalanced '('", p.line, p.col)
            last = self.toks[-1] if self.toks else _Tok("", "", *self.origin)
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

    def number(self) -> int:
        tok = self.next()
        if tok.kind != "num":
            raise PropertySyntaxError(f"expected a number, found {tok.text!r}", tok.line, tok.col)
        return int(tok.text)

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
        self.depth += 1
        lhs = self.or_expr()
        tok = self.peek()
        if tok is not None and tok.kind == "arrow":
            self.next()
            lhs = Implies(lhs, self.body())
        self.depth -= 1
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
        if self.depth > MAX_NESTING:    # every nesting recurses through here
            raise UnsupportedFragment(TOO_DEEP)
        tok = self.peek()
        if tok is None:
            self.next()  # raises with position info
        if tok.text == "!":
            self.next()
            self.depth += 1
            operand = self.unary()
            self.depth -= 1
            return Not(operand)
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
            lo = self.number()
            self.expect("..")
            hi = self.number()
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
                off = sign * self.number()
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
_BLANK_RE = re.compile(r"\s*")


def parse_property_file(text: str | bytes) -> list[PropertyAst]:
    """Parse ``property <name> { ltl: <formula> cwe: [CWE-..] }`` blocks
    (bytes are decoded as UTF-8).

    Block bodies balance braces, so ``{loop, libc}`` target sets nest fine.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    out = []
    pos = 0
    # comments go, newlines stay: positions in `stripped` have the file's lines
    stripped = re.sub(r"#[^\n]*", "", text)
    while True:
        # each block head is the next non-blank text; any other text, before
        # a block or after the last, is an error at its place
        pos = _BLANK_RE.match(stripped, pos).end()
        if pos == len(stripped):
            break
        m = _BLOCK_HEAD_RE.match(stripped, pos)
        if not m:
            raise PropertySyntaxError("unrecognized property block", *_where(stripped, pos))
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
            raise PropertySyntaxError(f"unterminated property block {name!r}",
                                      *_where(stripped, m.start()))
        body = stripped[m.end():end - 1]
        ltl_part, sep, cwe_part = body.partition("cwe:")
        # the formula, lexed in place so that errors give places in the file
        head = ltl_part.find("ltl:")
        start, stop = m.end() + (head + len("ltl:") if head >= 0 else 0), m.end() + len(ltl_part)
        cwes: tuple[str, ...] = ()
        if sep:
            inside = cwe_part.strip().lstrip("[").split("]", 1)[0]
            cwes = tuple(c.strip() for c in inside.split(",") if c.strip())
        out.append(PropertyAst(name, _Parser(stripped, start, stop).formula(), cwes,
                               stripped[start:stop].strip()))
        pos = end
    return out


# --- evaluation ---------------------------------------------------------------
#
# A body compiles once into the source of one Python function
# pred(state, env, ctx) -> bool, which `compile` turns into code. Each
# quantifier is one `for` loop and each bound variable a local; the value of
# the node just evaluated is always in the local `t`. Evaluation order is
# the formula's: connectives and quantifiers short-circuit left to right,
# and `all i in a..b` evaluates every index it does not skip, so the
# EvalContext counters and notes record every atom and domain evaluated.
# The source holds only generated names, operators and integer literals;
# every other value (byte letters, call names, variable names for errors)
# reaches it through the function's globals.

class EvalContext:
    __slots__ = ("notes", "implications", "antecedents_true",
                 "quantifier_domains", "empty_domains")

    def __init__(self):
        self.notes: list[str] = []
        self.implications = 0
        self.antecedents_true = 0
        self.quantifier_domains = 0
        self.empty_domains = 0

    def vacuous(self) -> bool:
        if self.implications and self.antecedents_true == 0:
            return True
        return bool(self.quantifier_domains) and self.quantifier_domains == self.empty_domains


Pred = Callable[[MemoryState, list, EvalContext], bool]


@lru_cache(maxsize=256)
def compile_body(node, free: tuple[str, ...] = ()) -> Pred:
    """pred(state, env, ctx) over an `env` list of `pred.slots` entries,
    which hold the values of the `free` names in order. `pred.unbound`
    names the variables no binder in scope defines; evaluating one raises
    KeyError, so a branch never reached does not fail. `pred.source` is the
    generated source."""
    gen = _Generator()
    scope = {}
    for k, name in enumerate(free):
        scope[name] = gen.local()
        gen.emit(f"{scope[name]} = env[{k}]")
    gen.node(node, scope)
    gen.emit("return t")
    pred = _define(gen, "pred", "state, env, ctx")
    pred.slots = len(free)
    pred.unbound = tuple(gen.unbound_names)
    return pred


Kernel = Callable[[MemoryState, list, list], list]


@lru_cache(maxsize=32)
def compile_kernel(bodies: tuple) -> Kernel:
    """kernel(state, ctxs, live) -> the positions k, ascending, whose body
    `state` falsifies. In order, each body with `live[k]` set runs the code
    `compile_body` writes for it against `ctxs[k]`; the others are skipped.
    One generator writes every body, so their constants and locals do not
    clash. A body within one level of Python's indentation limit does not
    fit inside the guard; the kernel then calls each body's predicate.
    `kernel.source` is the generated source."""
    try:
        return _kernel(bodies, inline=True)
    except UnsupportedFragment:
        return _kernel(bodies, inline=False)


def _kernel(bodies: tuple, inline: bool) -> Kernel:
    gen = _Generator()
    gen.emit("r = []")
    for k, body in enumerate(bodies):
        with gen.block(f"if live[{k}]:"):
            gen.emit(f"ctx = ctxs[{k}]")
            if inline:
                gen.node(body, {})
            else:
                gen.emit(f"t = {gen.constant(compile_body(body))}(state, (), ctx)")
            with gen.block("if not t:"):
                gen.emit(f"r.append({k})")
    gen.emit("return r")
    return _define(gen, "kernel", "state, ctxs, live")


def _define(gen: _Generator, name: str, params: str) -> Callable:
    """Compile the generator's lines as the body of `def name(params)`."""
    source = f"def {name}({params}):\n" + "\n".join(gen.lines) + "\n"
    namespace = dict(gen.globals)
    try:
        exec(compile(source, "<property body>", "exec"), namespace)
    except SyntaxError as exc:      # more nested blocks than Python compiles
        raise UnsupportedFragment(f"{TOO_DEEP}: {exc.msg}") from None
    fn = namespace[name]
    fn.source = source
    return fn


def _outside(ctx: EvalContext, idx: int, frame: StackFrame) -> bool:
    ctx.notes.append(f"byte index {idx} outside frame {frame.label!r}; atom false")
    return False


def _unbound(name: str):
    raise KeyError(name)


def _empty(ctx: EvalContext) -> bool:
    """A conjunction over an empty domain: vacuously true."""
    ctx.quantifier_domains += 1
    ctx.empty_domains += 1
    return True


_RBP_LO, _RBP_HI = RBP_RANGE.start, RBP_RANGE.stop


class _Generator:
    """Writes the body of one predicate: `lines` of source, indented one
    level, and the `globals` that source reads."""

    def __init__(self):
        self.lines: list[str] = []
        self.depth = 1
        self.globals = {"outside": _outside, "unbound": _unbound, "empty": _empty,
                        "span": buffer_index_span,
                        "LOOP": "loop", "CALL": "call", "USER": USER, "LIBC": LIBC,
                        **{s.name: ord(s.value) for s in ByteState}}
        self.unbound_names: list[str] = []
        self.kinds: dict[str, str | None] = {}      # local -> kind of variable it binds

    def emit(self, *lines: str) -> None:
        self.lines.extend("    " * self.depth + line for line in lines)

    @contextmanager
    def block(self, head: str):
        self.emit(head)
        self.depth += 1
        yield
        self.depth -= 1

    def local(self, kind: str | None = None) -> str:
        name = f"v{len(self.kinds)}"
        self.kinds[name] = kind
        return name

    def var(self, name: str, scope: dict, kind: str) -> str | None:
        """The local a `kind` variable, or a free name, is bound to; None if unbound."""
        v = scope.get(name)
        if v is not None and self.kinds[v] not in (None, kind):
            raise VariableKindError(f"variable {name!r} is a {self.kinds[v]}, used as a {kind}")
        return v

    def constant(self, value) -> str:
        """A global holding `value`, for values the source must not spell."""
        name = f"K{len(self.globals)}"
        self.globals[name] = value
        return name

    def unbound(self, name: str) -> str:
        """An expression that raises KeyError(name) when evaluated."""
        self.unbound_names.append(name)
        return f"unbound({self.constant(name)})"

    def node(self, node, scope: dict) -> None:
        """Emit code that leaves the value of `node` in `t`."""
        for kinds, method in self.RULES:
            if isinstance(node, kinds):
                return method(self, node, scope)
        raise TypeError(f"cannot evaluate node {node!r}")

    def byte_atom(self, atom: ByteAtom, scope: dict) -> None:
        f = self.var(atom.frame_var, scope, "frame")
        if f is None:
            return self.emit(f"t = {self.unbound(atom.frame_var)}")
        idx = self.frame_index(atom.index, f, scope)
        op = "==" if atom.op == "=" else "!="
        if atom.index.base == "const" and atom.index.value >= 0:
            held = f"{idx} < len({f}.bytes)"
        else:
            self.emit(f"x = {idx}")
            idx, held = "x", f"0 <= x < len({f}.bytes)"
        self.emit(f"t = {f}.bytes[{idx}] {op} {atom.state.name} if {held} "
                  f"else outside(ctx, {idx}, {f})")

    def frame_index(self, expr: IndexExpr, f: str, scope: dict) -> str:
        """The expression for a byte index into frame `f`."""
        if expr.base == "const":
            return str(expr.value)
        var = self.var(expr.var, scope, "byte index" if expr.base == "var" else "buffer")
        if var is None:
            return self.unbound(expr.var)
        if expr.base == "var":
            return var
        offset = f" + {expr.value}" if expr.value > 0 else f" - {-expr.value}" if expr.value else ""
        return f"span({f}, *{var})[{int(expr.base == 'end')}]{offset}"

    def has_canary(self, atom: HasCanary, scope: dict) -> None:
        f = self.var(atom.frame_var, scope, "frame")
        self.emit(f"t = {self.unbound(atom.frame_var) if f is None else f + '.has_canary'}")

    def prev_transition(self, atom: PrevTransition, scope: dict) -> None:
        """Whether the incoming label is a loop or a call to one of the
        targets, as its `calls` field says: `call_<name>` is a library call
        or safecall by that name, `libc` a library call the libc database
        models; no user call matches either."""
        calls = frozenset(t[1] for t in atom.targets if t[0] == "call")
        names = [f"x.calls != USER and x.name in {self.constant(calls)}"] if calls else []
        if ("libc",) in atom.targets:
            names.append("x.calls == LIBC")
        kinds = [f"x.kind == CALL and ({' or '.join(names)})"] if names else []
        if ("loop",) in atom.targets:
            kinds.append("x.kind == LOOP")
        matched = f"x is not None and ({' or '.join(kinds)})" if kinds else "False"
        self.emit("x = state.incoming_label",
                  f"t = {matched}" if atom.op == "=" else f"t = not ({matched})")

    def bool_lit(self, lit: BoolLit, scope: dict) -> None:
        self.emit(f"t = {bool(lit.value)}")

    def negation(self, node: Not, scope: dict) -> None:
        self.node(node.operand, scope)
        self.emit("t = not t")

    def junction(self, node, scope: dict) -> None:
        """Each item past the first runs only while no earlier one has
        decided the junction."""
        self.node(node.items[0], scope)
        for item in node.items[1:]:
            with self.block("if not t:" if isinstance(node, Or) else "if t:"):
                self.node(item, scope)

    def implies(self, node: Implies, scope: dict) -> None:
        self.emit("ctx.implications += 1")
        self.node(node.lhs, scope)
        with self.block("if t:"):
            self.emit("ctx.antecedents_true += 1")
            self.node(node.rhs, scope)
        with self.block("else:"):
            self.emit("t = True")

    def quantifier(self, node, scope: dict) -> None:
        """forall/exists over the state's frames or a frame's buffers (in
        sorted order); each quantifier evaluation is one domain."""
        if isinstance(node, (ForallStack, ExistsStack)):
            domain = "state.frames"
        elif (f := self.var(node.frame_var, scope, "frame")) is None:
            return self.emit(f"t = {self.unbound(node.frame_var)}")
        else:
            domain = f"sorted({f}.buffers)"
        v = self.local("frame" if domain == "state.frames" else "buffer")
        exists = isinstance(node, (ExistsStack, ExistsBuffer))
        self.emit("ctx.quantifier_domains += 1", f"d{v} = {domain}")
        with self.block(f"if not d{v}:"):
            self.emit("ctx.empty_domains += 1")
        self.emit(f"t = {not exists}")
        with self.block(f"for {v} in d{v}:"):
            self.node(node.body, {**scope, node.var: v})
            with self.block("if t:" if exists else "if not t:"):
                self.emit("break")

    def all_range(self, node: AllRange, scope: dict) -> None:
        """Conjunction over the range. Indices the frame does not hold are
        skipped, so that pre-prologue frames do not count as corrupted; an
        all-skipped range is an empty (vacuous) domain."""
        body = node.body
        if isinstance(body, ByteAtom) and body.index == IndexExpr("var", 0, node.var) \
                and body.frame_var != node.var \
                and (f := self.var(body.frame_var, scope, "frame")) is not None:
            return self.range_slice(node, f)
        v = self.local("byte index")
        inner = {**scope, node.var: v}
        self.emit(f"h{v} = True", f"s{v} = False")
        with self.block(f"for {v} in range({node.lo}, {node.hi + 1}):"):
            self.absent(body, inner)
            self.emit(f"s{v} = True")
            self.node(body, inner)
            with self.block("if not t:"):
                self.emit(f"h{v} = False")
        self.emit(f"t = h{v} if s{v} else empty(ctx)")

    def absent(self, body, scope: dict) -> None:
        """Skip the index (`continue`) when every byte atom of the body's
        propositional part indexes a slot the frame does not hold: past its
        extent, or in the saved-base-register slots of a frame whose
        prologue never pushed the base register. Quantified bodies are not
        entered; a body with no byte atoms skips nothing."""
        atoms, todo = [], [body]
        while todo:
            n = todo.pop()
            if isinstance(n, ByteAtom):
                atoms.append(n)
            elif isinstance(n, (Not, And, Or, Implies)):
                todo.extend(reversed(_children(n)))
        if not atoms:
            return
        self.emit("a = True")
        for k, atom in enumerate(atoms):
            f = self.var(atom.frame_var, scope, "frame")
            with self.block("if a:") if k else nullcontext():
                if f is None:
                    self.emit("a = False")
                    break
                self.emit(f"x = {self.frame_index(atom.index, f, scope)}",
                          f"a = {_RBP_LO} <= x < {_RBP_HI} and not {f}.has_rbp_slot "
                          f"or not 0 <= x < len({f}.bytes)")
        with self.block("if a:"):
            self.emit("continue")

    def range_slice(self, node: AllRange, f: str) -> None:
        """`all i in lo..hi : byte(i, stack(f)) op S` as one slice compare
        over the indices the range does not skip; no index it keeps is out
        of frame, so the atom never notes."""
        atom = node.body
        start, stop = max(node.lo, 0), node.hi + 1
        if stop <= start:
            return self.emit("t = empty(ctx)")
        segment = f"{f}.bytes[{start}:{stop}]"
        if start < _RBP_HI and stop > _RBP_LO:
            kept = f"{f}.bytes[{_RBP_HI}:{stop}]"
            if start < _RBP_LO:
                kept = f"{f}.bytes[{start}:{_RBP_LO}] + {kept}"
            segment = f"{segment} if {f}.has_rbp_slot else {kept}"
        letter = atom.state.name
        held = f"x.count({letter}) == len(x)" if atom.op == "=" else f"{letter} not in x"
        self.emit(f"x = {segment}", f"t = {held} if x else empty(ctx)")

    RULES = (
        (ByteAtom, byte_atom), (HasCanary, has_canary),
        (PrevTransition, prev_transition), (BoolLit, bool_lit),
        (Not, negation), ((And, Or), junction), (Implies, implies),
        ((ForallStack, ExistsStack, ForallBuffer, ExistsBuffer), quantifier),
        (AllRange, all_range),
    )


# --- monitors -----------------------------------------------------------------

RUN = "run"
REJECT = "reject"


class Monitor(NamedTuple):
    """Violation monitor for a safety property G p.

    The positive-form automaton is a single state self-looping on p; the
    monitor of the negation adds an absorbing, accepting reject state
    reached exactly when p first fails (bad-prefix acceptance).
    """

    name: str
    body: object
    cwes: tuple[str, ...] = ()

    states = (RUN, REJECT)
    initial = RUN
    accepting = (REJECT,)

    @property
    def predicate(self) -> Pred:
        return compile_body(self.body)

    def positive_form(self) -> dict:
        return {"states": ("run",), "initial": "run",
                "transitions": (("run", "p", "run"),)}

    def step(self, monitor_state: str, memory_state: MemoryState,
             ctx: EvalContext) -> str:
        if monitor_state == REJECT:
            return REJECT
        # the body has no free variables, so its environment is empty
        return RUN if self.predicate(memory_state, (), ctx) else REJECT


def compile_monitor(ast: PropertyAst) -> Monitor:
    """Check the formula is in the G <body> fragment and compile its body."""
    if not isinstance(ast.formula, Always):
        raise UnsupportedFragment("only G <body> properties are supported")
    _reject_temporal(ast.formula.body)
    unbound = compile_body(ast.formula.body).unbound
    if unbound:
        raise UnboundVariable(f"property {ast.name!r} uses variable "
                              f"{unbound[0]!r}, which no quantifier binds")
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


def frame_horizon(monitors: list[Monitor]) -> int | None:
    """How many leading indices of a frame the monitors can read: 1 + the
    largest constant index, or upper bound of an `all` range, that a byte
    atom reads, or None when an index has no static bound. Two kinds of
    read do not count, because they read only frames the state space keeps
    whole (see memstace.build_memstace): an atom on the frame of an
    enclosing `has_canary(f) ->`, and a buffer-derived index on that
    buffer's own frame. A buffer-derived index on any other frame has no
    bound."""
    return _horizon(tuple(m.body for m in monitors))


@lru_cache(maxsize=32)
def _horizon(bodies: tuple) -> int | None:
    horizon, frames = 0, count()
    # (node, scope, guarded frames): a scope maps each variable to its
    # binding, ("frame", n), ("buffer", its frame's binding) or ("index", hi)
    todo = [(body, {}, frozenset()) for body in bodies]
    while todo:
        node, scope, guarded = todo.pop()
        if isinstance(node, ByteAtom):
            frame, index = scope.get(node.frame_var), node.index
            if frame in guarded:
                continue
            if index.base == "const":
                horizon = max(horizon, index.value + 1)
                continue
            bound = scope.get(index.var)
            if index.base == "var" and bound is not None and bound[0] == "index":
                horizon = max(horizon, bound[1] + 1)
            elif bound != ("buffer", frame):
                return None
        elif isinstance(node, Implies) and isinstance(node.lhs, HasCanary):
            todo += [(node.lhs, scope, guarded),
                     (node.rhs, scope, guarded | {scope.get(node.lhs.frame_var)})]
        elif isinstance(node, (ForallStack, ExistsStack)):
            todo.append((node.body, {**scope, node.var: ("frame", next(frames))}, guarded))
        elif isinstance(node, (ForallBuffer, ExistsBuffer)):
            todo.append((node.body, {**scope, node.var: ("buffer", scope.get(node.frame_var))},
                         guarded))
        elif isinstance(node, AllRange):
            todo.append((node.body, {**scope, node.var: ("index", node.hi)}, guarded))
        else:
            todo += [(child, scope, guarded) for child in _children(node)]
    return horizon


def load_bundled_properties() -> list[PropertyAst]:
    return load_data("properties.props", parse_property_file)


@cache
def load_bundled_monitors() -> list[Monitor]:
    """The bundled properties' monitors, compiled once per process (callers
    share the list and must not mutate it)."""
    return [compile_monitor(p) for p in load_bundled_properties()]


def load_monitors(path: str | None = None) -> list[Monitor]:
    """Monitors of the bundled properties; the property file at a user
    `path`, read and compiled once per process, extends the set and
    overrides same-named entries."""
    monitors = load_bundled_monitors()
    if path is None:
        return monitors
    by_name = {m.name: m for m in monitors}
    for m in load_data("properties.props", _compile_property_file, path):
        by_name[m.name] = m
    return list(by_name.values())


def _compile_property_file(data: bytes) -> list[Monitor]:
    return [compile_monitor(p) for p in parse_property_file(data)]
