"""Parsing and static checking of source programs.

Source files are UTF-8 s-expressions, one program (a sequence of module
forms) per file; `;` starts a line comment.  Parens and square brackets both
delimit lists and must match pairwise.  A module is

    (module NAME TYPE REQUIRE... BODY)     a typed module
    (module NAME REQUIRE... BODY)          an untyped module

where REQUIRE is `(require X)`, `(require/typed X T)` (typed modules only),
or the `opaque-require` variants that additionally mark the target as
off-limits to the verifier.  The second element of a module form is read as
a type annotation exactly when it is `Int`, `Bool`, or a list headed by
`->`; this resolves the grammar's one ambiguity in favour of typed modules.

The reader makes one pass over the text with one regular expression,
which yields flat token arrays (text and offset of each token) and, for
each opening bracket, the index of its closer.  The AST is then built
top-down from those arrays, one Python frame per nesting level, with each
form's arity checked from the closer index before any element is parsed.
Every node carries its span.  A text gets the diagnostic of the first
problem in this order: a character no token starts with, anywhere; then
the first bracket error in text order (a stray or mismatched closer, or an
opener left unclosed at the end); then the first grammar error, top-down,
module by module, after the `require-kind-mismatch` diagnostics of the
requires before it.  An integer literal too long for the interpreter to
convert is a grammar error at the literal.

The reader also gives each opaque term of a module body its scope, the
names a concrete instantiation of it may reference: the modules its module
requires (`syntax.module_scope`) plus the lambda parameters bound around
it.  No later pass computes a scope.  An opaque term read by `parse_expr`
gets none, which means unrestricted.  The scope is all the reader passes
down; whether the module is typed is set once per module, and the
`require-kind-mismatch` diagnostics go to the reader's one list.

Well-formedness follows the inductive structure of the module sequence.
One function, `require_env`, resolves the requires of both kinds of module
against the modules before it, the first definition of a name winning.
Typed bodies must check against their annotation in the environment their
requires induce, every check appending to one list of diagnostics;
untyped bodies must be closed under theirs and hold no core-language form,
which iterative walks check in time linear in the body.  Module names are
unique, requires point only backward, and an untyped `main` module must
exist.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .syntax import (
    ANY_C, ArrowC, App, BoolLit, BOOL_C, Contract, Expr, If, IntLit, INT_C,
    Lam, Let, Mon, Module, Opaque, Prim, Program, Require, Span, TArrow, Ty,
    T_BOOL, T_INT, Var, module_scope,
)

DiagnosticKind = str  # parse | unbound | duplicate-module | require-kind-mismatch | type-error | main-missing


@dataclass
class Diagnostic:
    kind: DiagnosticKind
    message: str
    span: Span

    def __str__(self) -> str:
        return f"{self.kind} at {self.span[0]}..{self.span[1]}: {self.message}"


class ParseError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


# ---------------------------------------------------------------------------
# Reader: text -> AST nodes with spans
# ---------------------------------------------------------------------------

# One match per token: the whitespace and comments before it (group 1), then
# the token (group 2) or a character no token starts with (group 3).  The
# second part always matches (`\Z` takes trailing whitespace), so none of the
# text goes unseen.  `_` may lead a name so the throwaway parameter parses.
_TOKEN = re.compile(
    r"""(\s*(?:;[^\n]*\s*)*)
        (?: ( [()\[\]] | -?[0-9]+ | \#[tf] | -> | [:λ]
            | [A-Za-z_][A-Za-z0-9_!?/\-]* | \Z )
          | (.) )""",
    re.VERBOSE | re.DOTALL)

_MATCHING = {"(": ")", "[": "]"}
_CLOSE = frozenset(")]")

_KEYWORDS = {"module", "require", "require/typed", "opaque-require",
             "if", "let", "mon", "λ", "lambda", "opaque", ":",
             "int?", "bool?", "any/c"}
# Atoms that are neither names nor integers.
_RESERVED = _KEYWORDS | {"->", "Int", "Bool", "#t", "#f"}
_INT_START = frozenset("-0123456789")  # "->" is reserved
_ATOM_EXPRS = {"#t": lambda span: BoolLit(True, span=span),
               "#f": lambda span: BoolLit(False, span=span),
               "int?": lambda span: Prim("int?", span=span),
               "bool?": lambda span: Prim("bool?", span=span)}
_TYPES = {"Int": T_INT, "Bool": T_BOOL}
_CONTRACTS = {"int?": INT_C, "bool?": BOOL_C, "any/c": ANY_C}
# Per require form: its allowed lengths (3 is annotated), the message for
# any other, and the message for an annotated one in an untyped module.
# `opaque-require` means what the plain form of its length means, plus the
# mark the verifier honours.
_REQUIRES = {
    "require": ((2,), "require expects a module name", None),
    "require/typed": ((3,), "require/typed expects a module name and a type",
                      "require/typed is only legal in typed modules"),
    "opaque-require": ((2, 3), "malformed opaque-require",
                       "annotated opaque-require is only legal in typed modules"),
}


def _error(message: str, span: Span) -> ParseError:
    return ParseError(Diagnostic("parse", message, span))


class _Reader:
    """The tokens of a text in three flat arrays: `toks[i]` is the text of
    token i, `starts[i]` its offset, and `nxt[i]` the index just past the
    form that starts at i (past its closer, for an opener).  A form is
    named by the index of its first token; the top-level forms are 0,
    nxt[0], ... up to len(toks).  `typed` is set per module; `diags`
    collects the `require-kind-mismatch` diagnostics."""

    __slots__ = ("toks", "starts", "nxt", "typed", "diags")

    def __init__(self, text: str):
        toks: list[str] = []
        starts: list[int] = []
        nxt: list[int] = []
        stack: list[int] = []  # indices of the open openers
        bracket_error = None
        pos = 0
        for space, tok, _ in _TOKEN.findall(text):
            pos += len(space)
            i = len(toks)
            toks.append(tok)
            starts.append(pos)
            nxt.append(i + 1)
            pos += len(tok)
            if tok in _MATCHING:
                stack.append(i)
            elif tok in _CLOSE and bracket_error is None:
                if not stack:
                    bracket_error = _error(f"unexpected {tok!r}", (pos - 1, pos))
                    continue
                opener = stack.pop()
                if _MATCHING[toks[opener]] != tok:
                    bracket_error = _error(
                        f"mismatched {toks[opener]!r} closed by {tok!r}", (pos - 1, pos))
                nxt[opener] = i + 1
        # A bad character is the only match whose text `pos` did not count;
        # the first one outranks every bracket error.
        if pos != len(text):
            bad = next(m for m in _TOKEN.finditer(text) if m.group(3))
            raise _error(f"unexpected character {bad.group(3)!r}", bad.span(3))
        if bracket_error is not None:
            raise bracket_error
        if stack:
            opener = stack[-1]
            raise _error(f"unclosed {toks[opener]!r}", (starts[opener], len(text)))
        while toks and not toks[-1]:  # the `\Z` matches
            toks.pop()
        self.toks, self.starts, self.nxt = toks, starts, nxt
        self.typed, self.diags = False, []

    def forms(self, i: int, end: int) -> list[int]:
        """The indices of the forms from token i up to token `end`."""
        found = []
        nxt = self.nxt
        while i < end:
            found.append(i)
            i = nxt[i]
        return found

    def items(self, i: int) -> Optional[list[int]]:
        """The elements of the list opened at token i; None for an atom."""
        if self.toks[i] not in _MATCHING:
            return None
        return self.forms(i + 1, self.nxt[i] - 1)

    def span(self, i: int) -> Span:
        start = self.starts[i]
        end = self.nxt[i] - 1
        if end == i:
            return start, start + len(self.toks[i])
        return start, self.starts[end] + 1

    def name(self, i: int, what: str) -> str:
        t = self.toks[i]
        if t in _RESERVED or t in _MATCHING or t[0] in _INT_START:
            raise _error(f"expected {what}", self.span(i))
        return t

    def ty(self, i: int, leaves=_TYPES, arrow=TArrow, what="a type") -> Ty | Contract:
        """A type, or with the other arguments a contract: an atom in
        `leaves`, or `(-> DOM COD)`."""
        items = self.items(i)
        if items is None:
            t = self.toks[i]
            if t in leaves:
                return leaves[t]
            raise _error(f"expected {what}, got {t!r}", self.span(i))
        if len(items) == 3 and self.toks[items[0]] == "->":
            return arrow(self.ty(items[1], leaves, arrow, what),
                         self.ty(items[2], leaves, arrow, what))
        raise _error(f"expected {what}", self.span(i))

    def expr(self, i: int, scope: Optional[frozenset[str]]) -> Expr:
        """The expression at token i.  Each opaque term in it gets `scope`
        plus the lambda parameters bound around it, or None when `scope` is
        None, as it is for core text, the only text with `let` and `mon`."""
        toks = self.toks
        t = toks[i]
        if t not in _MATCHING:
            start = self.starts[i]
            span = (start, start + len(t))
            if t[0] in _INT_START and t != "->":
                try:
                    return IntLit(int(t), span=span)
                except ValueError:  # longer than the interpreter converts
                    raise _error("integer literal too long", span) from None
            if t in _ATOM_EXPRS:
                return _ATOM_EXPRS[t](span)
            if t == "opaque":
                return Opaque(scope, span=span)
            if t in _RESERVED:
                raise _error(f"{t!r} is not an expression", span)
            return Var(t, span=span)

        end = self.nxt[i] - 1
        items = self.forms(i + 1, end)
        span = (self.starts[i], self.starts[end] + 1)
        head = toks[i + 1]  # the closer, for an empty list
        if head in ("let", "mon") and scope is not None:
            raise _error(f"{head!r} is a core-language form, not source syntax", span)
        if head == "if":
            if len(items) != 4:
                raise _error("if expects 3 subexpressions", span)
            return If(self.expr(items[1], scope), self.expr(items[2], scope),
                      self.expr(items[3], scope), span=span)
        if head in ("λ", "lambda"):
            params = self.items(items[1]) if len(items) == 3 else None
            if params is None:
                raise _error("malformed lambda", span)
            if self.typed:
                if len(params) != 3 or toks[params[1]] != ":":
                    raise _error("typed lambda expects (name : type)", self.span(items[1]))
                name = self.name(params[0], "a parameter name")
                ann: Optional[Ty] = self.ty(params[2])
            else:
                if len(params) != 1:
                    raise _error("untyped lambda expects a bare parameter",
                                 self.span(items[1]))
                name = self.name(params[0], "a parameter name")
                ann = None
            inner = None if scope is None else scope | {name}
            return Lam(name, ann, self.expr(items[2], inner), span=span)
        if head == "let":
            binding = self.items(items[1]) if len(items) == 3 else None
            if binding is None or len(binding) != 2:
                raise _error("malformed let", span)
            return Let(self.name(binding[0], "a binding name"),
                       self.expr(binding[1], scope), self.expr(items[2], scope), span=span)
        if head == "mon":
            parties = self.items(items[1]) if len(items) == 4 else None
            if parties is None or len(parties) != 2:
                raise _error("malformed mon", span)
            pos = self.name(parties[0], "a party name")
            neg = self.name(parties[1], "a party name")
            return Mon(pos, neg, self.ty(items[2], _CONTRACTS, ArrowC, "a contract"),
                       self.expr(items[3], scope), span=span)
        if len(items) == 2:
            return App(self.expr(items[0], scope), self.expr(items[1], scope), span=span)
        raise _error(f"expected an application of one argument, got {len(items)} elements",
                     span)

    def require(self, i: int) -> Optional[Require]:
        items = self.items(i)
        head = self.toks[i + 1] if items else None
        if head not in _REQUIRES:
            raise _error("expected a require form", self.span(i))
        lengths, malformed, untyped = _REQUIRES[head]
        span = self.span(i)
        if len(items) not in lengths:
            raise _error(malformed, span)
        annotated = len(items) == 3
        if annotated and not self.typed:
            self.diags.append(Diagnostic("require-kind-mismatch", untyped, span))
            return None
        return Require(self.name(items[1], "a module name"),
                       ann=self.ty(items[2]) if annotated else None,
                       opaque=head == "opaque-require", span=span)

    def module(self, i: int) -> Module:
        items = self.items(i)
        if not items or self.toks[i + 1] != "module":
            raise _error("expected a (module ...) form", self.span(i))
        if len(items) < 3:
            raise _error("module needs a name and a body", self.span(i))
        name = self.name(items[1], "a module name")
        rest = items[2:]
        ty: Optional[Ty] = None
        first = self.toks[rest[0]]
        if first in _TYPES or (first in _MATCHING and self.toks[rest[0] + 1] == "->"):
            ty = self.ty(rest[0])
            rest = rest[1:]
            if not rest:
                raise _error("typed module needs a body", self.span(i))
        self.typed = ty is not None
        requires = [req for r in rest[:-1] if (req := self.require(r)) is not None]
        body = self.expr(rest[-1], module_scope(requires))
        return Module(name, ty, requires, body, span=self.span(i))


def parse_program(text: str) -> tuple[Optional[Program], list[Diagnostic]]:
    """Parse a program.  On success the printed form re-parses to a
    structurally equal tree.  Returns (program, diagnostics); the program is
    None when parsing could not produce a tree at all."""
    diags: list[Diagnostic] = []
    try:
        reader = _Reader(text)
        diags = reader.diags
        modules = [reader.module(i) for i in reader.forms(0, len(reader.toks))]
    except ParseError as err:
        return None, diags + [err.diagnostic]
    return Program(modules), diags


def parse_expr(text: str) -> Expr:
    """Parse a single core-language expression (used for golden tests and
    the contract-core reader).  Raises ParseError on malformed input."""
    reader = _Reader(text)
    forms = reader.forms(0, len(reader.toks))
    if len(forms) != 1:
        raise _error(f"expected one expression, got {len(forms)}", (0, len(text)))
    return reader.expr(0, None)


# ---------------------------------------------------------------------------
# Environments induced by requires
# ---------------------------------------------------------------------------

def require_env(m: Module,
                defined: dict[str, Module]) -> tuple[dict[str, Optional[Ty]], list[Diagnostic]]:
    """The names `m`'s requires bind, each mapped to the type `m`'s body
    sees it at (None in an untyped body), and the diagnostics of the
    requires.  `defined` maps each module name before `m` to its first
    definition.  In a typed module a plain require contributes the target's
    own annotation (the target must be typed) and an annotated require the
    stated type (the target must be untyped)."""
    env: dict[str, Optional[Ty]] = {}
    diags = [Diagnostic("require-kind-mismatch", "annotated require in an untyped module",
                        r.span or m.span or (0, 0))
             for r in m.requires if r.ann is not None and not m.typed]
    for r in m.requires:
        target = defined.get(r.target)
        span = r.span or (0, 0)
        if target is None:
            diags.append(Diagnostic(
                "unbound", f"require of unknown module {r.target!r}", span))
        elif not m.typed:
            env[r.target] = None
        elif r.ann is None:
            if target.ty is None:
                diags.append(Diagnostic(
                    "require-kind-mismatch",
                    f"plain require of untyped module {r.target!r} from a typed module",
                    span))
            else:
                env[r.target] = target.ty
        elif target.ty is not None:
            diags.append(Diagnostic(
                "require-kind-mismatch",
                f"require/typed targets the typed module {r.target!r}", span))
        else:
            env[r.target] = r.ann
    return env, diags


def _unbound(body: Expr, names) -> tuple[list[str], Optional[Expr]]:
    """The names `body` reads that neither `names` nor a binder around the
    read binds, sorted, and the first core-language form (`let` or `mon`)
    in `body` in pre-order, or None.  One walk with an explicit stack keeps
    the count of binders in scope of each name: a (name, 1) item enters a
    binder and a (name, -1) item leaves it.  A `let`'s right-hand side is
    outside it."""
    bound = dict.fromkeys(names, 1)
    free = set()
    core = None
    stack: list = [body]
    while stack:
        e = stack.pop()
        t = type(e)
        if t is tuple:
            bound[e[0]] = bound.get(e[0], 0) + e[1]
        elif t is Var:
            if not bound.get(e.name):
                free.add(e.name)
        elif t is App:
            stack += (e.arg, e.fn)
        elif t is If:
            stack += (e.orelse, e.then, e.test)
        elif t is Lam:
            stack += ((e.param, -1), e.body, (e.param, 1))
        elif t is Let:
            stack += ((e.name, -1), e.body, (e.name, 1), e.rhs)
            core = core or e
        elif t is Mon:
            stack.append(e.body)
            core = core or e
    return sorted(free), core


# ---------------------------------------------------------------------------
# Expression typing for typed module bodies
# ---------------------------------------------------------------------------
# Simply-typed: `_check` checks an expression against an expected type
# (letting opaque terms take any type the context demands) and `_synth`
# synthesizes one.  Primitives are typed per application: they accept an
# argument of any type and return Bool, and cannot appear unapplied.

def _err(e: Expr, message: str) -> Diagnostic:
    return Diagnostic("type-error", message, e.span or (0, 0))


def _synth(env: dict[str, Ty], e: Expr, diags: list[Diagnostic]) -> Optional[Ty]:
    """The type of `e`; None exactly when its diagnostics, appended to
    `diags`, are not empty."""
    match e:
        case IntLit(_):
            return T_INT
        case BoolLit(_):
            return T_BOOL
        case Var(name):
            t = env.get(name)
            if t is None:
                diags.append(Diagnostic("unbound", f"unbound variable {name!r}",
                                        e.span or (0, 0)))
            return t
        case Prim(op):
            diags.append(_err(e, f"{op} must be applied"))
        case Opaque():
            diags.append(_err(e, "cannot infer a type for an opaque term"))
        case Lam(param, ann, body):
            if ann is None:
                diags.append(_err(e, "unannotated lambda in a typed module body"))
                return None
            bt = _synth({**env, param: ann}, body, diags)
            return None if bt is None else TArrow(ann, bt)
        case If(test, then, orelse):
            n = len(diags)
            _check(env, test, T_BOOL, diags)
            tt = _synth(env, then, diags)
            if tt is not None:
                _check(env, orelse, tt, diags)
                if len(diags) == n:
                    return tt
        case App(fn, arg):
            if isinstance(fn, Prim):
                return None if _synth(env, arg, diags) is None else T_BOOL
            ft = _synth(env, fn, diags)
            if ft is None:
                # An opaque operator can still be typed if the argument determines nothing.
                return None
            if not isinstance(ft, TArrow):
                diags.append(_err(e, f"applied a non-function of type {ft}"))
                return None
            n = len(diags)
            _check(env, arg, ft.dom, diags)
            if len(diags) == n:
                return ft.cod
        case Let(_, _, _) | Mon(_, _, _, _):
            diags.append(_err(e, "core-language form in a surface program"))
        case _:
            raise TypeError(f"not an expression: {e!r}")
    return None


def _check(env: dict[str, Ty], e: Expr, expected: Ty, diags: list[Diagnostic]) -> None:
    """Append to `diags` the diagnostics of checking `e` against `expected`."""
    match e:
        case Opaque():
            pass
        case Lam(param, ann, body):
            if ann is None:
                diags.append(_err(e, "unannotated lambda in a typed module body"))
            elif not isinstance(expected, TArrow):
                diags.append(_err(e, f"lambda where {expected} was expected"))
            elif ann != expected.dom:
                diags.append(_err(e, f"parameter annotated {ann} but {expected.dom} expected"))
            else:
                _check({**env, param: ann}, body, expected.cod, diags)
        case If(test, then, orelse):
            _check(env, test, T_BOOL, diags)
            _check(env, then, expected, diags)
            _check(env, orelse, expected, diags)
        case App(fn, arg) if isinstance(fn, Opaque):
            # (opaque ARG) checks at any type once the argument synthesizes.
            _synth(env, arg, diags)
        case App(fn, arg) if isinstance(fn, Prim):
            if expected != T_BOOL:
                diags.append(_err(e, f"{fn.op} returns Bool, not {expected}"))
            else:
                _synth(env, arg, diags)
        case _:
            t = _synth(env, e, diags)
            if t is not None and t != expected:
                diags.append(_err(e, f"expected {expected}, found {t}"))


# ---------------------------------------------------------------------------
# Whole-program well-formedness
# ---------------------------------------------------------------------------

def check_wellformed(p: Program) -> list[Diagnostic]:
    """All diagnostics for a program; empty means well-formed.  Does not stop
    at the first problem."""
    diags: list[Diagnostic] = []
    defined: dict[str, Module] = {}
    for m in p.modules:
        span = m.span or (0, 0)
        if m.name in defined:
            diags.append(Diagnostic(
                "duplicate-module", f"module {m.name!r} defined twice", span))
        env, ediags = require_env(m, defined)
        diags.extend(ediags)
        if m.typed:
            _check(env, m.body, m.ty, diags)
        else:
            free, core = _unbound(m.body, env)
            for v in free:
                diags.append(Diagnostic(
                    "unbound", f"unbound variable {v!r} in module {m.name!r}", span))
            if core is not None:
                diags.append(_err(core, "core-language form in a surface program"))
        defined.setdefault(m.name, m)
    main = defined.get("main")
    if main is None:
        diags.append(Diagnostic("main-missing", "no module named 'main'", (0, 0)))
    elif main.typed:
        diags.append(Diagnostic(
            "type-error", "the main module must be untyped", main.span or (0, 0)))
    return diags
