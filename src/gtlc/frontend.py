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

The reader makes one pass over the text with one regular expression.  As
that loop matches brackets it builds each form as a nested Python list:
the form's start and end offsets, then its items, each a list or, for an
atom, a (text, offset) tuple.  The AST is then built top-down from those
lists by one rule per form, one Python frame per nesting level, with each
form's arity checked from its length before any element is parsed.  Every
node carries its span, read off the list or the atom.  Grammar errors are
found in that top-down order.  A text gets the diagnostic of the first
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
_ATOM_EXPRS = {"#t": lambda span: BoolLit(True, span),
               "#f": lambda span: BoolLit(False, span),
               "int?": lambda span: Prim("int?", span),
               "bool?": lambda span: Prim("bool?", span)}
# Heads of the forms that are not applications.
_FORMS = frozenset({"if", "λ", "lambda", "let", "mon"})
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
    """The forms of a text as nested lists.  A list form is a Python list
    of its opener's offset, the offset just past its closer (the opener's
    text while the token loop has it open), then its items; an atom is a
    (text, offset) tuple.  `forms` holds the top-level forms.  `typed` is
    set per module; `diags` collects the `require-kind-mismatch`
    diagnostics.

    The rules below read an item by its position: item k of a list form
    `f` is `f[k + 2]`.  A rule compares an atom's text `f[0]`, or a head's
    `f[2][0]`, with a keyword or type name; for a list that is an offset,
    so none matches it."""

    __slots__ = ("forms", "typed", "diags")

    def __init__(self, text: str):
        forms: list = []
        cur = forms     # the innermost open form; `forms` at top level
        stack = []      # the forms around `cur`
        bracket_error = None
        pos = 0
        for space, tok, _ in _TOKEN.findall(text):
            pos += len(space)
            if tok in _MATCHING:
                form = [pos, tok]
                cur.append(form)
                stack.append(cur)
                cur = form
                pos += 1
            elif tok in _CLOSE:
                pos += 1
                if bracket_error is not None:
                    continue
                if not stack:
                    bracket_error = _error(f"unexpected {tok!r}", (pos - 1, pos))
                    continue
                opener = cur[1]
                if _MATCHING[opener] != tok:
                    bracket_error = _error(
                        f"mismatched {opener!r} closed by {tok!r}", (pos - 1, pos))
                cur[1] = pos
                cur = stack.pop()
            else:
                cur.append((tok, pos))
                pos += len(tok)
        # A bad character is the only match whose text `pos` did not count;
        # the first one outranks every bracket error.
        if pos != len(text):
            bad = next(m for m in _TOKEN.finditer(text) if m.group(3))
            raise _error(f"unexpected character {bad.group(3)!r}", bad.span(3))
        if bracket_error is not None:
            raise bracket_error
        if stack:
            raise _error(f"unclosed {cur[1]!r}", (cur[0], len(text)))
        while forms and forms[-1] == ("", pos):  # the `\Z` matches
            forms.pop()
        self.forms = forms
        self.typed, self.diags = False, []

    @staticmethod
    def span(f) -> Span:
        if type(f) is list:
            return f[0], f[1]
        return f[1], f[1] + len(f[0])

    def name(self, f, what: str) -> str:
        t = f[0]
        if type(f) is list or t in _RESERVED or t[0] in _INT_START:
            raise _error(f"expected {what}", self.span(f))
        return t

    def ty(self, f, leaves=_TYPES, arrow=TArrow, what="a type") -> Ty | Contract:
        """A type, or with the other arguments a contract: an atom in
        `leaves`, or `(-> DOM COD)`."""
        if type(f) is tuple:
            t = f[0]
            if t in leaves:
                return leaves[t]
            raise _error(f"expected {what}, got {t!r}", self.span(f))
        if len(f) == 5 and f[2][0] == "->":
            return arrow(self.ty(f[3], leaves, arrow, what),
                         self.ty(f[4], leaves, arrow, what))
        raise _error(f"expected {what}", self.span(f))

    def expr(self, f, scope: Optional[frozenset[str]]) -> Expr:
        """The expression of form `f`.  Each opaque term in it gets `scope`
        plus the lambda parameters bound around it, or None when `scope` is
        None, as it is for core text, the only text with `let` and `mon`."""
        if type(f) is tuple:
            t, start = f
            span = (start, start + len(t))
            if t[0] in _INT_START and t != "->":
                try:
                    return IntLit(int(t), span)
                except ValueError:  # longer than the interpreter converts
                    raise _error("integer literal too long", span) from None
            if t in _ATOM_EXPRS:
                return _ATOM_EXPRS[t](span)
            if t == "opaque":
                return Opaque(scope, span)
            if t in _RESERVED:
                raise _error(f"{t!r} is not an expression", span)
            return Var(t, span)

        span = (f[0], f[1])
        n = len(f) - 2
        head = f[2][0] if n else None
        if n == 2 and head not in _FORMS:
            return App(self.expr(f[2], scope), self.expr(f[3], scope), span)
        if head in ("let", "mon") and scope is not None:
            raise _error(f"{head!r} is a core-language form, not source syntax", span)
        if head == "if":
            if n != 4:
                raise _error("if expects 3 subexpressions", span)
            return If(self.expr(f[3], scope), self.expr(f[4], scope),
                      self.expr(f[5], scope), span)
        if head in ("λ", "lambda"):
            params = f[3] if n == 3 else None
            if type(params) is not list:
                raise _error("malformed lambda", span)
            if self.typed:
                if len(params) != 5 or params[3][0] != ":":
                    raise _error("typed lambda expects (name : type)", self.span(params))
                name = self.name(params[2], "a parameter name")
                ann: Optional[Ty] = self.ty(params[4])
            else:
                if len(params) != 3:
                    raise _error("untyped lambda expects a bare parameter",
                                 self.span(params))
                name = self.name(params[2], "a parameter name")
                ann = None
            inner = None if scope is None else scope | {name}
            return Lam(name, ann, self.expr(f[4], inner), span)
        if head == "let":
            binding = f[3] if n == 3 else None
            if type(binding) is not list or len(binding) != 4:
                raise _error("malformed let", span)
            return Let(self.name(binding[2], "a binding name"),
                       self.expr(binding[3], scope), self.expr(f[4], scope), span)
        if head == "mon":
            parties = f[3] if n == 4 else None
            if type(parties) is not list or len(parties) != 4:
                raise _error("malformed mon", span)
            pos = self.name(parties[2], "a party name")
            neg = self.name(parties[3], "a party name")
            return Mon(pos, neg, self.ty(f[4], _CONTRACTS, ArrowC, "a contract"),
                       self.expr(f[5], scope), span)
        raise _error(f"expected an application of one argument, got {n} elements", span)

    def require(self, f) -> Optional[Require]:
        span = self.span(f)
        head = f[2][0] if type(f) is list and len(f) > 2 else None
        if head not in _REQUIRES:
            raise _error("expected a require form", span)
        lengths, malformed, untyped = _REQUIRES[head]
        n = len(f) - 2
        if n not in lengths:
            raise _error(malformed, span)
        annotated = n == 3
        if annotated and not self.typed:
            self.diags.append(Diagnostic("require-kind-mismatch", untyped, span))
            return None
        return Require(self.name(f[3], "a module name"),
                       self.ty(f[4]) if annotated else None,
                       head == "opaque-require", span)

    def module(self, f) -> Module:
        span = self.span(f)
        if type(f) is not list or len(f) == 2 or f[2][0] != "module":
            raise _error("expected a (module ...) form", span)
        if len(f) < 5:
            raise _error("module needs a name and a body", span)
        name = self.name(f[3], "a module name")
        rest = f[4:]
        ty: Optional[Ty] = None
        first = rest[0]
        if first[0] in _TYPES or (type(first) is list and len(first) > 2
                                  and first[2][0] == "->"):
            ty = self.ty(first)
            rest = rest[1:]
            if not rest:
                raise _error("typed module needs a body", span)
        self.typed = ty is not None
        requires = [req for r in rest[:-1] if (req := self.require(r)) is not None]
        body = self.expr(rest[-1], module_scope(requires))
        return Module(name, ty, requires, body, span)


def parse_program(text: str) -> tuple[Optional[Program], list[Diagnostic]]:
    """Parse a program.  On success the printed form re-parses to a
    structurally equal tree.  Returns (program, diagnostics); the program is
    None when parsing could not produce a tree at all."""
    diags: list[Diagnostic] = []
    try:
        reader = _Reader(text)
        diags = reader.diags
        modules = [reader.module(f) for f in reader.forms]
    except ParseError as err:
        return None, diags + [err.diagnostic]
    return Program(modules), diags


def parse_expr(text: str) -> Expr:
    """Parse a single core-language expression (used for golden tests and
    the contract-core reader).  Raises ParseError on malformed input."""
    reader = _Reader(text)
    forms = reader.forms
    if len(forms) != 1:
        raise _error(f"expected one expression, got {len(forms)}", (0, len(text)))
    return reader.expr(forms[0], None)


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
# argument of any type and return Bool, and cannot appear unapplied.  Both
# dispatch on a node's exact type, most frequent first, as `_unbound` does;
# types are interned, so they compare by identity.

def _err(e: Expr, message: str) -> Diagnostic:
    return Diagnostic("type-error", message, e.span or (0, 0))


def _synth(env: dict[str, Ty], e: Expr, diags: list[Diagnostic]) -> Optional[Ty]:
    """The type of `e`; None exactly when its diagnostics, appended to
    `diags`, are not empty."""
    t = type(e)
    if t is App:
        fn = e.fn
        if type(fn) is Prim:
            return None if _synth(env, e.arg, diags) is None else T_BOOL
        ft = _synth(env, fn, diags)
        if ft is None:
            # An opaque operator can still be typed if the argument determines nothing.
            return None
        if type(ft) is not TArrow:
            diags.append(_err(e, f"applied a non-function of type {ft}"))
            return None
        n = len(diags)
        _check(env, e.arg, ft.dom, diags)
        return ft.cod if len(diags) == n else None
    if t is Var:
        ty = env.get(e.name)
        if ty is None:
            diags.append(Diagnostic("unbound", f"unbound variable {e.name!r}",
                                    e.span or (0, 0)))
        return ty
    if t is IntLit:
        return T_INT
    if t is BoolLit:
        return T_BOOL
    if t is If:
        n = len(diags)
        _check(env, e.test, T_BOOL, diags)
        tt = _synth(env, e.then, diags)
        if tt is not None:
            _check(env, e.orelse, tt, diags)
            if len(diags) == n:
                return tt
    elif t is Lam:
        if e.ann is None:
            diags.append(_err(e, "unannotated lambda in a typed module body"))
            return None
        bt = _synth({**env, e.param: e.ann}, e.body, diags)
        return None if bt is None else TArrow(e.ann, bt)
    elif t is Prim:
        diags.append(_err(e, f"{e.op} must be applied"))
    elif t is Opaque:
        diags.append(_err(e, "cannot infer a type for an opaque term"))
    elif t is Let or t is Mon:
        diags.append(_err(e, "core-language form in a surface program"))
    else:
        raise TypeError(f"not an expression: {e!r}")
    return None


def _check(env: dict[str, Ty], e: Expr, expected: Ty, diags: list[Diagnostic]) -> None:
    """Append to `diags` the diagnostics of checking `e` against `expected`."""
    t = type(e)
    if t is App:
        op = type(e.fn)
        if op is Opaque:
            # (opaque ARG) checks at any type once the argument synthesizes.
            _synth(env, e.arg, diags)
            return
        if op is Prim:
            if expected is not T_BOOL:
                diags.append(_err(e, f"{e.fn.op} returns Bool, not {expected}"))
            else:
                _synth(env, e.arg, diags)
            return
    elif t is If:
        _check(env, e.test, T_BOOL, diags)
        _check(env, e.then, expected, diags)
        _check(env, e.orelse, expected, diags)
        return
    elif t is Lam:
        if e.ann is None:
            diags.append(_err(e, "unannotated lambda in a typed module body"))
        elif type(expected) is not TArrow:
            diags.append(_err(e, f"lambda where {expected} was expected"))
        elif e.ann is not expected.dom:
            diags.append(_err(e, f"parameter annotated {e.ann} but {expected.dom} expected"))
        else:
            _check({**env, e.param: e.ann}, e.body, expected.cod, diags)
        return
    elif t is Opaque:
        return
    found = _synth(env, e, diags)
    if found is not None and found is not expected:
        diags.append(_err(e, f"expected {expected}, found {found}"))


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
