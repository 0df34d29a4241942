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

Well-formedness follows the inductive structure of the module sequence:
typed bodies must check against their annotation in the environment induced
by their requires, untyped bodies must be closed under theirs, module names
are unique, requires point only backward, and an untyped `main` module must
exist.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

from .syntax import (
    ANY_C, ArrowC, App, Blame, BlameLabel, BoolLit, BOOL_C, Contract, Expr,
    If, IntLit, INT_C, Lam, Let, Mon, Module, Opaque, Prim, Program, Require,
    Span, TArrow, Ty, T_BOOL, T_INT, Var, free_vars,
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
# Reader: text -> s-expression nodes with spans
# ---------------------------------------------------------------------------

@dataclass
class SAtom:
    text: str
    span: Span


@dataclass
class SList:
    items: list["SNode"]
    span: Span


SNode = Union[SAtom, SList]

# Leading `_` is accepted alongside letters so the conventional throwaway
# parameter parses; `/` appears in require/typed and any/c.
_TOKEN = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>;[^\n]*)
    | (?P<open>[(\[])
    | (?P<close>[)\]])
    | (?P<int>-?[0-9]+)
    | (?P<bool>\#t|\#f)
    | (?P<sym>->|:|λ|[A-Za-z_][A-Za-z0-9_!?/\-]*)
    """,
    re.VERBOSE,
)

_MATCHING = {"(": ")", "[": "]"}


def _tokenize(text: str) -> list[tuple[str, str, Span]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(Diagnostic(
                "parse", f"unexpected character {text[pos]!r}", (pos, pos + 1)))
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            tokens.append((kind, m.group(), (m.start(), m.end())))
        pos = m.end()
    return tokens


def _read_all(text: str) -> list[SNode]:
    tokens = _tokenize(text)
    nodes: list[SNode] = []
    stack: list[tuple[str, int, list[SNode]]] = []  # (opener, start, items)
    for kind, tok, span in tokens:
        if kind == "open":
            stack.append((tok, span[0], []))
        elif kind == "close":
            if not stack:
                raise ParseError(Diagnostic("parse", f"unexpected {tok!r}", span))
            opener, start, items = stack.pop()
            if _MATCHING[opener] != tok:
                raise ParseError(Diagnostic(
                    "parse", f"mismatched {opener!r} closed by {tok!r}", span))
            node = SList(items, (start, span[1]))
            (stack[-1][2] if stack else nodes).append(node)
        else:
            node = SAtom(tok, span)
            (stack[-1][2] if stack else nodes).append(node)
    if stack:
        opener, start, _ = stack[-1]
        raise ParseError(Diagnostic(
            "parse", f"unclosed {opener!r}", (start, len(text))))
    return nodes


# ---------------------------------------------------------------------------
# Parsing s-expressions into the AST
# ---------------------------------------------------------------------------

_KEYWORDS = {"module", "require", "require/typed", "opaque-require",
             "if", "let", "mon", "blame", "λ", "lambda", "opaque", ":",
             "int?", "bool?", "any/c"}


def _is_type_node(n: SNode) -> bool:
    if isinstance(n, SAtom):
        return n.text in ("Int", "Bool")
    return bool(n.items) and isinstance(n.items[0], SAtom) and n.items[0].text == "->"


def _parse_ty(n: SNode) -> Ty:
    if isinstance(n, SAtom):
        if n.text == "Int":
            return T_INT
        if n.text == "Bool":
            return T_BOOL
        raise ParseError(Diagnostic("parse", f"expected a type, got {n.text!r}", n.span))
    if (len(n.items) == 3 and isinstance(n.items[0], SAtom)
            and n.items[0].text == "->"):
        return TArrow(_parse_ty(n.items[1]), _parse_ty(n.items[2]))
    raise ParseError(Diagnostic("parse", "expected a type", n.span))


def _expect_name(n: SNode, what: str) -> str:
    if isinstance(n, SAtom) and n.text not in _KEYWORDS and not n.text.startswith("#") \
            and not re.fullmatch(r"-?[0-9]+", n.text) and n.text not in ("->", "Int", "Bool"):
        return n.text
    span = n.span
    raise ParseError(Diagnostic("parse", f"expected {what}", span))


def _head(n: SList) -> Optional[str]:
    if n.items and isinstance(n.items[0], SAtom):
        return n.items[0].text
    return None


def parse_expr_node(n: SNode, typed_body: bool, core: bool = False) -> Expr:
    if isinstance(n, SAtom):
        t = n.text
        if re.fullmatch(r"-?[0-9]+", t):
            return IntLit(int(t), span=n.span)
        if t == "#t":
            return BoolLit(True, span=n.span)
        if t == "#f":
            return BoolLit(False, span=n.span)
        if t in ("int?", "bool?"):
            return Prim(t, span=n.span)
        if t == "opaque":
            return Opaque(span=n.span)
        if t in _KEYWORDS or t in ("->", "Int", "Bool"):
            raise ParseError(Diagnostic("parse", f"{t!r} is not an expression", n.span))
        return Var(t, span=n.span)

    head = _head(n)
    if head in ("let", "mon", "blame") and not core:
        raise ParseError(Diagnostic(
            "parse", f"{head!r} is a core-language form, not source syntax", n.span))
    if head == "if":
        if len(n.items) != 4:
            raise ParseError(Diagnostic("parse", "if expects 3 subexpressions", n.span))
        return If(parse_expr_node(n.items[1], typed_body, core),
                  parse_expr_node(n.items[2], typed_body, core),
                  parse_expr_node(n.items[3], typed_body, core),
                  span=n.span)
    if head in ("λ", "lambda"):
        if len(n.items) != 3 or not isinstance(n.items[1], SList):
            raise ParseError(Diagnostic("parse", "malformed lambda", n.span))
        params = n.items[1].items
        if typed_body:
            if (len(params) != 3 or not isinstance(params[1], SAtom)
                    or params[1].text != ":"):
                raise ParseError(Diagnostic(
                    "parse", "typed lambda expects (name : type)", n.items[1].span))
            name = _expect_name(params[0], "a parameter name")
            ann: Optional[Ty] = _parse_ty(params[2])
        else:
            if len(params) != 1:
                raise ParseError(Diagnostic(
                    "parse", "untyped lambda expects a bare parameter", n.items[1].span))
            name = _expect_name(params[0], "a parameter name")
            ann = None
        return Lam(name, ann, parse_expr_node(n.items[2], typed_body, core), span=n.span)
    if head == "let":
        if (len(n.items) != 3 or not isinstance(n.items[1], SList)
                or len(n.items[1].items) != 2):
            raise ParseError(Diagnostic("parse", "malformed let", n.span))
        name = _expect_name(n.items[1].items[0], "a binding name")
        return Let(name,
                   parse_expr_node(n.items[1].items[1], typed_body, core),
                   parse_expr_node(n.items[2], typed_body, core),
                   span=n.span)
    if head == "mon":
        if (len(n.items) != 4 or not isinstance(n.items[1], SList)
                or len(n.items[1].items) != 2):
            raise ParseError(Diagnostic("parse", "malformed mon", n.span))
        pos = _expect_name(n.items[1].items[0], "a party name")
        neg = _expect_name(n.items[1].items[1], "a party name")
        return Mon(pos, neg, _parse_contract(n.items[2]),
                   parse_expr_node(n.items[3], typed_body, core), span=n.span)
    if head == "blame":
        if len(n.items) != 3:
            raise ParseError(Diagnostic("parse", "malformed blame", n.span))
        return Blame(BlameLabel(_expect_name(n.items[1], "a party name"),
                                _expect_name(n.items[2], "a party name")),
                     span=n.span)
    if len(n.items) == 2:
        return App(parse_expr_node(n.items[0], typed_body, core),
                   parse_expr_node(n.items[1], typed_body, core),
                   span=n.span)
    raise ParseError(Diagnostic(
        "parse", f"expected an application of one argument, got {len(n.items)} elements",
        n.span))


def _parse_contract(n: SNode) -> Contract:
    if isinstance(n, SAtom):
        if n.text == "int?":
            return INT_C
        if n.text == "bool?":
            return BOOL_C
        if n.text == "any/c":
            return ANY_C
        raise ParseError(Diagnostic("parse", f"expected a contract, got {n.text!r}", n.span))
    if (len(n.items) == 3 and isinstance(n.items[0], SAtom)
            and n.items[0].text == "->"):
        return ArrowC(_parse_contract(n.items[1]), _parse_contract(n.items[2]))
    raise ParseError(Diagnostic("parse", "expected a contract", n.span))


def _parse_require(n: SNode, typed_module: bool, diags: list[Diagnostic]) -> Optional[Require]:
    if not isinstance(n, SList) or _head(n) not in ("require", "require/typed",
                                                    "opaque-require"):
        raise ParseError(Diagnostic("parse", "expected a require form", n.span))
    head = _head(n)
    if head == "require":
        if len(n.items) != 2:
            raise ParseError(Diagnostic("parse", "require expects a module name", n.span))
        return Require(_expect_name(n.items[1], "a module name"), span=n.span)
    if head == "require/typed":
        if len(n.items) != 3:
            raise ParseError(Diagnostic(
                "parse", "require/typed expects a module name and a type", n.span))
        if not typed_module:
            diags.append(Diagnostic(
                "require-kind-mismatch",
                "require/typed is only legal in typed modules", n.span))
            return None
        return Require(_expect_name(n.items[1], "a module name"),
                       ann=_parse_ty(n.items[2]), span=n.span)
    # opaque-require: same run-time meaning as the require form its arity
    # matches, plus the mark the verifier honours.
    if len(n.items) == 2:
        return Require(_expect_name(n.items[1], "a module name"),
                       opaque=True, span=n.span)
    if len(n.items) == 3:
        if not typed_module:
            diags.append(Diagnostic(
                "require-kind-mismatch",
                "annotated opaque-require is only legal in typed modules", n.span))
            return None
        return Require(_expect_name(n.items[1], "a module name"),
                       ann=_parse_ty(n.items[2]), opaque=True, span=n.span)
    raise ParseError(Diagnostic("parse", "malformed opaque-require", n.span))


def _parse_module(n: SNode, diags: list[Diagnostic]) -> Module:
    if not isinstance(n, SList) or _head(n) != "module":
        span = n.span
        raise ParseError(Diagnostic("parse", "expected a (module ...) form", span))
    if len(n.items) < 3:
        raise ParseError(Diagnostic("parse", "module needs a name and a body", n.span))
    name = _expect_name(n.items[1], "a module name")
    rest = n.items[2:]
    ty: Optional[Ty] = None
    if _is_type_node(rest[0]):
        ty = _parse_ty(rest[0])
        rest = rest[1:]
        if not rest:
            raise ParseError(Diagnostic("parse", "typed module needs a body", n.span))
    requires = []
    for r in rest[:-1]:
        req = _parse_require(r, typed_module=ty is not None, diags=diags)
        if req is not None:
            requires.append(req)
    body = parse_expr_node(rest[-1], typed_body=ty is not None)
    return Module(name, ty, requires, body, span=n.span)


def parse_program(text: str) -> tuple[Optional[Program], list[Diagnostic]]:
    """Parse a program.  On success the printed form re-parses to a
    structurally equal tree.  Returns (program, diagnostics); the program is
    None when parsing could not produce a tree at all."""
    diags: list[Diagnostic] = []
    try:
        nodes = _read_all(text)
        modules = [_parse_module(n, diags) for n in nodes]
    except ParseError as err:
        return None, diags + [err.diagnostic]
    return Program(modules), diags


def parse_expr(text: str) -> Expr:
    """Parse a single core-language expression (used for golden tests and
    the contract-core reader).  Raises ParseError on malformed input."""
    nodes = _read_all(text)
    if len(nodes) != 1:
        raise ParseError(Diagnostic(
            "parse", f"expected one expression, got {len(nodes)}",
            (0, len(text))))
    return parse_expr_node(nodes[0], typed_body=False, core=True)


# ---------------------------------------------------------------------------
# Environments induced by requires
# ---------------------------------------------------------------------------

TypeEnv = list[tuple[str, Ty]]
NameEnv = list[str]


def ty_env(requires: list[Require], prior: list[Module]) -> tuple[TypeEnv, list[Diagnostic]]:
    """Environment for a typed module's body.  A plain require contributes
    the target's own annotation (the target must be typed); an annotated
    require contributes the stated type (the target must be untyped)."""
    env: TypeEnv = []
    diags: list[Diagnostic] = []
    defined = {m.name: m for m in reversed(prior)}  # first definition wins
    for r in requires:
        target = defined.get(r.target)
        span = r.span or (0, 0)
        if target is None:
            diags.append(Diagnostic(
                "unbound", f"require of unknown module {r.target!r}", span))
            continue
        if r.ann is None:
            if target.ty is None:
                diags.append(Diagnostic(
                    "require-kind-mismatch",
                    f"plain require of untyped module {r.target!r} from a typed module",
                    span))
            else:
                env.append((r.target, target.ty))
        else:
            if target.ty is not None:
                diags.append(Diagnostic(
                    "require-kind-mismatch",
                    f"require/typed targets the typed module {r.target!r}", span))
            else:
                env.append((r.target, r.ann))
    return env, diags


def name_env(requires: list[Require], prior: list[Module]) -> tuple[NameEnv, list[Diagnostic]]:
    """Names visible in an untyped module's body, one per require, in order."""
    env: NameEnv = []
    diags: list[Diagnostic] = []
    defined = {m.name for m in prior}
    for r in requires:
        span = r.span or (0, 0)
        if r.target not in defined:
            diags.append(Diagnostic(
                "unbound", f"require of unknown module {r.target!r}", span))
        else:
            env.append(r.target)
    return env, diags


# ---------------------------------------------------------------------------
# Expression typing for typed module bodies
# ---------------------------------------------------------------------------

def _env_lookup(env: TypeEnv, name: str) -> Optional[Ty]:
    for n, t in reversed(env):
        if n == name:
            return t
    return None


def _err(e: Expr, message: str) -> Diagnostic:
    return Diagnostic("type-error", message, e.span or (0, 0))


def typecheck_expr(env: TypeEnv, e: Expr,
                   expected: Optional[Ty] = None) -> tuple[Optional[Ty], list[Diagnostic]]:
    """Simply-typed checking of a typed module body.  With `expected` the
    expression is checked against that type (letting opaque terms take any
    type the context demands); without it the type is synthesized.
    Primitives are typed per application: they accept an argument of any
    type and return Bool, and cannot appear unapplied."""
    if expected is None:
        return _synth(env, e)
    diags = _check(env, e, expected)
    return (expected if not diags else None), diags


def _synth(env: TypeEnv, e: Expr) -> tuple[Optional[Ty], list[Diagnostic]]:
    match e:
        case IntLit(_):
            return T_INT, []
        case BoolLit(_):
            return T_BOOL, []
        case Var(name):
            t = _env_lookup(env, name)
            if t is None:
                return None, [Diagnostic("unbound", f"unbound variable {name!r}",
                                         e.span or (0, 0))]
            return t, []
        case Prim(op):
            return None, [_err(e, f"{op} must be applied")]
        case Opaque():
            return None, [_err(e, "cannot infer a type for an opaque term")]
        case Lam(param, ann, body):
            if ann is None:
                return None, [_err(e, "unannotated lambda in a typed module body")]
            bt, diags = _synth(env + [(param, ann)], body)
            if bt is None:
                return None, diags
            return TArrow(ann, bt), diags
        case If(test, then, orelse):
            diags = _check(env, test, T_BOOL)
            tt, d1 = _synth(env, then)
            diags.extend(d1)
            if tt is None:
                return None, diags
            diags.extend(_check(env, orelse, tt))
            return (tt if not diags else None), diags
        case App(fn, arg):
            if isinstance(fn, Prim):
                at, diags = _synth(env, arg)
                return (T_BOOL if at is not None else None), diags
            ft, diags = _synth(env, fn)
            if ft is None:
                # An opaque operator can still be typed if the argument determines nothing.
                return None, diags
            if not isinstance(ft, TArrow):
                return None, diags + [_err(e, f"applied a non-function of type {ft}")]
            diags.extend(_check(env, arg, ft.dom))
            return (ft.cod if not diags else None), diags
        case Let(_, _, _) | Mon(_, _, _, _) | Blame(_):
            return None, [_err(e, "core-language form in a surface program")]
    raise TypeError(f"not an expression: {e!r}")


def _check(env: TypeEnv, e: Expr, expected: Ty) -> list[Diagnostic]:
    match e:
        case Opaque():
            return []
        case Lam(param, ann, body):
            if ann is None:
                return [_err(e, "unannotated lambda in a typed module body")]
            if not isinstance(expected, TArrow):
                return [_err(e, f"lambda where {expected} was expected")]
            if ann != expected.dom:
                return [_err(e, f"parameter annotated {ann} but {expected.dom} expected")]
            return _check(env + [(param, ann)], body, expected.cod)
        case If(test, then, orelse):
            diags = _check(env, test, T_BOOL)
            diags.extend(_check(env, then, expected))
            diags.extend(_check(env, orelse, expected))
            return diags
        case App(fn, arg) if isinstance(fn, Opaque):
            # (opaque ARG) checks at any type once the argument synthesizes.
            at, diags = _synth(env, arg)
            return diags
        case App(fn, arg) if isinstance(fn, Prim):
            if expected != T_BOOL:
                return [_err(e, f"{fn.op} returns Bool, not {expected}")]
            _, diags = _synth(env, arg)
            return diags
        case _:
            t, diags = _synth(env, e)
            if t is None:
                return diags
            if t != expected:
                diags = diags + [_err(e, f"expected {expected}, found {t}")]
            return diags


# ---------------------------------------------------------------------------
# Whole-program well-formedness
# ---------------------------------------------------------------------------

def check_wellformed(p: Program) -> list[Diagnostic]:
    """All diagnostics for a program; empty means well-formed.  Does not stop
    at the first problem."""
    diags: list[Diagnostic] = []
    seen: set[str] = set()
    for i, m in enumerate(p.modules):
        span = m.span or (0, 0)
        if m.name in seen:
            diags.append(Diagnostic(
                "duplicate-module", f"module {m.name!r} defined twice", span))
        seen.add(m.name)
        prior = p.modules[:i]
        if m.typed:
            env, ediags = ty_env(m.requires, prior)
            diags.extend(ediags)
            _, tdiags = typecheck_expr(env, m.body, expected=m.ty)
            diags.extend(tdiags)
        else:
            for r in m.requires:
                if r.ann is not None:
                    diags.append(Diagnostic(
                        "require-kind-mismatch",
                        "annotated require in an untyped module", r.span or span))
            names, ediags = name_env(m.requires, prior)
            diags.extend(ediags)
            for v in sorted(free_vars(m.body) - set(names)):
                diags.append(Diagnostic(
                    "unbound", f"unbound variable {v!r} in module {m.name!r}", span))
    main = p.module_named("main")
    if main is None:
        diags.append(Diagnostic("main-missing", "no module named 'main'", (0, 0)))
    elif main.typed:
        diags.append(Diagnostic(
            "type-error", "the main module must be untyped", main.span or (0, 0)))
    return diags
