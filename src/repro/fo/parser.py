"""Recursive-descent parser for the paper's FO surface syntax.

Grammar (FO layer)::

    formula   := 'exists' vars ':' formula
               | 'forall' vars ':' formula
               | iff
    iff       := implies ('<->' implies)*
    implies   := or ('->' implies)?            (right associative)
    or        := and (('|' | 'or') and)*
    and       := unary (('&' | 'and') unary)*
    unary     := ('~' | 'not') unary | primary
    primary   := 'true' | 'false' | '(' formula ')' | atom | equality
    atom      := relref '(' terms? ')' | relref      (arity-0 proposition)
    relref    := ['?' | '!'] dotted_ident
    equality  := term ('=' | '!=') term
    term      := ident | string | integer

The in-queue sigil ``?`` and out-queue sigil ``!`` follow the paper's
notation.  In a *peer-local* formula the sigil resolves to the bare queue
name.  In a *composition-level* formula a queue atom is written
``Peer.?queue`` / ``Peer.!queue`` (the paper writes ``O.?apply``); the
qualified name keeps the peer prefix.  When a schema is supplied, atoms are
validated: the relation must exist, the arity must match, and the sigil (if
any) must agree with the relation's role.

Bare identifiers in term position are variables; quoted strings and integer
literals are constants.
"""

from __future__ import annotations

import re

from .._record import record
from ..errors import ParseError, SchemaError
from .formulas import (
    Atom, Formula, conj, disj, eq, exists, forall, implies, neg,
    FALSE, TRUE,
)
from .schema import RelationKind, Schema
from .terms import Const, Term, Var

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<string>"[^"]*"|'[^']*')
  | (?P<number>-?\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_?!][A-Za-z0-9_]*)*)
  | (?P<op><->|->|!=|[()~&|=:,.?!])
""", re.VERBOSE)

_KEYWORDS = frozenset({
    "true", "false", "not", "and", "or", "exists", "forall",
})


@record(frozen=True, slots=True)
class Token:
    """One lexical token with its source position."""

    kind: str    # 'string' | 'number' | 'ident' | 'op' | 'eof'
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    """Tokenize *text*; raises :class:`ParseError` on illegal characters."""
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(
                f"illegal character {text[pos]!r}", position=pos, text=text
            )
        kind = match.lastgroup
        assert kind is not None
        if kind != "ws":
            tokens.append(Token(kind, match.group(), pos))
        pos = match.end()
    tokens.append(Token("eof", "", len(text)))
    return tokens


class ParserBase:
    """Shared token-stream plumbing for the FO and LTL-FO parsers."""

    def __init__(self, text: str, schema: Schema | None = None) -> None:
        self.text = text
        self.schema = schema
        self.tokens = tokenize(text)
        self.index = 0

    # -- stream helpers ---------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        i = min(self.index + offset, len(self.tokens) - 1)
        return self.tokens[i]

    def advance(self) -> Token:
        tok = self.tokens[self.index]
        if tok.kind != "eof":
            self.index += 1
        return tok

    def accept(self, text: str) -> bool:
        if self.peek().text == text and self.peek().kind != "string":
            self.advance()
            return True
        return False

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text or tok.kind == "string":
            raise ParseError(
                f"expected {text!r}, found {tok.text!r}",
                position=tok.pos, text=self.text,
            )
        return self.advance()

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, position=tok.pos, text=self.text)

    # -- shared FO productions --------------------------------------------

    def parse_var_list(self) -> list[Var]:
        names: list[str] = []
        while True:
            tok = self.peek()
            if tok.kind != "ident" or tok.text in _KEYWORDS:
                raise self.error("expected variable name")
            if "." in tok.text:
                raise self.error(
                    f"variable name {tok.text!r} may not contain '.'"
                )
            names.append(self.advance().text)
            if not self.accept(","):
                break
        if not self.accept(":"):
            self.expect(".")
        return [Var(n) for n in names]

    def parse_term(self) -> Term:
        tok = self.peek()
        if tok.kind == "string":
            self.advance()
            return Const(tok.text[1:-1])
        if tok.kind == "number":
            self.advance()
            return Const(int(tok.text))
        if tok.kind == "ident" and tok.text not in _KEYWORDS:
            if "." in tok.text:
                raise self.error(
                    f"dotted name {tok.text!r} cannot be a term"
                )
            self.advance()
            return Var(tok.text)
        raise self.error(f"expected a term, found {tok.text!r}")

    def _resolve_relref(self, raw: str) -> str:
        """Normalize a relation reference, validating sigils and schema.

        ``raw`` may contain the sigils ``?`` (in-queue) / ``!`` (out-queue)
        either at the front (peer-local: ``?apply``) or after the peer
        qualifier (composition: ``O.?apply``).
        """
        sigil = None
        if raw and raw[0] in "?!":
            sigil = raw[0]
            raw = raw[1:]
        parts = raw.split(".")
        cleaned: list[str] = []
        for part in parts:
            if part and part[0] in "?!":
                if sigil is not None:
                    raise ParseError(f"multiple queue sigils in {raw!r}")
                sigil = part[0]
                part = part[1:]
            if not part:
                raise ParseError(f"malformed relation reference {raw!r}")
            cleaned.append(part)
        name = ".".join(cleaned)
        if self.schema is not None:
            sym = self.schema.get(name)
            if sym is None:
                raise SchemaError(
                    f"unknown relation {name!r} in formula "
                    f"(known: {', '.join(self.schema.names())})"
                )
            if sigil == "?" and sym.kind != RelationKind.IN_QUEUE:
                raise SchemaError(
                    f"{name!r} used with '?' but is not an in-queue"
                )
            if sigil == "!" and sym.kind != RelationKind.OUT_QUEUE:
                raise SchemaError(
                    f"{name!r} used with '!' but is not an out-queue"
                )
        return name

    def parse_atom_or_equality(self) -> Formula:
        tok = self.peek()
        if tok.kind == "op" and tok.text in ("?", "!"):
            # sigil as its own token: '?' ident
            self.advance()
            ident = self.peek()
            if ident.kind != "ident":
                raise self.error("expected relation name after queue sigil")
            self.advance()
            return self._finish_atom(tok.text + ident.text)
        if tok.kind == "ident" and tok.text not in _KEYWORDS:
            # Could be an atom R(...), a proposition R, or term of equality.
            nxt = self.peek(1)
            if nxt.text == "(" or "." in tok.text:
                self.advance()
                return self._finish_atom(tok.text)
            if nxt.text in ("=", "!="):
                left = self.parse_term()
                op = self.advance().text
                right = self.parse_term()
                base = eq(left, right)
                return base if op == "=" else neg(base)
            # bare identifier: arity-0 proposition
            self.advance()
            return self._finish_atom(tok.text)
        # constant on the left of an equality
        left = self.parse_term()
        op_tok = self.peek()
        if op_tok.text not in ("=", "!="):
            raise self.error("expected '=' or '!=' after constant term")
        self.advance()
        right = self.parse_term()
        base = eq(left, right)
        return base if op_tok.text == "=" else neg(base)

    def _finish_atom(self, raw: str) -> Formula:
        name = self._resolve_relref(raw)
        terms: list[Term] = []
        if self.accept("("):
            if not self.accept(")"):
                terms.append(self.parse_term())
                while self.accept(","):
                    terms.append(self.parse_term())
                self.expect(")")
        if self.schema is not None:
            sym = self.schema[name]
            if sym.arity != len(terms):
                raise SchemaError(
                    f"relation {name!r} has arity {sym.arity}, "
                    f"used with {len(terms)} terms"
                )
        return Atom(name, tuple(terms))


class FOParser(ParserBase):
    """Parser for plain FO formulas."""

    def parse(self) -> Formula:
        formula = self.parse_formula()
        if self.peek().kind != "eof":
            raise self.error(
                f"unexpected trailing input {self.peek().text!r}"
            )
        return formula

    def parse_formula(self) -> Formula:
        if self.accept("exists"):
            variables = self.parse_var_list()
            return exists(variables, self.parse_formula())
        if self.accept("forall"):
            variables = self.parse_var_list()
            return forall(variables, self.parse_formula())
        return self.parse_iff()

    def parse_iff(self) -> Formula:
        left = self.parse_implies()
        while self.accept("<->"):
            right = self.parse_implies()
            left = conj(implies(left, right), implies(right, left))
        return left

    def parse_implies(self) -> Formula:
        left = self.parse_or()
        if self.accept("->"):
            return implies(left, self.parse_implies())
        return left

    def parse_or(self) -> Formula:
        parts = [self.parse_and()]
        while self.accept("|") or self.accept("or"):
            parts.append(self.parse_and())
        return disj(*parts) if len(parts) > 1 else parts[0]

    def parse_and(self) -> Formula:
        parts = [self.parse_unary()]
        while self.accept("&") or self.accept("and"):
            parts.append(self.parse_unary())
        return conj(*parts) if len(parts) > 1 else parts[0]

    def parse_unary(self) -> Formula:
        if self.accept("~") or self.accept("not"):
            return neg(self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> Formula:
        if self.accept("true"):
            return TRUE
        if self.accept("false"):
            return FALSE
        if self.accept("("):
            inner = self.parse_formula()
            self.expect(")")
            # Allow a quantified/parenthesized formula to be the left side
            # of nothing further; equality on parens is not supported.
            return inner
        if self.accept("exists"):
            # quantifier scope extends as far right as possible
            variables = self.parse_var_list()
            return exists(variables, self.parse_formula())
        if self.accept("forall"):
            variables = self.parse_var_list()
            return forall(variables, self.parse_formula())
        return self.parse_atom_or_equality()


def parse_fo(text: str, schema: Schema | None = None) -> Formula:
    """Parse an FO formula, optionally validating against *schema*."""
    return FOParser(text, schema).parse()
