"""A textual specification language for peers and compositions.

The paper's Introduction motivates verification by high-level web-service
specification tools (WebML and relatives): the specification *is* the
artifact to verify.  This module provides that surface: a small
declarative language from which :class:`~repro.spec.Composition` values
are loaded, so specifications can live in version-controlled ``.dws``
files next to the properties that govern them.

Syntax (line-oriented; ``#`` starts a comment)::

    peer O {
        database customer/3
        state    application/2
        state    applied/0
        input    reccom/2
        action   letter/4
        in  flat   apply/2
        in  nested history/3
        out flat   getRating/1
        out nested recommend/8

        input  reccom(id, rec) <- exists ssn, name:
                                  customer(id, ssn, name)
                                  & (rec = "approve" | rec = "deny")
        insert application(id, loan) <- ?apply(id, loan)
        delete application(id, loan) <- false
        action letter(id, n, l, d)   <- ...
        send   getRating(ssn)        <- ...
    }

    database O {
        customer: ("c1", "s1", "ann"), ("c2", "s2", "bob")
    }

Rule bodies may continue onto following lines: a rule extends until the
next statement keyword or closing brace.  :func:`load_composition` parses
a whole document; :func:`load_databases` extracts the ``database`` blocks.
"""

from __future__ import annotations

import re

from .._record import field, record
from ..errors import ParseError, SpecificationError
from ..fo.instance import Instance
from ..fo.terms import Value, value_sort_key
from .composition import Composition
from .peer import Peer, PeerBuilder

_DECL_RE = re.compile(
    r"^(database|state|input|action)\s+([A-Za-z_]\w*)\s*/\s*(\d+)$"
)
_QUEUE_RE = re.compile(
    r"^(in|out)\s+(flat|nested)\s+([A-Za-z_]\w*)\s*/\s*(\d+)$"
)
_RULE_RE = re.compile(
    r"^(input|insert|delete|action|send)\s+([A-Za-z_]\w*)\s*"
    r"\(([^)]*)\)\s*<-\s*(.*)$", re.DOTALL,
)
_RULE_NOARGS_RE = re.compile(
    r"^(input|insert|delete|action|send)\s+([A-Za-z_]\w*)\s*"
    r"<-\s*(.*)$", re.DOTALL,
)
_PEER_RE = re.compile(r"^peer\s+([A-Za-z_]\w*)\s*\{$")
_DB_RE = re.compile(r"^database\s+([A-Za-z_]\w*)\s*\{$")
_ROWS_RE = re.compile(r"^([A-Za-z_]\w*)\s*:\s*(.*)$", re.DOTALL)

_STATEMENT_START = re.compile(
    r"^(database|state|input|action|insert|delete|send|property\s"
    r"|in\s|out\s|\})"
)


def _strip_comments(text: str) -> list[str]:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        lines.append(line)
    return lines


def _join_continuations(lines: list[str]) -> list[str]:
    """Merge rule bodies that continue over several lines.

    A line belongs to the previous statement when it is indented content
    that does not itself start a new statement.
    """
    merged: list[str] = []
    for line in lines:
        stripped = line.strip()
        if not stripped:
            continue
        if (merged
                and not _STATEMENT_START.match(stripped)
                and not _PEER_RE.match(stripped)
                and not _DB_RE.match(stripped)
                and "<-" not in stripped
                and not _ROWS_RE.match(stripped)
                and merged[-1] not in ("}",)):
            merged[-1] = merged[-1] + " " + stripped
        else:
            merged.append(stripped)
    return merged


def _parse_row_list(text: str, where: str) -> list[tuple[Value, ...]]:
    """Parse ``("a", 1), ("b", 2)`` into rows of values."""
    rows: list[tuple[Value, ...]] = []
    rest = text.strip()
    while rest:
        if not rest.startswith("("):
            raise ParseError(f"{where}: expected '(' in row list: {rest!r}")
        end = rest.index(")")
        inner = rest[1:end]
        row: list[Value] = []
        for piece in filter(None, (p.strip() for p in inner.split(","))):
            if piece.startswith('"') and piece.endswith('"'):
                row.append(piece[1:-1])
            elif re.fullmatch(r"-?\d+", piece):
                row.append(int(piece))
            else:
                raise ParseError(
                    f"{where}: row values must be quoted strings or "
                    f"integers, got {piece!r}"
                )
        rows.append(tuple(row))
        rest = rest[end + 1:].lstrip()
        if rest.startswith(","):
            rest = rest[1:].lstrip()
        elif rest:
            raise ParseError(f"{where}: expected ',' between rows: {rest!r}")
    return rows


def _apply_declaration(builder: PeerBuilder, line: str, where: str) -> bool:
    match = _DECL_RE.match(line)
    if match:
        kind, name, arity = match.groups()
        getattr(builder, kind)(name, int(arity))
        return True
    match = _QUEUE_RE.match(line)
    if match:
        direction, shape, name, arity = match.groups()
        method = f"{shape}_{'in' if direction == 'in' else 'out'}_queue"
        getattr(builder, method)(name, int(arity))
        return True
    return False


def _apply_rule(builder: PeerBuilder, line: str, where: str) -> bool:
    match = _RULE_RE.match(line)
    if match:
        kind, target, head_text, body = match.groups()
        head = [h.strip() for h in head_text.split(",") if h.strip()]
    else:
        match = _RULE_NOARGS_RE.match(line)
        if not match:
            return False
        kind, target, body = match.groups()
        head = []
    method = {
        "input": builder.input_rule,
        "insert": builder.insert_rule,
        "delete": builder.delete_rule,
        "action": builder.action_rule,
        "send": builder.send_rule,
    }[kind]
    method(target, head, body.strip())
    return True


def parse_peer_block(name: str, lines: list[str]) -> Peer:
    """Parse the statements of one ``peer`` block."""
    builder = PeerBuilder(name)
    where = f"peer {name}"
    for line in lines:
        if _apply_declaration(builder, line, where):
            continue
        if _apply_rule(builder, line, where):
            continue
        raise ParseError(f"{where}: cannot parse statement {line!r}")
    return builder.build()


def load_composition(text: str) -> Composition:
    """Parse every ``peer`` block of *text* into a composition."""
    peers: list[Peer] = []
    lines = _join_continuations(_strip_comments(text))
    i = 0
    while i < len(lines):
        line = lines[i]
        peer_match = _PEER_RE.match(line)
        db_match = _DB_RE.match(line)
        if peer_match:
            block: list[str] = []
            i += 1
            while i < len(lines) and lines[i] != "}":
                block.append(lines[i])
                i += 1
            if i == len(lines):
                raise ParseError(
                    f"peer {peer_match.group(1)}: missing closing brace"
                )
            peers.append(parse_peer_block(peer_match.group(1), block))
        elif db_match:
            while i < len(lines) and lines[i] != "}":
                i += 1
        elif _PROPERTY_RE.match(line):
            pass  # properties are collected by load_properties()
        elif line:
            raise ParseError(f"cannot parse top-level statement {line!r}")
        i += 1
    if not peers:
        raise SpecificationError("no peer blocks found")
    return Composition(peers)


def load_databases(text: str) -> dict[str, Instance]:
    """Parse every ``database <peer>`` block of *text*."""
    out: dict[str, Instance] = {}
    lines = _join_continuations(_strip_comments(text))
    i = 0
    while i < len(lines):
        db_match = _DB_RE.match(lines[i])
        if not db_match:
            # skip over peer blocks and stray lines
            if _PEER_RE.match(lines[i]):
                while i < len(lines) and lines[i] != "}":
                    i += 1
            i += 1
            continue
        peer_name = db_match.group(1)
        relations: dict[str, list[tuple[Value, ...]]] = {}
        i += 1
        while i < len(lines) and lines[i] != "}":
            rows_match = _ROWS_RE.match(lines[i])
            if not rows_match:
                raise ParseError(
                    f"database {peer_name}: cannot parse {lines[i]!r}"
                )
            rel, row_text = rows_match.groups()
            relations[rel] = _parse_row_list(
                row_text, f"database {peer_name}.{rel}"
            )
            i += 1
        if i == len(lines):
            raise ParseError(
                f"database {peer_name}: missing closing brace"
            )
        out[peer_name] = Instance(relations)
        i += 1
    return out


_PROPERTY_RE = re.compile(r"^property\s+([A-Za-z_]\w*)\s*:\s*(.*)$",
                          re.DOTALL)


def load_properties(text: str) -> dict[str, str]:
    """Parse every ``property <name>: <ltlfo>`` statement of *text*.

    Properties are returned as raw LTL-FO text; callers parse them
    against the loaded composition's schema (``verify`` does this
    automatically).  A property extends until the next top-level
    statement, like rule bodies.
    """
    out: dict[str, str] = {}
    lines = _join_continuations(_strip_comments(text))
    i = 0
    while i < len(lines):
        if _PEER_RE.match(lines[i]) or _DB_RE.match(lines[i]):
            while i < len(lines) and lines[i] != "}":
                i += 1
            i += 1
            continue
        match = _PROPERTY_RE.match(lines[i])
        if match:
            name, body = match.groups()
            if name in out:
                raise ParseError(f"duplicate property name {name!r}")
            out[name] = body.strip()
        i += 1
    return out


# -- raw document IR (pre-build structural scanning) -------------------------
#
# ``repro lint`` needs to report structural mistakes -- a send into an
# undeclared queue, a head arity mismatch -- as diagnostics rather than
# crash in PeerBuilder.  scan_document() re-reads the surface syntax
# into a declaration/rule IR without building peers, so the analyzer can
# check structure first and only attempt the full build when it is safe.


@record(frozen=True, slots=True)
class RawDecl:
    """One relation declaration as written: ``kind name/arity``."""

    kind: str          # database | state | input | action | in | out
    name: str
    arity: int
    nested: bool = False


@record(frozen=True, slots=True)
class RawRule:
    """One rule as written: ``kind target(head) <- body``."""

    kind: str          # input | insert | delete | action | send
    target: str
    head: tuple[str, ...]
    body: str


@record(frozen=True, slots=True)
class RawPeer:
    """One ``peer`` block, declarations and rules in document order."""

    name: str
    decls: tuple[RawDecl, ...]
    rules: tuple[RawRule, ...]

    def decl(self, name: str) -> RawDecl | None:
        for d in self.decls:
            if d.name == name:
                return d
        return None


@record(frozen=True, slots=True)
class RawDocument:
    """The scanned document: peers plus property names (bodies unparsed)."""

    peers: tuple[RawPeer, ...] = ()
    properties: tuple[str, ...] = field(default_factory=tuple)


def _scan_peer_block(name: str, lines: list[str]) -> RawPeer:
    decls: list[RawDecl] = []
    rules: list[RawRule] = []
    for line in lines:
        match = _DECL_RE.match(line)
        if match:
            kind, rel, arity = match.groups()
            decls.append(RawDecl(kind, rel, int(arity)))
            continue
        match = _QUEUE_RE.match(line)
        if match:
            direction, shape, rel, arity = match.groups()
            decls.append(RawDecl(direction, rel, int(arity),
                                 nested=(shape == "nested")))
            continue
        match = _RULE_RE.match(line)
        if match:
            kind, target, head_text, body = match.groups()
            head = tuple(h.strip() for h in head_text.split(",")
                         if h.strip())
            rules.append(RawRule(kind, target, head, body.strip()))
            continue
        match = _RULE_NOARGS_RE.match(line)
        if match:
            kind, target, body = match.groups()
            rules.append(RawRule(kind, target, (), body.strip()))
            continue
        raise ParseError(f"peer {name}: cannot parse statement {line!r}")
    return RawPeer(name, tuple(decls), tuple(rules))


def scan_document(text: str) -> RawDocument:
    """Scan *text* into the raw IR without building peers.

    Raises :class:`ParseError` only for text that does not match the
    surface grammar at all; structural mistakes (undeclared targets,
    arity clashes, duplicate declarations) scan fine and are left for
    the analyzer to diagnose.
    """
    peers: list[RawPeer] = []
    properties: list[str] = []
    lines = _join_continuations(_strip_comments(text))
    i = 0
    while i < len(lines):
        line = lines[i]
        peer_match = _PEER_RE.match(line)
        db_match = _DB_RE.match(line)
        prop_match = _PROPERTY_RE.match(line)
        if peer_match:
            block: list[str] = []
            i += 1
            while i < len(lines) and lines[i] != "}":
                block.append(lines[i])
                i += 1
            if i == len(lines):
                raise ParseError(
                    f"peer {peer_match.group(1)}: missing closing brace"
                )
            peers.append(_scan_peer_block(peer_match.group(1), block))
        elif db_match:
            while i < len(lines) and lines[i] != "}":
                i += 1
        elif prop_match:
            properties.append(prop_match.group(1))
        elif line:
            raise ParseError(f"cannot parse top-level statement {line!r}")
        i += 1
    return RawDocument(tuple(peers), tuple(properties))


# -- emission (the inverse surface) ------------------------------------------
#
# The fuzzer persists generated compositions as replayable ``.dws``
# corpus files, and the round-trip oracle demands that what we write is
# what we parse: ``load_document(dump_document(c, dbs, props))`` must
# reproduce the composition structurally (peers, schemas, rules and all;
# see :func:`compositions_equal`).  Formula ``__str__`` is already a
# parseable rendering (the FO parser accepts ``exists x. (...)`` and
# resolves bare queue names against the schema), so emission is purely
# a matter of laying out declarations, rules, rows and properties in
# the line-oriented surface grammar.

_SAFE_STRING_RE = re.compile(r'[^"#\\\n\r]*\Z')


def _emit_value(value: Value, where: str) -> str:
    if isinstance(value, bool):  # bool is an int subclass; reject early
        raise SpecificationError(f"{where}: booleans are not domain values")
    if isinstance(value, int):
        return str(value)
    if not _SAFE_STRING_RE.match(value):
        raise SpecificationError(
            f"{where}: string value {value!r} cannot be emitted "
            "(quotes, comments and newlines do not round-trip)"
        )
    return f'"{value}"'


def _check_line(line: str, where: str) -> str:
    """Refuse to emit text the comment stripper would corrupt."""
    if "#" in line or "\n" in line:
        raise SpecificationError(
            f"{where}: rendered text {line!r} cannot be emitted "
            "('#' starts a comment in the surface syntax)"
        )
    return line


def dump_peer(peer: Peer) -> str:
    """Emit one ``peer`` block (declarations, then rules, in order)."""
    where = f"peer {peer.name}"
    lines = [f"peer {peer.name} {{"]
    for kind, symbols in (("database", peer.database),
                          ("state", peer.states),
                          ("input", peer.inputs),
                          ("action", peer.actions)):
        for sym in symbols:
            lines.append(f"    {kind:8s} {sym.name}/{sym.arity}")
    for direction, symbols in (("in", peer.in_queues),
                               ("out", peer.out_queues)):
        for sym in symbols:
            shape = "nested" if sym.nested else "flat"
            lines.append(f"    {direction:3s} {shape:6s} "
                         f"{sym.name}/{sym.arity}")
    if peer.rules:
        lines.append("")
    for rule in peer.rules:
        head = ", ".join(v.name for v in rule.head)
        target = f"{rule.target}({head})" if head else rule.target
        body = str(rule.body)
        lines.append(_check_line(
            f"    {rule.kind.value:6s} {target} <- {body}", where
        ))
    lines.append("}")
    return "\n".join(lines)


def dump_composition(composition: Composition) -> str:
    """Emit every peer of *composition* as ``.dws`` text."""
    return "\n\n".join(dump_peer(p) for p in composition.peers)


def dump_databases(databases: dict[str, Instance]) -> str:
    """Emit ``database <peer>`` blocks (non-empty relations only)."""
    blocks = []
    for peer_name in sorted(databases):
        instance = databases[peer_name]
        rows_lines = []
        for rel, rows in instance.items():
            if not rows:
                continue
            where = f"database {peer_name}.{rel}"
            rendered = ", ".join(
                "(" + ", ".join(_emit_value(v, where) for v in row) + ")"
                for row in sorted(
                    rows, key=lambda t: tuple(map(value_sort_key, t))
                )
            )
            rows_lines.append(_check_line(f"    {rel}: {rendered}", where))
        if not rows_lines:
            continue
        blocks.append(f"database {peer_name} {{\n"
                      + "\n".join(rows_lines) + "\n}")
    return "\n\n".join(blocks)


def dump_document(composition: Composition,
                  databases: dict[str, Instance] | None = None,
                  properties: dict[str, str] | None = None,
                  header: str | None = None) -> str:
    """Emit a complete document: peers, databases, properties.

    The inverse of :func:`load_document` up to formatting:
    ``load_document(dump_document(c, dbs, props))`` returns a
    structurally equal composition (:func:`compositions_equal`), equal
    database instances, and the same property texts modulo whitespace.
    """
    parts = []
    if header:
        parts.append("\n".join(
            f"# {line}".rstrip() for line in header.splitlines()
        ))
    parts.append(dump_composition(composition))
    if databases:
        block = dump_databases(databases)
        if block:
            parts.append(block)
    if properties:
        prop_lines = []
        for name, text in properties.items():
            flat = " ".join(text.split())
            prop_lines.append(_check_line(
                f"property {name}: {flat}", f"property {name}"
            ))
        parts.append("\n".join(prop_lines))
    return "\n\n".join(parts) + "\n"


def compositions_equal(a: Composition, b: Composition) -> bool:
    """Structural equality of two compositions.

    Peers are frozen records (:mod:`repro._record`) whose fields
    (schemas, rules, formula ASTs) all define structural equality, so
    comparing the peer tuples compares everything down to rule bodies.
    """
    return a.peers == b.peers


def load(text: str) -> tuple[Composition, dict[str, Instance]]:
    """Parse a full document: the composition and its databases."""
    return load_composition(text), load_databases(text)


def load_document(text: str) -> tuple[
        Composition, dict[str, Instance], dict[str, str]]:
    """Parse a full document including its ``property`` statements."""
    return (load_composition(text), load_databases(text),
            load_properties(text))
