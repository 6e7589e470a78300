"""Textual formats: cube queries, selection conditions, beliefs, label rules.

The grammar is LL(1) and parsed by a hand-written recursive-descent parser
so syntax errors can carry a byte offset and the set of expected tokens.
Printing is canonical: `parse(print(parse(text)))` equals `parse(text)` for
every accepted input.

    query  := "SELECT" agg ("," agg)* "BY" grouper ("," grouper)*
              ["WHERE" atom ("AND" atom)*]
    agg    := ("sum"|"avg"|"count"|"min"|"max") "(" ident ")"
    grouper:= ident "." ident
    atom   := ident "." ident "IN" "{" literal ("," literal)* "}"
    belief := "P" "(" target ["|" anchor ("," anchor)*] ")" "=" prob ["%"]
    target := ident "IN" (interval | "{" number ("," number)* "}")
            | "label" "(" ident ")" "=" word
    rule   := ident ":" interval "->" word
            | "ORDER" word ("<" word)*
"""

from __future__ import annotations

from .context import BeliefStatement, ValueInterval, _lines, _num
from .engine import (
    AGG_FUNCTIONS,
    AtomicFilter,
    CubeQuery,
    DetailedCube,
    SelectionCondition,
)
from .errors import (
    DuplicateDimensionAtom,
    ParseError,
    ProbabilityOutOfRange,
    UnknownIdentifier,
    UnknownLevel,
    UnknownMember,
)
from .mdm import ALL_LEVEL, Dimension

_WORD_SEPS = "-/:"
_SYMBOLS = "(){}[],.=|%<:"


class Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind  # "word", "number", "eof", or the symbol itself
        self.text = text
        self.pos = pos

    def __repr__(self):
        return f"Token({self.kind!r}, {self.text!r}, @{self.pos})"


def _is_word_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_word_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def tokenize(text: str) -> list[Token]:
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        start = i
        if ch in "'\"":
            j = text.find(ch, i + 1)
            if j < 0:
                raise ParseError("unterminated quoted literal", start)
            out.append(Token("word", text[i + 1:j], start))
            i = j + 1
            continue
        if _is_word_start(ch):
            i += 1
            while i < n and (_is_word_char(text[i]) or (
                    text[i] in _WORD_SEPS and i + 1 < n and text[i + 1].isalnum())):
                i += 1
            out.append(Token("word", text[start:i], start))
            continue
        if ch.isdigit():
            i += 1
            while i < n and text[i].isdigit():
                i += 1
            if (i < n and text[i] == "." and i + 1 < n and text[i + 1].isdigit()):
                i += 1
                while i < n and text[i].isdigit():
                    i += 1
                out.append(Token("number", text[start:i], start))
            elif (i < n and text[i] in _WORD_SEPS and i + 1 < n
                    and text[i + 1].isalnum()):
                i += 1
                while i < n and (_is_word_char(text[i]) or (
                        text[i] in _WORD_SEPS and i + 1 < n
                        and text[i + 1].isalnum())):
                    i += 1
                out.append(Token("word", text[start:i], start))
            else:
                out.append(Token("number", text[start:i], start))
            continue
        if text.startswith("..", i):
            out.append(Token("..", "..", start))
            i += 2
            continue
        if text.startswith("->", i):
            out.append(Token("->", "->", start))
            i += 2
            continue
        if ch in _SYMBOLS:
            out.append(Token(ch, ch, start))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", start)
    out.append(Token("eof", "", n))
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.cur
        if tok.kind != "eof":
            self.i += 1
        return tok

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        tok = self.cur
        if tok.kind != kind:
            return None
        if text is not None and tok.text.lower() != text.lower():
            return None
        return self.advance()

    def expect(self, kind: str, text: str | None = None,
               expected: str | None = None) -> Token:
        tok = self.accept(kind, text)
        if tok is None:
            want = expected or (f"'{text}'" if text else f"'{kind}'")
            raise ParseError(
                f"unexpected {self.cur.text!r}" if self.cur.kind != "eof"
                else "unexpected end of input",
                self.cur.pos, [want])
        return tok

    def keyword(self, word: str) -> Token | None:
        return self.accept("word", word)

    def expect_keyword(self, word: str) -> Token:
        return self.expect("word", word, expected=f"'{word}'")

    def expect_eof(self):
        if self.cur.kind != "eof":
            raise ParseError(
                f"trailing input {self.cur.text!r}", self.cur.pos, ["end of input"])

    def number(self, expected="number") -> tuple[float, Token]:
        tok = self.expect("number", expected=expected)
        return float(tok.text), tok

    def literal(self) -> Token:
        tok = self.cur
        if tok.kind not in ("word", "number"):
            raise ParseError(
                f"unexpected {tok.text!r}", tok.pos, ["member literal"])
        return self.advance()


# --- identifier resolution ---------------------------------------------------

def _resolve_dim(cube: DetailedCube, tok: Token) -> Dimension:
    for d in cube.dims:
        if d.name.lower() == tok.text.lower():
            return d
    raise UnknownIdentifier(f"unknown dimension {tok.text!r}", tok.pos)


def _resolve_level(dim: Dimension, tok: Token) -> str:
    if not dim.has_level(tok.text):
        raise UnknownIdentifier(
            f"dimension {dim.name} has no level {tok.text!r}", tok.pos)
    return dim.level(tok.text).name


def _resolve_measure(cube: DetailedCube, tok: Token) -> str:
    for m in cube.measures:
        if m.lower() == tok.text.lower():
            return m
    raise UnknownIdentifier(f"unknown measure {tok.text!r}", tok.pos)


def _resolve_member(dim: Dimension, level: str, tok: Token) -> int:
    try:
        return dim.member(level, tok.text).id
    except UnknownMember:
        raise UnknownIdentifier(
            f"{dim.name}.{level} has no member {tok.text!r}", tok.pos) from None


def _level_anywhere(cube: DetailedCube, tok: Token) -> Dimension:
    try:
        return cube.dim_with_level(tok.text)
    except UnknownLevel as exc:
        raise UnknownIdentifier(str(exc), tok.pos) from None


# --- queries and conditions -----------------------------------------------------

def _parse_atom(p: _Parser, cube: DetailedCube) -> AtomicFilter:
    dim_tok = p.expect("word", expected="dimension name")
    dim = _resolve_dim(cube, dim_tok)
    p.expect(".")
    level = _resolve_level(dim, p.expect("word", expected="level name"))
    p.expect_keyword("IN")
    p.expect("{")
    values = set()
    while True:
        tok = p.literal()
        values.add(_resolve_member(dim, level, tok))
        if not p.accept(","):
            break
    p.expect("}")
    return AtomicFilter(dim.name, level, frozenset(values))


def _parse_atom_list(p: _Parser, cube: DetailedCube) -> SelectionCondition:
    atoms = []
    seen: dict[str, int] = {}
    while True:
        pos = p.cur.pos
        atom = _parse_atom(p, cube)
        if atom.dimension in seen:
            raise DuplicateDimensionAtom(
                f"dimension {atom.dimension} filtered twice", pos)
        seen[atom.dimension] = pos
        atoms.append(atom)
        if not p.keyword("AND"):
            break
    return SelectionCondition(tuple(atoms))


def parse_query(text: str, cube: DetailedCube) -> CubeQuery:
    """Parse a SELECT ... BY ... [WHERE ...] query against the cube schema.

    Dimensions missing from BY default to ALL; a missing WHERE clause is the
    empty condition.
    """
    p = _Parser(text)
    p.expect_keyword("SELECT")
    aggregates = []
    while True:
        fn_tok = p.expect("word", expected="aggregate function")
        fn = fn_tok.text.lower()
        if fn not in AGG_FUNCTIONS:
            raise UnknownIdentifier(
                f"unknown aggregate function {fn_tok.text!r}", fn_tok.pos)
        p.expect("(")
        measure = _resolve_measure(cube, p.expect("word", expected="measure name"))
        p.expect(")")
        aggregates.append((fn, measure))
        if not p.accept(","):
            break
    p.expect_keyword("BY")
    groupers = {d.name: ALL_LEVEL for d in cube.dims}
    grouped: set[str] = set()
    while True:
        dim_tok = p.expect("word", expected="dimension name")
        dim = _resolve_dim(cube, dim_tok)
        p.expect(".")
        level = _resolve_level(dim, p.expect("word", expected="level name"))
        if dim.name in grouped:
            raise ParseError(
                f"dimension {dim.name} grouped twice", dim_tok.pos)
        grouped.add(dim.name)
        groupers[dim.name] = level
        if not p.accept(","):
            break
    condition = SelectionCondition()
    if p.keyword("WHERE"):
        condition = _parse_atom_list(p, cube)
    p.expect_eof()
    return CubeQuery(
        cube=cube,
        condition=condition,
        groupers=tuple(groupers[d.name] for d in cube.dims),
        aggregates=tuple(aggregates),
    )


def parse_condition(text: str, cube: DetailedCube) -> SelectionCondition:
    """Parse a conjunctive condition; the empty string matches everything."""
    p = _Parser(text)
    if p.cur.kind == "eof":
        return SelectionCondition()
    condition = _parse_atom_list(p, cube)
    p.expect_eof()
    return condition


# --- beliefs -----------------------------------------------------------------

def parse_belief(text: str, cube: DetailedCube) -> BeliefStatement:
    """Parse one probabilistic statement about a cell's measure."""
    p = _Parser(text)
    p.expect("word", "P", expected="'P'")
    p.expect("(")
    kind, values, measure = _parse_belief_target(p, cube)
    anchor_parts: dict[str, tuple[str, int]] = {}
    if p.accept("|"):
        while True:
            dim_tok = level_tok = p.expect("word", expected="level name")
            if p.accept("."):
                dim = _resolve_dim(cube, dim_tok)
                level_tok = p.expect("word", expected="level name")
            else:
                dim = _level_anywhere(cube, level_tok)
            level = _resolve_level(dim, level_tok)
            p.expect("=")
            member = _resolve_member(dim, level, p.literal())
            if dim.name in anchor_parts:
                raise DuplicateDimensionAtom(
                    f"dimension {dim.name} anchored twice", dim_tok.pos)
            anchor_parts[dim.name] = (level, member)
            if not p.accept(","):
                break
    p.expect(")")
    p.expect("=")
    prob, prob_tok = p.number("probability")
    if p.accept("%"):
        prob /= 100.0
    if not 0.0 <= prob <= 1.0:
        raise ProbabilityOutOfRange(
            f"probability {prob} outside [0,1]", prob_tok.pos)
    p.expect_eof()
    anchor = tuple(anchor_parts.get(d.name, (ALL_LEVEL, 0)) for d in cube.dims)
    return BeliefStatement(measure, kind, values, prob, anchor)


def _parse_belief_target(p: _Parser, cube: DetailedCube):
    if p.cur.kind == "word" and p.cur.text.lower() == "label":
        nxt = p.tokens[p.i + 1]
        if nxt.kind == "(":
            p.advance()
            p.expect("(")
            measure = _resolve_measure(
                cube, p.expect("word", expected="measure name"))
            p.expect(")")
            p.expect("=")
            label = p.expect("word", expected="label name").text
            return "label", label, measure
    measure = _resolve_measure(cube, p.expect("word", expected="measure name"))
    p.expect_keyword("IN")
    if p.cur.kind in ("[", "("):
        return "interval", _parse_interval(p), measure
    p.expect("{", expected="'{' or interval")
    values = set()
    while True:
        v, _ = p.number("measure value")
        values.add(v)
        if not p.accept(","):
            break
    p.expect("}")
    return "set", frozenset(values), measure


def _parse_interval(p: _Parser) -> ValueInterval:
    lo_closed = p.advance().kind == "["
    lo, _ = p.number("interval lower bound")
    p.expect("..")
    hi, hi_tok = p.number("interval upper bound")
    closer = p.cur
    if closer.kind not in ("]", ")"):
        raise ParseError(
            f"unexpected {closer.text!r}", closer.pos, ["']'", "')'"])
    p.advance()
    if hi < lo:
        raise ParseError("interval upper bound below lower bound", hi_tok.pos)
    return ValueInterval(lo, hi, lo_closed, closer.kind == "]")


# --- label rules -----------------------------------------------------------------

def parse_label_rules(text: str, strict_coverage: bool = False):
    """Parse labeling rules, one `Measure: [lo..hi] -> Label` per line, plus
    an optional `ORDER a < b < ...` line declaring an ordinal label domain.

    Returns (schemes by measure, label domain or None).
    """
    from .surprise import LabelDomain, LabelingScheme

    per_measure: dict[str, list[tuple[ValueInterval, str]]] = {}
    order: list[str] | None = None
    for line in _lines(text):
        p = _Parser(line)
        if p.cur.kind == "word" and p.cur.text.lower() == "order":
            p.advance()
            labels = [p.expect("word", expected="label name").text]
            while p.accept("<"):
                labels.append(p.expect("word", expected="label name").text)
            p.expect_eof()
            order = labels
            continue
        measure_tok = p.expect("word", expected="measure name")
        p.expect(":")
        interval = _parse_interval(p)
        p.expect("->")
        label = p.expect("word", expected="label name").text
        p.expect_eof()
        per_measure.setdefault(measure_tok.text, []).append((interval, label))
    schemes = {
        m: LabelingScheme(m, tuple(ivs), strict_coverage=strict_coverage)
        for m, ivs in per_measure.items()
    }
    domain = LabelDomain(tuple(order), kind="ordinal") if order else None
    return schemes, domain


# --- printing -----------------------------------------------------------------

def print_query(q: CubeQuery) -> str:
    parts = ["SELECT ", ", ".join(f"{fn}({m})" for fn, m in q.aggregates)]
    dims = q.cube.dims
    groupers = [(d.name, g) for d, g in zip(dims, q.groupers) if g != ALL_LEVEL]
    if not groupers:
        groupers = [(dims[0].name, ALL_LEVEL)]
    parts += [" BY ", ", ".join(f"{d}.{g}" for d, g in groupers)]
    cond = print_condition(q.condition, q.cube)
    if cond:
        parts += [" WHERE ", cond]
    return "".join(parts)


def print_condition(condition: SelectionCondition, cube: DetailedCube) -> str:
    chunks = []
    for dim in cube.dims:
        atom = condition.atom_for(dim.name)
        if atom is None:
            continue
        labels = sorted(dim.label_of(atom.level, v) for v in atom.values)
        chunks.append(
            f"{dim.name}.{atom.level} IN {{{', '.join(map(_quote, labels))}}}")
    return " AND ".join(chunks)


def print_belief(statement: BeliefStatement, cube: DetailedCube) -> str:
    if statement.kind == "label":
        target = f"label({statement.measure}) = {statement.values}"
    elif statement.kind == "interval":
        target = f"{statement.measure} IN {statement.values.text()}"
    else:
        vals = ", ".join(_num(v) for v in sorted(statement.values))
        target = f"{statement.measure} IN {{{vals}}}"
    anchors = []
    for dim, (level, mid) in zip(cube.dims, statement.anchor):
        if level == ALL_LEVEL:
            continue
        anchors.append(f"{dim.name}.{level}={_quote(dim.label_of(level, mid))}")
    inner = target if not anchors else f"{target} | {', '.join(anchors)}"
    return f"P({inner}) = {_num(statement.probability)}"


def print_label_rules(schemes: dict, domain=None) -> str:
    lines = []
    for measure in sorted(schemes):
        for interval, label in schemes[measure].intervals:
            lines.append(f"{measure}: {interval.text()} -> {label}")
    if domain is not None and domain.kind != "nominal":
        lines.append("ORDER " + " < ".join(domain.labels))
    return "\n".join(lines)


def _quote(label: str) -> str:
    plain = label and (label[0].isalnum() or label[0] == "_") and all(
        ch.isalnum() or ch in "_-/:" for ch in label)
    return label if plain else f"'{label}'"
