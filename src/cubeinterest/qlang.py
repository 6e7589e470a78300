"""Textual formats: cube queries, selection conditions, beliefs, label rules.

The grammar is LL(1) and parsed by a hand-written recursive-descent parser
so syntax errors can carry a byte offset and the set of expected tokens.

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

One token rule (`_TOKEN`) reads the text, and the printers ask it how to
write. A word is a run of letters, digits and `_` (`R1`, `12abc`), in which
`-`, `/` or `:` may join two letters or digits (`1996-01`, `a/b`). A number is
decimal digits with an optional leading `-` and an optional fraction (`12`,
`-0.5`) that no word character follows: what `float` reads. A token never
starts inside a word, so `1996-01` and `a-b` stay words and `->` a symbol.
Any text between `'...'` or `"..."` is one word, with no escapes. Names
(ident, word) are words; a member literal is a word or a number.

A printer writes a name, label or member bare when the scanner reads it
back as exactly that one token, else quoted, with `"` when it holds `'`.
Numbers are written as the shortest decimal that reads back as the same
float, never with an exponent. So printing is canonical, and
`parse(print(x)) == x` for every query, condition, belief and label-rule
set that the parsers return or whose names the grammar can write. Two it
cannot write: a name or label holding both quote characters, and a
label-rule measure named `ORDER` in any case (a quoted word there is still
the keyword).
"""

from __future__ import annotations

import re

from .context import BeliefStatement, ValueInterval, _lines, _num
from .engine import (
    AGG_FUNCTIONS,
    AtomicFilter,
    CubeQuery,
    DetailedCube,
    SelectionCondition,
)
from .errors import (
    DimensionMismatch,
    DuplicateDimensionAtom,
    LevelNotInDimension,
    ParseError,
    ProbabilityOutOfRange,
    UnknownIdentifier,
    UnknownLevel,
    UnknownMeasure,
    UnknownMember,
)
from .mdm import ALL_LEVEL, Dimension

# One token. `\w` is a letter, digit or `_` (`str.isalnum()` or `_`),
# `[^\W_]` a letter or digit, `\d` a decimal digit (`str.isdecimal()`) and
# `\s` a blank (`str.isspace()`).
_TOKEN = re.compile(r"""(?:
    (?P<number>-?\d+(?:\.\d+)?)(?!\w|[-/:][^\W_])
  | (?P<word>\w+(?:[-/:][^\W_]\w*)*)
  | (?P<quoted>'[^']*'|"[^"]*")
  | (?P<symbol>\.\.|->|[(){}\[\],.=|%<:])
)""", re.VERBOSE)
_TOKEN_AND_BLANKS = re.compile(_TOKEN.pattern + r"\s*", re.VERBOSE)
_LITERAL = ("word", "number")


class Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind  # "word", "number", "eof", or the symbol itself
        self.text = text
        self.pos = pos

    def __repr__(self):
        return f"Token({self.kind!r}, {self.text!r}, @{self.pos})"


def tokenize(text: str) -> list[Token]:
    out = []
    i, n = len(text) - len(text.lstrip()), len(text)
    while i < n:
        m = _TOKEN_AND_BLANKS.match(text, i)
        if m is None:
            if text[i] in "'\"":
                raise ParseError("unterminated quoted literal", i)
            raise ParseError(f"unexpected character {text[i]!r}", i)
        kind = m.lastgroup
        value = m[kind]
        if kind == "quoted":
            kind, value = "word", value[1:-1]
        elif kind == "symbol":
            kind = value
        out.append(Token(kind, value, i))
        i = m.end()
    out.append(Token("eof", "", n))
    return out


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.i = 0
        self.cur = self.tokens[0]

    def advance(self) -> Token:
        tok = self.cur
        if tok.kind != "eof":
            self.i += 1
            self.cur = self.tokens[self.i]
        return tok

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        tok = self.cur
        if tok.kind != kind or (
                text is not None and tok.text.lower() != text.lower()):
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
        if tok.kind not in _LITERAL:
            raise ParseError(
                f"unexpected {tok.text!r}", tok.pos, ["member literal"])
        return self.advance()


# --- names, looked up through the schema ---------------------------------------

def _at(tok: Token, missing: type[Exception], lookup, *args):
    """`lookup(*args)`, the schema's lookup of the name in `tok`; the schema's
    own `missing` error is re-raised at the token's offset."""
    try:
        return lookup(*args)
    except missing as exc:
        raise UnknownIdentifier(str(exc), tok.pos) from None


def _dim_level(p: _Parser, cube: DetailedCube) -> tuple[Dimension, str]:
    """`ident "." ident`: a dimension and its level's schema name."""
    tok = p.expect("word", expected="dimension name")
    dim = _at(tok, DimensionMismatch, cube.dim, tok.text)
    p.expect(".")
    tok = p.expect("word", expected="level name")
    return dim, _at(tok, LevelNotInDimension, dim.level, tok.text).name


def _measure(p: _Parser, cube: DetailedCube) -> str:
    tok = p.expect("word", expected="measure name")
    return cube.measures[_at(tok, UnknownMeasure, cube.measure_index, tok.text)]


def _member(p: _Parser, dim: Dimension, level: str) -> int:
    tok = p.literal()
    return _at(tok, UnknownMember, dim.member, level, tok.text).id


# --- queries and conditions -----------------------------------------------------

def _parse_atom(p: _Parser, cube: DetailedCube) -> AtomicFilter:
    dim, level = _dim_level(p, cube)
    p.expect_keyword("IN")
    p.expect("{")
    values = {_member(p, dim, level)}
    while p.accept(","):
        values.add(_member(p, dim, level))
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
        aggregates.append((fn, _measure(p, cube)))
        p.expect(")")
        if not p.accept(","):
            break
    p.expect_keyword("BY")
    groupers = {d.name: ALL_LEVEL for d in cube.dims}
    grouped: set[str] = set()
    while True:
        pos = p.cur.pos
        dim, level = _dim_level(p, cube)
        if dim.name in grouped:
            raise ParseError(f"dimension {dim.name} grouped twice", pos)
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
                dim = _at(dim_tok, DimensionMismatch, cube.dim, dim_tok.text)
                level_tok = p.expect("word", expected="level name")
            else:
                dim = _at(level_tok, UnknownLevel, cube.dim_with_level,
                          level_tok.text)
            level = _at(level_tok, LevelNotInDimension, dim.level,
                        level_tok.text).name
            p.expect("=")
            member = _member(p, dim, level)
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
            measure = _measure(p, cube)
            p.expect(")")
            p.expect("=")
            label = p.expect("word", expected="label name").text
            return "label", label, measure
    measure = _measure(p, cube)
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
            order = []
            while True:
                tok = p.expect("word", expected="label name")
                if tok.text in order:
                    raise ParseError(f"label {tok.text!r} ordered twice", tok.pos)
                order.append(tok.text)
                if not p.accept("<"):
                    break
            p.expect_eof()
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

def _quote(text: str, kinds: tuple[str, ...] = ("word",)) -> str:
    """`text` bare when the scanner reads it back as exactly one token of
    `kinds`, else quoted; `"` when it holds `'`."""
    m = _TOKEN.match(text)
    if m and m.end() == len(text) and m.lastgroup in kinds:
        return text
    return f'"{text}"' if "'" in text else f"'{text}'"


def _dim_level_text(dim: str, level: str) -> str:
    return f"{_quote(dim)}.{_quote(level)}"


def print_query(q: CubeQuery) -> str:
    parts = ["SELECT ", ", ".join(f"{fn}({_quote(m)})" for fn, m in q.aggregates)]
    dims = q.cube.dims
    groupers = [(d.name, g) for d, g in zip(dims, q.groupers) if g != ALL_LEVEL]
    if not groupers:
        groupers = [(dims[0].name, ALL_LEVEL)]
    parts += [" BY ", ", ".join(_dim_level_text(d, g) for d, g in groupers)]
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
        literals = ", ".join(_quote(label, _LITERAL) for label in labels)
        chunks.append(
            f"{_dim_level_text(dim.name, atom.level)} IN {{{literals}}}")
    return " AND ".join(chunks)


def print_belief(statement: BeliefStatement, cube: DetailedCube) -> str:
    measure = _quote(statement.measure)
    if statement.kind == "label":
        target = f"label({measure}) = {_quote(statement.values)}"
    elif statement.kind == "interval":
        target = f"{measure} IN {statement.values.text()}"
    else:
        vals = ", ".join(_num(v) for v in sorted(statement.values))
        target = f"{measure} IN {{{vals}}}"
    anchors = []
    for dim, (level, mid) in zip(cube.dims, statement.anchor):
        if level == ALL_LEVEL:
            continue
        member = _quote(dim.label_of(level, mid), _LITERAL)
        anchors.append(f"{_dim_level_text(dim.name, level)}={member}")
    inner = target if not anchors else f"{target} | {', '.join(anchors)}"
    return f"P({inner}) = {_num(statement.probability)}"


def print_label_rules(schemes: dict, domain=None) -> str:
    lines = []
    for measure in sorted(schemes):
        for interval, label in schemes[measure].intervals:
            lines.append(
                f"{_quote(measure)}: {interval.text()} -> {_quote(label)}")
    if domain is not None and domain.kind != "nominal":
        lines.append("ORDER " + " < ".join(map(_quote, domain.labels)))
    return "\n".join(lines)
