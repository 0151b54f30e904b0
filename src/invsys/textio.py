"""Line-oriented text formats for posets, systems, towers, and sequences.

One declaration per line, '#' starts a comment, labels match
[A-Za-z0-9_()]+.  Top-level `group` lines come first; then each block opens
with a header line (poset / system / tower / absystem / sequence) and owns
the lines up to the next header.  No two blocks of one kind, and no two
top-level groups, have the same name.  The diagram blocks (system, tower
and absystem; a tower's base is the chain "0" < ... < "H") are read by one
path: one object line per element and one `map` line per cover, each
declared once.  A sequence has one `map u at E` and one `map v at E` per
element.

Each line is read with one compiled pattern: `fullmatch` accepts the whole
line, its label, rule or cover list included, and `split` or `findall`
takes the tokens out.  Consecutive tokens always need a separator that no
token contains, so every pattern runs in time linear in the line.  Only a
line that its pattern rejects is read again token by token, to name in its
error the first bad label, rule or cover, or a repeated one before it.
"""

from __future__ import annotations

import re

from .abgroups import AbHom, FgAbGroup, hom_is_valid
from .derived import AbSystem, validate_absystem
from .errors import BadOption, NotFunction, ParseError
from .intlinalg import IntMatrix
from .poset import Poset, validate_poset
from .setsys import SetSystem, tower_chain, validate_system

LABEL = r"[A-Za-z0-9_()]+"
_LABEL_RE = re.compile(LABEL)
_LABELS = rf"\s*(?:{LABEL}(?:\s+{LABEL})*)?\s*"  # labels parted by whitespace
# one rule x -> y or cover x < y, and a comma-separated list of them
_RULE = re.compile(rf"({LABEL})\s*->\s*({LABEL})")
_COVER = re.compile(rf"({LABEL})\s*<\s*({LABEL})")
_RULES = rf"\s*{_RULE.pattern}\s*(?:,\s*{_RULE.pattern}\s*)*"


def _header(usage: str) -> tuple[re.Pattern, str]:
    """A header's pattern and usage: upper-case words are labels, H a horizon."""
    words = (r"(\d+)" if w == "H" else f"({LABEL})" if w.isupper() else w
             for w in usage.split())
    return re.compile(r"\s+".join(words)), usage


_HEADERS = {usage.split()[0]: _header(usage) for usage in (
    "poset NAME", "system NAME over POSET", "tower NAME horizon H",
    "absystem NAME over POSET", "sequence NAME over POSET systems A B C")}

_GROUP_BODY = r"gens\s+(\d+)\s+relations\s+(.*)"
_GROUP_LINE = re.compile(rf"group\s+({LABEL})\s+{_GROUP_BODY}")  # a top-level group
_WORDS = {"system": "set", "tower": "set", "absystem": "group"}  # object line keyword
# the object and arrow lines of the diagrams of sets and of groups, and their
# usage; for sets, _SET_LINE and _BOND_LINE accept a line, and these looser
# patterns only tell a line with a bad label or rule from a malformed one
_OBJECT_LINES = {
    "set": (re.compile(rf"set\s+({LABEL})\s*:\s*\{{(.*)\}}"), "set ELEM: { x y z }"),
    "group": (re.compile(rf"group\s+({LABEL})\s*:\s*{_GROUP_BODY}"),
              "group ELEM: gens K relations [[..]]")}
_ARROW_LINES = {
    "set": (re.compile(rf"map\s+({LABEL})\s*->\s*({LABEL})\s*:\s*(.*)"),
            "map UPPER -> LOWER: x -> y, ..."),
    "group": (re.compile(rf"map\s+({LABEL})\s*->\s*({LABEL})\s*:\s*matrix\s+(.*)"),
              "map UPPER -> LOWER: matrix [[..]]")}
_SET_LINE = re.compile(rf"set\s+({LABEL})\s*:\s*\{{({_LABELS})\}}")
_BOND_LINE = re.compile(rf"map\s+({LABEL})\s*->\s*({LABEL})\s*:({_RULES})")
_CLIPDEC_LINE = re.compile(r"map\s+all\s*:\s*clipdec")
_LEVEL_MAP_LINE = re.compile(rf"map\s+(u|v)\s+at\s+({LABEL})\s*:\s*matrix\s+(.*)")
_POSET_LINES = {"elements": re.compile(_LABELS), "covers": re.compile(
    rf"\s*(?:{_COVER.pattern}\s*(?:,\s*{_COVER.pattern}\s*)*)?")}
# a matrix literal: bracketed rows of signed decimal integers, nothing else
_INT = r"[+-]?(?:0|[1-9][0-9]*)"  # no leading zeros
_ROW = rf"\[\s*(?:{_INT}(?:\s*,\s*{_INT})*)?\s*\]"
_MATRIX = re.compile(rf"\[\s*(?:{_ROW}(?:\s*,\s*{_ROW})*)?\s*\]", re.ASCII)
_MATRIX_ROW = re.compile(r"\[([^][]*)\]")
_SHOWN = 60  # characters of a bad literal quoted in its error

# the largest tower horizon read: every level is built before any check, so
# memory grows with the horizon, not with the size of the file
DEFAULT_HORIZON_BUDGET = 10000


class SequenceDecl:
    """Raw pieces of an exactness-experiment file."""

    def __init__(self, base: Poset, systems: tuple[str, str, str],
                 u: dict[str, AbHom], v: dict[str, AbHom]):
        self.base, self.systems, self.u, self.v = base, systems, u, v


class Document:
    """The blocks of a file, one table per kind, keyed by name."""

    def __init__(self):
        self.posets: dict[str, Poset] = {}
        self.systems: dict[str, SetSystem] = {}
        self.towers: dict[str, SetSystem] = {}  # on tower_chain(H)
        self.groups: dict[str, FgAbGroup] = {}
        self.absystems: dict[str, AbSystem] = {}
        self.sequences: dict[str, SequenceDecl] = {}

    def sole(self, kinds: str | tuple[str, ...], name: str | None = None):
        """The block named name in the tables of kinds, the first table that
        has it winning; or, when name is None, the one block of those kinds."""
        kinds = (kinds,) if isinstance(kinds, str) else kinds
        tables = [getattr(self, k) for k in kinds]
        what = " or ".join(k[:-1] for k in kinds)
        if name is not None:
            for table in tables:
                if name in table:
                    return table[name]
            raise BadOption(f"no {what} named {name}")
        found = [block for table in tables for block in table.values()]
        if len(found) != 1:
            raise BadOption(f"file must contain exactly one {what} "
                            f"(found {len(found)}); pass a name")
        return found[0]


class _Block:
    """One block of a file: its header, its objects keyed by element, its
    arrows keyed by (lower, upper) (a sequence: by (u or v, element)), and
    the line number of each declaration."""

    def __init__(self, kind: str, name: str, line: int, args: tuple):
        self.kind, self.name, self.line = kind, name, line
        self.args = args  # the rest of the header: POSET, H, or POSET A B C
        self.objects: dict = {}
        self.arrows: dict = {}
        self.lines: dict = {}  # (table, key) -> line number

    def declare(self, table: str, key, value, lineno: int):
        if (table, key) in self.lines:
            first = self.lines[(table, key)]
            raise ParseError(lineno, f"{self.what(table, key)} is already declared "
                                     f"at line {first}")
        getattr(self, table)[key] = value
        self.lines[(table, key)] = lineno

    def what(self, table: str, key) -> str:
        """The line that declares key in table, as errors name it."""
        if table == "objects":
            return f"{_WORDS.get(self.kind, 'element')} {key}"
        if self.kind == "poset":
            return f"cover {key[0]} < {key[1]}"
        if self.kind == "sequence":
            return f"map {key[0]} at {key[1]}"
        return "map all" if key == "all" else f"map {key[1]} -> {key[0]}"


def _match(pattern: re.Pattern, usage: str, line: str, lineno: int) -> re.Match:
    """The match of the whole line; a line that does not match is an error."""
    m = pattern.fullmatch(line)
    if m is None:
        raise ParseError(lineno, f"expected: {usage}")
    return m


def _token(tok: str, pattern: re.Pattern, what: str, lineno: int) -> re.Match:
    """One token of a line read token by token; a bad one is an error."""
    m = pattern.fullmatch(tok.strip())
    if m is None:
        raise ParseError(lineno, f"{what} {tok.strip()!r}")
    return m


def _group(m: re.Match, lineno: int) -> FgAbGroup:
    """The group of a line matched by _GROUP_LINE or _OBJECT_LINES["group"]."""
    rows = _parse_matrix(m[3], lineno)
    try:
        return FgAbGroup(int(m[2]), IntMatrix.from_rows(rows, cols=int(m[2])))
    except ValueError as exc:  # rows not as wide as the generators
        raise ParseError(lineno, str(exc))


def _carrier(line: str, lineno: int) -> tuple[str, tuple]:
    """The element and the carrier of a `set` line."""
    m = _SET_LINE.fullmatch(line)
    if m is None:  # name the first bad label
        m = _match(*_OBJECT_LINES["set"], line, lineno)
        for tok in m[2].split():
            _token(tok, _LABEL_RE, "bad label", lineno)
    labels = tuple(m[2].split())
    if len(set(labels)) != len(labels):
        raise ParseError(lineno, "a carrier lists a label twice")
    return m[1], labels


def _bond(line: str, lineno: int) -> tuple[re.Match, dict[str, str]]:
    """The match and the bond of a `map` line of rules."""
    m = _BOND_LINE.fullmatch(line)
    if m is not None:
        pairs = _RULE.findall(m[3])
        bmap = dict(pairs)
        if len(bmap) == len(pairs):
            return m, bmap
    else:  # name the first bad rule, unless a repeated one comes before it
        m = _match(*_ARROW_LINES["set"], line, lineno)
        pairs = (_token(rule, _RULE, "bad map rule", lineno).groups()
                 for rule in m[3].split(","))
    bmap = {}
    for x, y in pairs:
        if x in bmap:
            raise ParseError(lineno, f"two rules for {x}")
        bmap[x] = y
    return m, bmap


def _parse_matrix(text: str, lineno: int, what: str = "") -> list[list[int]]:
    """The rows of a matrix literal, all of one length; what names the
    line's declaration in a ragged-rows error."""
    text = text.strip()
    if _MATRIX.fullmatch(text):
        try:
            rows = [[int(x) for x in row.split(",")] if row.strip() else []
                    for row in _MATRIX_ROW.findall(text[1:-1])]
        except ValueError:  # an integer longer than int() reads
            pass
        else:
            if any(len(row) != len(rows[0]) for row in rows):
                raise ParseError(lineno, f"{what}: ragged rows" if what else "ragged rows")
            return rows
    shown = text if len(text) <= _SHOWN else text[:_SHOWN - 3] + "..."
    raise ParseError(lineno, f"bad matrix literal {shown!r}: expected a list of "
                             "rows of decimal integers, as in [[1, -2], [0, 3]]")


def _hom(b: _Block, key, source: FgAbGroup, target: FgAbGroup, valid: bool = False) -> AbHom:
    """The arrow of b at key as a hom, checked to respect relations when
    valid; a failure is a ParseError at the arrow's line."""
    try:
        h = AbHom(source, target, IntMatrix.from_rows(b.arrows[key], cols=source.ngens))
        if valid and not hom_is_valid(h):
            raise ValueError("does not respect relations")
        return h
    except ValueError as exc:
        raise ParseError(b.lines[("arrows", key)], f"{b.what('arrows', key)}: {exc}")


def parse_document(text: str) -> Document:
    doc = Document()
    block: _Block | None = None
    named: dict[tuple[str, str], int] = {}  # (kind, name) -> line of its header
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        head = line.split(None, 1)[0]
        if head in _HEADERS:
            _close_block(block, doc)
            m = _match(*_HEADERS[head], line, lineno)
        elif head == "group" and block is None:
            m = _match(_GROUP_LINE, "group NAME gens K relations [[..]]", line, lineno)
        elif block is not None:
            _parse_block_line(block, line, lineno)
            continue
        else:
            raise ParseError(lineno, f"unexpected declaration {line!r}")
        first = named.setdefault((head, m[1]), lineno)
        if first != lineno:
            raise ParseError(lineno, f"{head} {m[1]} is already declared at line {first}")
        if head == "group":
            doc.groups[m[1]] = _group(m, lineno)
        else:
            block = _Block(head, m[1], lineno, m.groups()[1:])
    _close_block(block, doc)
    return doc


def _parse_block_line(b: _Block, line: str, lineno: int):
    word = _WORDS.get(b.kind)  # None in a poset or a sequence
    if b.kind == "poset":
        head, colon, body = line.partition(":")
        if head not in _POSET_LINES or not colon:
            raise ParseError(lineno, f"unexpected poset line {line!r}")
        listed = _POSET_LINES[head].fullmatch(body) is not None
        # a line its pattern rejects is read token by token, declaring as it
        # goes, so that a repeated key before the first bad token is named
        if head == "elements":
            table, keys = "objects", (body.split() if listed else (
                _token(tok, _LABEL_RE, "bad label", lineno)[0] for tok in body.split()))
        else:
            table, keys = "arrows", (_COVER.findall(body) if listed else (
                _token(pair, _COVER, "bad cover", lineno).groups() for pair in body.split(",")))
        for key in keys:
            b.declare(table, key, None, lineno)
    elif b.kind == "sequence":
        m = _match(_LEVEL_MAP_LINE, "map u at ELEM: matrix [[..]]", line, lineno)
        key = m[1], m[2]
        b.declare("arrows", key, _parse_matrix(m[3], lineno, b.what("arrows", key)), lineno)
    elif line.startswith(word + " "):
        if word == "set":
            elem, obj = _carrier(line, lineno)
        else:
            m = _match(*_OBJECT_LINES[word], line, lineno)
            elem, obj = m[1], _group(m, lineno)
        b.declare("objects", elem, obj, lineno)
    elif b.kind == "tower" and _CLIPDEC_LINE.fullmatch(line):
        b.declare("arrows", "all", "clipdec", lineno)
    elif line.startswith("map "):
        if word == "set":
            m, arrow = _bond(line, lineno)
        else:
            m = _match(*_ARROW_LINES[word], line, lineno)
            arrow = _parse_matrix(m[3], lineno, b.what("arrows", (m[2], m[1])))
        b.declare("arrows", (m[2], m[1]), arrow, lineno)
    else:
        raise ParseError(lineno, f"unexpected {b.kind} line {line!r}")


def _close_block(b: _Block | None, doc: Document):
    if b is None:
        return
    try:
        if b.kind == "poset":
            doc.posets[b.name] = validate_poset(b.objects, b.arrows)
            return
        if b.kind == "tower":
            if int(b.args[0]) < 1:
                raise ParseError(b.line, "horizon must be positive")
            if int(b.args[0]) > DEFAULT_HORIZON_BUDGET:
                raise ParseError(b.line, f"horizon {b.args[0]} exceeds the budget "
                                         f"of {DEFAULT_HORIZON_BUDGET}")
            base, over = tower_chain(int(b.args[0])), f"the chain 0 < ... < {b.args[0]}"
            _tower_defaults(b, base)
        else:
            base, over = doc.posets[b.args[0]], b.args[0]
        _check_tables(b, base, over)
        if b.kind == "system":
            doc.systems[b.name] = validate_system(base, b.objects, b.arrows)
        elif b.kind == "tower":
            doc.towers[b.name] = validate_system(base, b.objects, b.arrows)
        elif b.kind == "absystem":
            doc.absystems[b.name] = validate_absystem(base, b.objects, {
                (lo, hi): _hom(b, (lo, hi), b.objects[hi], b.objects[lo])
                for lo, hi in b.arrows})
        else:
            x, y, z = (doc.absystems[s] for s in b.args[1:])
            if not x.base == y.base == z.base == base:
                raise ParseError(b.line, f"systems of {b.name} are not all over {over}")
            u = {e: _hom(b, ("u", e), x.group(e), y.group(e), True) for e in base.elements}
            v = {e: _hom(b, ("v", e), y.group(e), z.group(e), True) for e in base.elements}
            doc.sequences[b.name] = SequenceDecl(base, b.args[1:], u, v)
    except KeyError as exc:
        raise ParseError(b.line, f"unknown reference {exc}")
    except (ValueError, NotFunction) as exc:  # Diagram.validate names a failing cover
        raise ParseError(b.lines.get(("arrows", getattr(exc, "cover", None)), b.line),
                         str(exc))


def _tower_defaults(b: _Block, chain: Poset):
    """Fill the levels without a `set N` line from `set all`, and the steps
    without a `map N+1 -> N` line from `map all: clipdec`, which needs
    integer carriers; a filled step is reported at the `map all` line."""
    every = b.objects.pop("all", None)
    for e in chain.elements if every is not None else ():
        b.objects.setdefault(e, every)
    if b.arrows.pop("all", None) is None:
        return
    line = b.lines[("arrows", "all")]
    for lo, hi in chain.covers:
        if (lo, hi) in b.arrows or lo not in b.objects or hi not in b.objects:
            continue
        bad = next((x for x in b.objects[lo] + b.objects[hi] if not x.isdigit()), None)
        if bad is not None:
            raise ParseError(line, f"map all: clipdec needs integer carriers, got {bad!r}")
        floor = min((int(x) for x in b.objects[lo]), default=0)
        b.arrows[(lo, hi)] = {x: str(max(int(x) - 1, floor)) for x in b.objects[hi]}
        b.lines[("arrows", (lo, hi))] = line


def _check_tables(b: _Block, base: Poset, over: str):
    """Every object on an element of the base and every arrow on a cover (a
    sequence: on an element), each at its own line; none of them missing."""
    if b.kind == "sequence":  # table -> wanted keys, in order
        wanted = {"arrows": [(t, e) for t in "uv" for e in base.elements]}
    else:
        wanted = {"objects": base.elements, "arrows": base.covers}
    for table, keys in wanted.items():
        declared, allowed = getattr(b, table), set(keys)
        noun = "cover" if table == "arrows" and b.kind != "sequence" else "element"
        for key in declared:
            if key not in allowed:
                raise ParseError(b.lines[(table, key)],
                                 f"{b.what(table, key)}: no such {noun} in {over}")
        if len(declared) < len(allowed):  # declared keys are distinct and allowed
            missing = next(key for key in keys if key not in declared)
            raise ParseError(b.line, f"{b.kind} {b.name} has no {b.what(table, missing)} line")
