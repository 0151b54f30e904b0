"""Line-oriented text formats for posets, systems, towers, and sequences.

One declaration per line, '#' starts a comment, labels match
[A-Za-z0-9_()]+.
A file is a sequence of blocks; each block opens with a header line
(poset / system / tower / absystem / sequence / group / hom) and owns the
indented-or-not declaration lines that follow until the next header.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Optional

from .abgroups import AbHom, FgAbGroup
from .derived import AbSystem, validate_absystem
from .errors import ParseError
from .intlinalg import IntMatrix
from .poset import Poset, validate_poset
from .setsys import SetSystem, Tower, validate_system, validate_tower

LABEL = r"[A-Za-z0-9_()]+"
_LABEL_RE = re.compile(rf"^{LABEL}$")


@dataclass
class SequenceDecl:
    """Raw pieces of an exactness-experiment file."""
    base: Poset
    systems: tuple[str, str, str]
    u: dict[str, AbHom]
    v: dict[str, AbHom]


@dataclass
class Document:
    posets: dict[str, Poset] = field(default_factory=dict)
    systems: dict[str, SetSystem] = field(default_factory=dict)
    towers: dict[str, Tower] = field(default_factory=dict)
    groups: dict[str, FgAbGroup] = field(default_factory=dict)
    homs: dict[str, AbHom] = field(default_factory=dict)
    absystems: dict[str, AbSystem] = field(default_factory=dict)
    sequences: dict[str, SequenceDecl] = field(default_factory=dict)

    def sole(self, kind: str, name: Optional[str] = None):
        table = getattr(self, kind)
        if name is not None:
            if name not in table:
                raise KeyError(f"no {kind[:-1]} named {name}")
            return table[name]
        if len(table) != 1:
            raise KeyError(f"file must contain exactly one {kind[:-1]} "
                           f"(found {len(table)}); pass a name")
        return next(iter(table.values()))


def _check_label(tok: str, lineno: int) -> str:
    if not _LABEL_RE.match(tok):
        raise ParseError(lineno, f"bad label {tok!r}")
    return tok


def _parse_carrier(body: str, lineno: int) -> tuple[str, ...]:
    labels = tuple(_check_label(t, lineno) for t in body.split())
    if len(set(labels)) != len(labels):
        raise ParseError(lineno, "a carrier lists a label twice")
    return labels


def _parse_rules(body: str, lineno: int) -> dict[str, str]:
    bmap = {}
    for rule in body.split(","):
        m = re.match(rf"^\s*({LABEL})\s*->\s*({LABEL})\s*$", rule)
        if not m:
            raise ParseError(lineno, f"bad map rule {rule.strip()!r}")
        if m.group(1) in bmap:
            raise ParseError(lineno, f"two rules for {m.group(1)}")
        bmap[m.group(1)] = m.group(2)
    return bmap


def _parse_matrix(text: str, lineno: int) -> list[list[int]]:
    try:
        value = ast.literal_eval(text.strip())
    except (ValueError, SyntaxError):
        raise ParseError(lineno, f"bad matrix literal {text.strip()!r}")
    if value == []:
        return []
    if (not isinstance(value, list)
            or not all(isinstance(r, list) and all(isinstance(x, int) for x in r)
                       for r in value)):
        raise ParseError(lineno, "matrix must be a list of integer rows")
    return value


def parse_document(text: str) -> Document:
    doc = Document()
    block: Optional[dict] = None

    def close_block():
        nonlocal block
        if block is None:
            return
        kind = block["kind"]
        line = block["line"]
        name = block["name"]
        try:
            if kind == "poset":
                doc.posets[name] = validate_poset(block["elements"], block["covers"])
            elif kind == "system":
                base = doc.posets[block["over"]]
                unknown = [e for e in block["sets"] if e not in base.elements]
                if unknown:
                    raise ParseError(line, f"set for {unknown[0]}, which is not an "
                                           f"element of {block['over']}")
                doc.systems[name] = validate_system(base, block["sets"], block["maps"])
            elif kind == "tower":
                doc.towers[name] = _close_tower(block)
            elif kind == "absystem":
                base = doc.posets[block["over"]]
                groups = block["groups"]
                bonds = {}
                for (lo, hi), rows in block["maps"].items():
                    mat = IntMatrix.from_rows(rows, cols=groups[hi].ngens)
                    bonds[(lo, hi)] = AbHom(groups[hi], groups[lo], mat)
                doc.absystems[name] = validate_absystem(base, groups, bonds)
            elif kind == "sequence":
                a, b, c = (doc.absystems[s] for s in block["systems"])
                u, v = {}, {}
                ladder = {"u": (a, b, u), "v": (b, c, v)}
                for tag, elem, rows in block["levelmaps"]:
                    src, tgt, maps = ladder[tag]
                    maps[elem] = AbHom(src.group(elem), tgt.group(elem),
                                       IntMatrix.from_rows(rows, cols=src.group(elem).ngens))
                doc.sequences[name] = SequenceDecl(a.base, block["systems"], u, v)
        except KeyError as exc:
            raise ParseError(line, f"unknown reference {exc}")
        except ValueError as exc:
            raise ParseError(line, str(exc))
        block = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split()[0]
        if head == "poset":
            close_block()
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(lineno, "expected: poset NAME")
            block = {"kind": "poset", "name": _check_label(parts[1], lineno),
                     "line": lineno, "elements": [], "covers": []}
        elif head == "system":
            close_block()
            m = re.match(rf"^system\s+({LABEL})\s+over\s+({LABEL})$", line)
            if not m:
                raise ParseError(lineno, "expected: system NAME over POSET")
            block = {"kind": "system", "name": m.group(1), "over": m.group(2),
                     "line": lineno, "sets": {}, "maps": {}}
        elif head == "tower":
            close_block()
            m = re.match(rf"^tower\s+({LABEL})\s+horizon\s+(\d+)$", line)
            if not m:
                raise ParseError(lineno, "expected: tower NAME horizon H")
            block = {"kind": "tower", "name": m.group(1),
                     "horizon": int(m.group(2)), "line": lineno,
                     "sets": {}, "maps": {}, "rule": None}
        elif head == "absystem":
            close_block()
            m = re.match(rf"^absystem\s+({LABEL})\s+over\s+({LABEL})$", line)
            if not m:
                raise ParseError(lineno, "expected: absystem NAME over POSET")
            block = {"kind": "absystem", "name": m.group(1), "over": m.group(2),
                     "line": lineno, "groups": {}, "maps": {}}
        elif head == "sequence":
            close_block()
            m = re.match(rf"^sequence\s+({LABEL})\s+over\s+({LABEL})\s+systems"
                         rf"\s+({LABEL})\s+({LABEL})\s+({LABEL})$", line)
            if not m:
                raise ParseError(lineno,
                                 "expected: sequence NAME over POSET systems A B C")
            block = {"kind": "sequence", "name": m.group(1), "over": m.group(2),
                     "systems": (m.group(3), m.group(4), m.group(5)),
                     "line": lineno, "levelmaps": []}
        elif head == "group" and block is None:
            m = re.match(rf"^group\s+({LABEL})\s+gens\s+(\d+)\s+relations\s+(.*)$", line)
            if not m:
                raise ParseError(lineno, "expected: group NAME gens K relations [[..]]")
            rows = _parse_matrix(m.group(3), lineno)
            doc.groups[m.group(1)] = FgAbGroup(
                int(m.group(2)), IntMatrix.from_rows(rows, cols=int(m.group(2))))
        elif head == "hom" and block is None:
            m = re.match(rf"^hom\s+({LABEL})\s+({LABEL})\s*->\s*({LABEL})"
                         rf"\s+matrix\s+(.*)$", line)
            if not m:
                raise ParseError(lineno, "expected: hom NAME SRC -> TGT matrix [[..]]")
            try:
                src, tgt = doc.groups[m.group(2)], doc.groups[m.group(3)]
            except KeyError as exc:
                raise ParseError(lineno, f"unknown group {exc}")
            rows = _parse_matrix(m.group(4), lineno)
            doc.homs[m.group(1)] = AbHom(src, tgt,
                                         IntMatrix.from_rows(rows, cols=src.ngens))
        elif block is not None:
            _parse_block_line(block, line, lineno)
        else:
            raise ParseError(lineno, f"unexpected declaration {line!r}")
    close_block()
    return doc


def _parse_block_line(block: dict, line: str, lineno: int):
    kind = block["kind"]
    if kind == "poset":
        if line.startswith("elements:"):
            for tok in line[len("elements:"):].split():
                block["elements"].append(_check_label(tok, lineno))
        elif line.startswith("covers:"):
            body = line[len("covers:"):].strip()
            if body:
                for pair in body.split(","):
                    m = re.match(rf"^\s*({LABEL})\s*<\s*({LABEL})\s*$", pair)
                    if not m:
                        raise ParseError(lineno, f"bad cover {pair.strip()!r}")
                    block["covers"].append((m.group(1), m.group(2)))
        else:
            raise ParseError(lineno, f"unexpected poset line {line!r}")
    elif kind == "system":
        if line.startswith("set "):
            m = re.match(rf"^set\s+({LABEL})\s*:\s*\{{(.*)\}}$", line)
            if not m:
                raise ParseError(lineno, "expected: set ELEM: { x y z }")
            block["sets"][m.group(1)] = _parse_carrier(m.group(2), lineno)
        elif line.startswith("map "):
            m = re.match(rf"^map\s+({LABEL})\s*->\s*({LABEL})\s*:\s*(.*)$", line)
            if not m:
                raise ParseError(lineno, "expected: map UPPER -> LOWER: x -> y, ...")
            block["maps"][(m.group(2), m.group(1))] = _parse_rules(m.group(3), lineno)
        else:
            raise ParseError(lineno, f"unexpected system line {line!r}")
    elif kind == "tower":
        if line.startswith("set "):
            m = re.match(rf"^set\s+(all|\d+)\s*:\s*\{{(.*)\}}$", line)
            if not m:
                raise ParseError(lineno, "expected: set N: { ... } or set all: { ... }")
            block["sets"][m.group(1)] = _parse_carrier(m.group(2), lineno)
        elif line.startswith("map "):
            m = re.match(r"^map\s+all\s*:\s*clipdec$", line)
            if m:
                block["rule"] = "clipdec"
                return
            m = re.match(rf"^map\s+(\d+)\s*->\s*(\d+)\s*:\s*(.*)$", line)
            if not m:
                raise ParseError(lineno,
                                 "expected: map N+1 -> N: x -> y, ... or map all: clipdec")
            hi, lo = int(m.group(1)), int(m.group(2))
            if hi != lo + 1:
                raise ParseError(lineno, "tower maps go from n+1 to n")
            block["maps"][lo] = _parse_rules(m.group(3), lineno)
        else:
            raise ParseError(lineno, f"unexpected tower line {line!r}")
    elif kind == "absystem":
        if line.startswith("group "):
            m = re.match(rf"^group\s+({LABEL})\s*:\s*gens\s+(\d+)\s+relations\s+(.*)$",
                         line)
            if not m:
                raise ParseError(lineno, "expected: group ELEM: gens K relations [[..]]")
            rows = _parse_matrix(m.group(3), lineno)
            block["groups"][m.group(1)] = FgAbGroup(
                int(m.group(2)), IntMatrix.from_rows(rows, cols=int(m.group(2))))
        elif line.startswith("map "):
            m = re.match(rf"^map\s+({LABEL})\s*->\s*({LABEL})\s*:\s*matrix\s+(.*)$",
                         line)
            if not m:
                raise ParseError(lineno, "expected: map UPPER -> LOWER: matrix [[..]]")
            block["maps"][(m.group(2), m.group(1))] = _parse_matrix(m.group(3), lineno)
        else:
            raise ParseError(lineno, f"unexpected absystem line {line!r}")
    elif kind == "sequence":
        m = re.match(rf"^map\s+(u|v)\s+at\s+({LABEL})\s*:\s*matrix\s+(.*)$", line)
        if not m:
            raise ParseError(lineno, "expected: map u at ELEM: matrix [[..]]")
        block["levelmaps"].append((m.group(1), m.group(2),
                                   _parse_matrix(m.group(3), lineno)))


def _close_tower(block: dict) -> Tower:
    h = block["horizon"]
    carriers = []
    for n in range(h + 1):
        key = str(n) if str(n) in block["sets"] else "all"
        if key not in block["sets"]:
            raise ParseError(block["line"], f"tower level {n} has no carrier")
        carriers.append(block["sets"][key])
    steps = []
    for n in range(h):
        if block["rule"] == "clipdec" and n not in block["maps"]:
            floor = min(int(x) for x in carriers[n])
            step = {}
            for x in carriers[n + 1]:
                step[x] = str(max(int(x) - 1, floor))
            steps.append(step)
        elif n in block["maps"]:
            steps.append(block["maps"][n])
        else:
            raise ParseError(block["line"], f"tower step {n + 1} -> {n} missing")
    return validate_tower(h, carriers, steps)


# -- serialization --------------------------------------------------------


def poset_to_text(name: str, p: Poset) -> str:
    lines = [f"poset {name}", "elements: " + " ".join(p.elements)]
    if p.covers:
        lines.append("covers: " + ", ".join(f"{a} < {b}" for a, b in p.covers))
    return "\n".join(lines) + "\n"


def system_to_text(name: str, over: str, s: SetSystem) -> str:
    lines = [f"system {name} over {over}"]
    for e in s.base.elements:
        lines.append(f"set {e}: {{ " + " ".join(str(x) for x in s.carriers[e]) + " }")
    for (lo, hi) in s.base.covers:
        rules = ", ".join(f"{x} -> {y}" for x, y in s.cover_bonds[(lo, hi)].items())
        lines.append(f"map {hi} -> {lo}: {rules}")
    return "\n".join(lines) + "\n"


def tower_to_text(name: str, t: Tower) -> str:
    lines = [f"tower {name} horizon {t.horizon}"]
    for n in range(t.horizon + 1):
        lines.append(f"set {n}: {{ " + " ".join(str(x) for x in t.carriers[n]) + " }")
    for n in range(t.horizon):
        rules = ", ".join(f"{x} -> {y}" for x, y in t.steps[n].items())
        lines.append(f"map {n + 1} -> {n}: {rules}")
    return "\n".join(lines) + "\n"


def sequence_to_text(name: str, over: str, systems: tuple[str, str, str],
                     u: dict[str, AbHom], v: dict[str, AbHom]) -> str:
    lines = [f"sequence {name} over {over} systems " + " ".join(systems)]
    for tag, table in (("u", u), ("v", v)):
        for e, h in table.items():
            mat = [list(r) for r in h.matrix.entries]
            lines.append(f"map {tag} at {e}: matrix {mat}")
    return "\n".join(lines) + "\n"


def absystem_to_text(name: str, over: str, s: AbSystem) -> str:
    lines = [f"absystem {name} over {over}"]
    for e in s.base.elements:
        g = s.group(e)
        rel = [list(r) for r in g.relations.entries]
        lines.append(f"group {e}: gens {g.ngens} relations {rel}")
    for (lo, hi) in s.base.covers:
        mat = [list(r) for r in s.cover_bonds[(lo, hi)].matrix.entries]
        lines.append(f"map {hi} -> {lo}: matrix {mat}")
    return "\n".join(lines) + "\n"
