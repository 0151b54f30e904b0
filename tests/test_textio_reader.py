"""The one-pattern-per-line reader against the token-by-token oracle.

`conftest.per_token_document` matches every label, rule and cover on its
own; `textio.parse_document` matches each line whole.  Seeded files, spaced
out with every kind of whitespace the format allows, must give the same
blocks in the same order, and seeded malformed lines the same error.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys

import pytest

from invsys.cli import main
from invsys.errors import InvsysError
from invsys.poset import grid_poset
from invsys.textio import parse_document

from conftest import (per_token_document, poset_to_text, random_forest_poset,
                      random_poset, random_set_system, random_surjective_set_system,
                      random_tower, system_to_text, tower_to_text)

SEPARATORS = {"->", ",", ":", "<", "{", "}"}
GAPS = ["", " ", "\t", "\u00a0", "\u3000", " \t "]  # around a separator
SPACES = [" ", "\t", "\u00a0", "\u3000", "\t\u3000 "]  # between two words
TOKEN = re.compile(r"->|[,:<{}]|[^\s,:<{}]+")


def respace(rng: random.Random, line: str) -> str:
    """line with random whitespace, none where the format forbids it: a
    `set` or `map` keyword is followed by a plain space, and `elements` and
    `covers` by their colon.  Sometimes a trailing comment."""
    toks = TOKEN.findall(line)
    out = [rng.choice(GAPS), toks[0]]
    for prev, tok in zip(toks, toks[1:]):
        if prev in ("set", "map") and len(out) == 2:
            gap = " " + rng.choice(GAPS)
        elif tok == ":" and prev in ("elements", "covers"):
            gap = ""
        elif prev in SEPARATORS or tok in SEPARATORS:
            gap = rng.choice(GAPS)
        else:
            gap = rng.choice(SPACES)
        out += [gap, tok]
    out.append(rng.choice(GAPS))
    if rng.random() < 0.2:
        out.append(rng.choice(SPACES) + "# x -> y, { z } < w")
    return "".join(out)


def seeded_file(seed: int) -> str:
    """A poset and one or two systems over it, or one or two towers: their
    text respaced line by line, with blank and comment lines between."""
    rng = random.Random(seed)
    if seed % 4 == 3:
        text = "".join(tower_to_text(name, random_tower(rng, horizon=rng.randint(1, 8)))
                       for name in "TU"[:rng.randint(1, 2)])
    else:
        base = (grid_poset(2, rng.randint(1, 3)) if seed % 4 == 2
                else random_poset(rng, 6) if seed % 4 == 1 else random_forest_poset(rng, 6))
        text = poset_to_text("P", base)
        text += system_to_text("S", "P", random_surjective_set_system(rng, base, max_top=6))
        if seed % 4 == 0:  # a forest, where any bonds commute
            text += system_to_text("R", "P", random_set_system(rng, base))
    lines = []
    for line in text.splitlines():
        lines.append(respace(rng, line))
        if rng.random() < 0.15:
            lines.append(rng.choice(["", "  ", "# a comment", "\t# set a: { !"]))
    return "\n".join(lines) + "\n"


def shape(doc) -> list:
    """Every block of doc with its order: elements, covers, carriers, bonds."""
    def diagram(s):
        return [s.base.elements, s.base.covers, list(s.carriers.items()),
                [(key, list(bond.items())) for key, bond in s.cover_bonds.items()]]
    return [[(n, p.elements, p.covers) for n, p in doc.posets.items()],
            [(n, diagram(s)) for n, s in doc.systems.items()],
            [(n, diagram(t)) for n, t in doc.towers.items()]]


def outcome(read, text: str):
    try:
        return shape(read(text))
    except InvsysError as exc:
        return type(exc).__name__, getattr(exc, "line", None), str(exc)


def test_seeded_files_read_the_same_as_token_by_token():
    read = 0
    for seed in range(320):
        text = seeded_file(seed)
        want = outcome(per_token_document, text)
        assert outcome(parse_document, text) == want, (seed, text)
        read += isinstance(want, list)
    assert read >= 300  # the files are valid, not rejected by both


def test_whitespace_of_every_kind_around_the_separators():
    text = ("poset\u3000P\nelements:a\u00a0b\tc\n"
            "covers:a<b,\u3000a\t<\u00a0c\u00a0,b<c # x\n"
            "system S\u00a0over P\n"
            "set a:{x\u00a0y}\nset b:\t{\u3000x }\nset c: {x}\n"
            "map b->a:x->x\nmap c\u3000->\u3000a\u3000:\u3000x\u3000->\u3000x\u3000\n"
            "map c -> b: x->x\t\n")
    doc = parse_document(text)
    assert shape(doc) == shape(per_token_document(text))
    assert doc.systems["S"].carriers["a"] == ("x", "y")
    assert doc.posets["P"].covers == (("a", "b"), ("a", "c"), ("b", "c"))


# line kind -> how to break one line of that kind
BREAKS = {
    "bad-label-character": ("set ", lambda rng, line: re.sub(
        r"\{\s*(\S+)", lambda m: "{ " + m[1] + rng.choice("!é$?["), line, count=1)),
    "empty-rule": ("map ", lambda rng, line: line.replace(",", ", ,", 1) if "," in line
                   else line + ", ,"),
    "trailing-comma": ("map ", lambda rng, line: line + " ,"),
    "missing-arrow": ("map ", lambda rng, line: re.sub(r"(:.*?)->", r"\1 ", line, count=1)),
    "repeated-rule": ("map ", lambda rng, line: line + ", " + line.split(":", 1)[1].split(",")[0]),
    "repeated-carrier-label": ("set ", lambda rng, line: re.sub(
        r"\{\s*(\S+)", lambda m: "{ " + m[1] + " " + m[1], line, count=1)),
    "bad-cover": ("covers:", lambda rng, line: line + rng.choice([", a << b", ", a <", ",< b",
                                                                  ", a b", ","])),
    "repeated-cover": ("covers:", lambda rng, line:
                       line + "," + line.split(":", 1)[1].split(",")[0]),
    "repeated-element": ("elements:", lambda rng, line:
                         line + " " + line.split()[-1].split(":")[-1]),
    "bad-element": ("elements:", lambda rng, line: line + " a-b"),
}


@pytest.mark.parametrize("kind", list(BREAKS))
def test_malformed_lines_give_the_token_by_token_error(kind):
    starts, breaks = BREAKS[kind]
    checked = 0
    for seed in range(60):
        rng = random.Random(seed)
        lines = seeded_file(seed).splitlines()
        where = [i for i, line in enumerate(lines) if line.lstrip().startswith(starts)
                 and (starts != "covers:" or "<" in line)]
        if not where:
            continue
        i = rng.choice(where)
        lines[i] = breaks(rng, lines[i].split("#")[0].rstrip())
        text = "\n".join(lines) + "\n"
        want = outcome(per_token_document, text)
        assert want[0] == "ParseError", (kind, lines[i])
        assert outcome(parse_document, text) == want, (kind, lines[i])
        checked += 1
    assert checked >= 10


def test_first_error_on_a_line_is_the_first_token_that_fails():
    # a repeated rule or element before a bad token is reported, as token by token
    for text, message in [
        ("poset P\nelements: a b\nsystem S over P\nset a: { x }\nset b: { y }\n"
         "map x -> y: x -> y\n", None),
        ("poset P\nelements: a b\ncovers: a < b\nsystem S over P\nset a: { x }\n"
         "set b: { y }\nmap b -> a: y -> x, y -> x, !\n", "line 7: two rules for y"),
        ("poset P\nelements: a b a !\n", "line 2: element a is already declared at line 2"),
        ("poset P\nelements: a b\ncovers: a < b, a < b, !\n",
         "line 3: cover a < b is already declared at line 3"),
        ("poset P\nelements: a b\ncovers: a < b, ! , a < b\n", "line 3: bad cover '!'"),
        ("poset P\nelements: a\ncovers:\u3000\t\n", None),  # no covers
    ]:
        want = outcome(per_token_document, text)
        assert outcome(parse_document, text) == want
        if message:
            assert want[2] == message


WEDGE = "poset W\nelements: a b c\ncovers: c < a, c < b\n"
WEDGE_SYSTEM = WEDGE + "system S over W\nset a: { x }\nset b: { x }\nset c: { x }\n"

# files with one line of 5,000 characters or more that ends in a bad character
LONG_LINES = {
    "carrier-label": WEDGE_SYSTEM + "set d: { " + "x" * 5000 + "!",
    "carrier-labels": WEDGE_SYSTEM + "set d: { " + "x " * 2500 + "}!",
    "rule": WEDGE_SYSTEM + "map a -> c: " + "x" * 5000 + "!",
    "many-rules": WEDGE_SYSTEM + "map a -> c: " + "x -> x, " * 700 + "x -> x!",
    "many-rules-unspaced": WEDGE_SYSTEM + "map a -> c: " + "x->x," * 1000 + "!",
    "matrix-row": "group G gens 1 relations [[" + "1, " * 2000 + "1]]!",
    "matrix-rows": "group G gens 1 relations [" + "[1], " * 1200 + "[1]]!",
    "header": "system " + "S" * 5000 + "!",
    "element": "poset P\nelements: " + "a" * 5000 + "!",
    "elements": "poset P\nelements: " + "a " * 2500 + "!",
    "covers": "poset P\nelements: a b\ncovers: " + "a < b, " * 800 + "a < b!",
    "cover": "poset P\nelements: a b\ncovers: " + "a" * 5000 + "!",
}

_TIMED = """\
import contextlib, io, json, sys, time
from invsys.cli import main
out = {}
for name in sys.argv[1:]:
    start = time.perf_counter()
    with contextlib.redirect_stderr(io.StringIO()):
        status = main(["--json", "validate", name + ".txt"])
    out[name] = status, time.perf_counter() - start
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def long_line_runs(tmp_path_factory) -> dict:
    """name -> (exit status, seconds) of `validate` on each LONG_LINES file,
    all timed in one child process, so that a pattern that backtracks
    without end fails the test instead of hanging it."""
    where = tmp_path_factory.mktemp("long")
    for name, text in LONG_LINES.items():
        (where / f"{name}.txt").write_text(text + "\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    try:
        child = subprocess.run([sys.executable, "-c", _TIMED, *LONG_LINES], cwd=where,
                               env=env, capture_output=True, text=True, timeout=30)
    except subprocess.TimeoutExpired:
        pytest.fail("the long bad lines were not all rejected within 30 s")
    return json.loads(child.stdout)


@pytest.mark.parametrize("name", list(LONG_LINES))
def test_long_bad_lines_are_rejected_in_linear_time(long_line_runs, name):
    long = max(LONG_LINES[name].splitlines(), key=len)
    assert len(long) >= 5000 and long.endswith("!")
    status, seconds = long_line_runs[name]
    assert status == 2
    assert seconds < 0.1


# over 64 KiB once its newlines are plain, so its digest runs over many blocks
PADDED_WEDGE = WEDGE + "# a comment line\n" * 4000


@pytest.mark.parametrize("text, newline", [(WEDGE, "\r\n"), (WEDGE, "\r"),
                                           (PADDED_WEDGE, "\r\n")],
                         ids=["crlf", "cr", "over-64-kib"])
def test_input_digest_is_that_of_the_text_with_plain_newlines(tmp_path, capsys, text,
                                                                newline):
    path = tmp_path / "wedge.txt"
    path.write_bytes(text.replace("\n", newline).encode())
    assert main(["--json", "validate", str(path)]) == 0
    digest = json.loads(capsys.readouterr().out)["inputs"][str(path)]
    assert digest == hashlib.sha256(text.encode()).hexdigest()
    if text is WEDGE:
        assert digest == "d5ddda6716ae6f0ed60d2f55fed8594f18756e277ffa448f630933afa341ebba"

