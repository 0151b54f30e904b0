from __future__ import annotations

import json
import os
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from invsys.cli import COMMANDS, main, parse_args
from invsys.errors import ParseError
from invsys.generators import (random_exact_sequence, random_poset,
                               random_surjective_absystem,
                               random_surjective_set_system, random_tower)
from invsys.poset import Poset, chain_poset, wedge_poset
from invsys.textio import (DEFAULT_HORIZON_BUDGET, absystem_to_text, parse_document,
                           poset_to_text, sequence_to_text, system_to_text,
                           tower_to_text)

from conftest import sphere_model

WEDGE_TXT = """\
poset W
elements: a b c
covers: c < a, c < b
"""


def test_parse_poset():
    doc = parse_document(WEDGE_TXT)
    p = doc.sole("posets", "W")
    assert p.elements == ("a", "b", "c")
    assert p.leq("c", "a") and not p.leq("a", "b")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_document("poset P\nelements: a b\ncovers: a << b\n")
    assert exc.value.line == 3
    with pytest.raises(ParseError):
        parse_document("garbage header\n")
    with pytest.raises(ParseError):
        parse_document("poset P\nelements: a a\n")


def test_comments_and_blank_lines_are_ignored():
    doc = parse_document("# comment\n\nposet P\nelements: x\n# more\n")
    assert doc.sole("posets").elements == ("x",)


def test_clipdec_builtin_rule():
    txt = ("tower T horizon 3\n"
           "set all: { 0 1 2 }\n"
           "map all: clipdec\n")
    t = parse_document(txt).sole("towers", "T")
    # carriers are opaque labels, so the built-in rule works on strings
    assert t.cover_bonds[("0", "1")] == {"0": "0", "1": "0", "2": "1"}
    assert t.carriers["3"] == ("0", "1", "2")


def test_roundtrip_poset_system_tower_absystem():
    rng = random.Random(50)
    for _ in range(10):
        p = random_poset(rng, max_elements=5, ensure_maximum=True)
        s = random_surjective_set_system(rng, p)
        t1 = poset_to_text("P", p) + "\n" + system_to_text("S", "P", s)
        d = parse_document(t1)
        t2 = (poset_to_text("P", d.sole("posets", "P")) + "\n"
              + system_to_text("S", "P", d.sole("systems", "S")))
        assert t1 == t2

        tw = random_tower(rng)
        tt = tower_to_text("T", tw)
        assert tower_to_text("T", parse_document(tt).sole("towers", "T")) == tt

        ab = random_surjective_absystem(rng, p)
        at = poset_to_text("P", p) + "\n" + absystem_to_text("A", "P", ab)
        back = parse_document(at)
        at2 = (poset_to_text("P", back.sole("posets", "P")) + "\n"
               + absystem_to_text("A", "P", back.sole("absystems", "A")))
        assert at == at2


def test_roundtrip_sequence():
    rng = random.Random(51)
    p = random_poset(rng, max_elements=4, ensure_maximum=True)
    a, b, c, u, v = random_exact_sequence(rng, p)
    txt = (poset_to_text("P", p) + "\n"
           + absystem_to_text("A", "P", a) + "\n"
           + absystem_to_text("B", "P", b) + "\n"
           + absystem_to_text("C", "P", c) + "\n"
           + sequence_to_text("Q", "P", ("A", "B", "C"), u, v))
    doc = parse_document(txt)
    sd = doc.sole("sequences", "Q")
    assert sequence_to_text("Q", "P", sd.systems, sd.u, sd.v) == \
        sequence_to_text("Q", "P", ("A", "B", "C"), u, v)


# -- command line ----------------------------------------------------------


@pytest.fixture
def files(tmp_path):
    rng = random.Random(52)
    p = random_poset(rng, max_elements=4, ensure_maximum=True)
    s = random_surjective_set_system(rng, p)
    sysfile = tmp_path / "s.system"
    sysfile.write_text(poset_to_text("P", p) + "\n" + system_to_text("S", "P", s))
    wedgefile = tmp_path / "w.poset"
    wedgefile.write_text(poset_to_text("W", wedge_poset()))
    towfile = tmp_path / "t.tower"
    towfile.write_text("tower T horizon 6\nset all: { 0 1 2 }\nmap all: clipdec\n")
    return {"system": str(sysfile), "wedge": str(wedgefile), "tower": str(towfile),
            "tmp": tmp_path}


def test_cli_validate_and_limit(files, capsys):
    assert main(["validate", files["system"]]) == 0
    assert main(["limit", "--system", "S", files["system"]]) == 0
    out = capsys.readouterr().out
    assert "threads:" in out


def test_cli_limit_reports_thread_count(tmp_path, capsys):
    p = wedge_poset()
    txt = (poset_to_text("W", p) + "\n"
           "system S over W\n"
           "set a: { 0 1 }\nset b: { 0 1 }\nset c: { 0 1 }\n"
           "map a -> c: 0 -> 0, 1 -> 1\n"
           "map b -> c: 0 -> 0, 1 -> 1\n")
    fp = tmp_path / "const.system"
    fp.write_text(txt)
    assert main(["limit", str(fp)]) == 0
    assert "threads: 2" in capsys.readouterr().out


def test_cli_limit_counts_a_wide_star_without_listing(tmp_path, capsys):
    # one bottom {0, 1} under 20 tops {0..3}, bonds x -> x mod 2: 2^21
    # threads, more than the default budget, counted in a few hundred entries
    tops = [f"t{i}" for i in range(20)]
    fp = tmp_path / "star.system"
    fp.write_text("poset P\nelements: b " + " ".join(tops) + "\n"
                  "covers: " + ", ".join(f"b < {t}" for t in tops) + "\n\n"
                  "system S over P\nset b: { 0 1 }\n"
                  + "".join(f"set {t}: {{ 0 1 2 3 }}\n" for t in tops)
                  + "".join(f"map {t} -> b: 0 -> 0, 1 -> 1, 2 -> 0, 3 -> 1\n" for t in tops))
    assert main(["--json", "limit", str(fp)]) == 0
    out = capsys.readouterr().out
    assert '"threads":2097152' in out
    assert "thread_list" not in json.loads(out)["data"]


def test_cli_exit_codes(files, capsys):
    assert main(["surjective", files["system"]]) == 0
    assert main(["ml", "--tower", "T", files["tower"]]) == 1  # not ML-stable
    assert main(["validate", str(files["tmp"] / "missing.poset")]) == 2
    bad = files["tmp"] / "bad.poset"
    bad.write_text("poset P\nelements a b\n")
    assert main(["validate", str(bad)]) == 2


def test_cli_ml_horizon_flag(files, capsys):
    assert main(["ml", "--tower", "T", "--horizon", "4", files["tower"]]) == 1
    out = capsys.readouterr().out
    assert "horizon: 4" in out


def test_cli_scd_and_derived(files, tmp_path, capsys):
    assert main(["--seed", "3", "scd", "--poset", "W", "--trials", "3",
                 files["wedge"]]) == 0
    out = capsys.readouterr().out
    assert "scd_lower_bound: 1" in out
    # witness absystem over the wedge: free rank 1 in degree one
    txt = (poset_to_text("W", wedge_poset()) + "\n"
           "absystem A over W\n"
           "group a: gens 0 relations []\n"
           "group b: gens 0 relations []\n"
           "group c: gens 1 relations []\n"
           "map a -> c: matrix [[]]\n"
           "map b -> c: matrix [[]]\n")
    fp = tmp_path / "witness.absystem"
    fp.write_text(txt)
    assert main(["derived", "--n", "1", str(fp)]) == 0
    assert "free rank 1" in capsys.readouterr().out


def test_cli_json_deterministic(files, capsys):
    args = ["--json", "--seed", "9", "ml", "--tower", "T", files["tower"]]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["command"] == "ml"
    assert "elapsed" not in payload


README_TOWER = """\
tower T horizon 6
set all: { 0 1 2 }         # every level without its own `set N:` line
set 6: { 0 1 2 3 }         # level N, 0 <= N <= 6
map all: clipdec           # built-in clipped decrement for every step without
map 6 -> 5: 0 -> 0, 1 -> 0, 2 -> 1, 3 -> 2   # its own `map N+1 -> N:` line
"""
_README_TOWER_INPUTS = ('"inputs":{"readme.tower":'
                        '"f26c6b12c5340d81afe6f083db14f16350764eeb07979240faadce11ff1246d6"}')


def _ml_level(index, sizes, stab, verdict="stable", sensitive=False):
    return ('{"horizon_sensitive":%s,"image_sizes":[%s],"index":%d,"stabilized_at":%d,'
            '"verdict":"%s"}' % (str(sensitive).lower(), ",".join(map(str, sizes)),
                                 index, stab, verdict))


@pytest.mark.parametrize("argv, status, stdout", [
    (["validate"], 0,
     '{"command":"validate","data":{"absystems":[],"groups":[],"posets":[],"sequences":[],'
     '"systems":[],"towers":["T"]},' + _README_TOWER_INPUTS
     + ',"seed":0,"verdicts":{"valid":true}}'),
    (["surjective"], 1,
     '{"command":"surjective","data":{"first_failing_pair":["0","1"]},'
     + _README_TOWER_INPUTS + ',"seed":0,"verdicts":{"surjective":false}}'),
    (["ml"], 0,
     '{"command":"ml","data":{"horizon":6,"levels":['
     + ",".join([_ml_level(0, [3, 2, 1, 1, 1, 1, 1], 2), _ml_level(1, [3, 2, 1, 1, 1, 1], 3),
                 _ml_level(2, [3, 2, 1, 1, 1], 4), _ml_level(3, [3, 2, 1, 1], 5),
                 _ml_level(4, [3, 2, 2], 5), _ml_level(5, [3, 3], 5),
                 _ml_level(6, [4], 6, sensitive=True)])
     + "]}," + _README_TOWER_INPUTS + ',"seed":0,"verdicts":{"stable_everywhere":true}}'),
    (["ml", "--horizon", "4"], 1,
     '{"command":"ml","data":{"horizon":4,"levels":['
     + ",".join([_ml_level(0, [3, 2, 1, 1, 1], 2), _ml_level(1, [3, 2, 1, 1], 3),
                 _ml_level(2, [3, 2, 1], 4, "unstable_at_horizon", True),
                 _ml_level(3, [3, 2], 4, "unstable_at_horizon", True),
                 _ml_level(4, [3], 4, sensitive=True)])
     + "]}," + _README_TOWER_INPUTS + ',"seed":0,"verdicts":{"stable_everywhere":false}}'),
    (["images"], 0,
     '{"command":"images","data":{"carrier_sizes":[1,1,1,1,2,3,4],"pairs_checked":21},'
     + _README_TOWER_INPUTS + ',"seed":0,"verdicts":{"restricted_bonds_surjective":true}}'),
], ids=["validate", "surjective", "ml", "ml-horizon-4", "images"])
def test_cli_json_on_the_readme_tower_is_pinned(tmp_path, monkeypatch, capsys,
                                                argv, status, stdout):
    # the exact --json output of the tower commands on the README example
    (tmp_path / "readme.tower").write_text(README_TOWER)
    monkeypatch.chdir(tmp_path)
    assert main(["--json", *argv, "readme.tower"]) == status
    assert capsys.readouterr() == (stdout + "\n", "")


def test_cli_henkin_and_bergman(files, capsys):
    assert main(["henkin", "enumerate", "--poset", files["wedge"],
                 "--level", "c", "--maxlen", "4"]) == 0
    assert "c,a" in capsys.readouterr().out
    assert main(["henkin", "eps", "--poset", files["wedge"], "--alpha", "c",
                 "--beta", "a", "--tuple", "a,a"]) == 0
    assert "c,a" in capsys.readouterr().out
    assert main(["bergman", "demo", "--n", "4"]) == 0
    assert "all_checks_pass: True" in capsys.readouterr().out


def test_cli_exactness(tmp_path, capsys):
    rng = random.Random(53)
    p = random_poset(rng, max_elements=3, ensure_maximum=True)
    a, b, c, u, v = random_exact_sequence(rng, p)
    txt = (poset_to_text("P", p) + "\n"
           + absystem_to_text("A", "P", a) + "\n"
           + absystem_to_text("B", "P", b) + "\n"
           + absystem_to_text("C", "P", c) + "\n"
           + sequence_to_text("Q", "P", ("A", "B", "C"), u, v))
    fp = tmp_path / "seq.sequence"
    fp.write_text(txt)
    assert main(["exactness", str(fp)]) == 0
    assert "ok: True" in capsys.readouterr().out


def test_cli_exactness_over_an_empty_base(tmp_path, capsys):
    fp = tmp_path / "empty.sequence"
    fp.write_text("poset E\nelements:\nabsystem A over E\n"
                  "sequence Q over E systems A A A\n")
    assert main(["--json", "exactness", str(fp)]) == 0
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert err == "" and all(report["verdicts"].values())
    assert set(report["data"].values()) == {"free rank 0, torsion []"}
    for n in (0, 1, 3):
        assert main(["--json", "derived", "--n", str(n), str(fp)]) == 0
        data = json.loads(capsys.readouterr().out)["data"]
        assert data == {f"lim^{n} invariants": "free rank 0, torsion []"}
    assert main(["--json", "scd", str(fp)]) == 0
    assert json.loads(capsys.readouterr().out)["data"] == {"scd_lower_bound": 0,
                                                            "trials": 20}


def test_cli_exactness_finds_each_cofinal_core_once(tmp_path, capsys, monkeypatch):
    # the three systems of a sequence share one base, so one core per file
    from functools import cached_property

    calls = []

    def counting(p, _core=Poset.__dict__["_core"].func):
        calls.append(p)
        return _core(p)

    core = cached_property(counting)
    core.__set_name__(Poset, "_core")
    monkeypatch.setattr(Poset, "_core", core)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads
    commands = [(case, c) for case in workloads.build("exactness", 1) for c in case.commands]
    monkeypatch.chdir(tmp_path)
    for case, command in commands:
        for name, text in case.files.items():
            (tmp_path / name).write_text(text)
        assert main(["--json", *command.argv]) == 0
    capsys.readouterr()
    assert len(commands) == len(calls) == 7


TORSION_SEQUENCE = """\
poset W
elements: a b c
covers: c < a, c < b
absystem A over W
group a: gens 2 relations [[-2, 2], [-4, 4]]
group b: gens 2 relations [[0, -2]]
group c: gens 2 relations [[0, 2], [-2, 4], [-4, 8], [-8, 16]]
map a -> c: matrix [[0, -1], [1, 3]]
map b -> c: matrix [[-1, 0], [2, -1]]
absystem B over W
group a: gens 4 relations [[-2, 2, 0, 0], [-4, 4, 0, 0], [0, 0, -6, 4], [0, 0, -2, 2]]
group b: gens 4 relations [[0, -2, 0, 0], [0, 0, 2, 2], [0, 0, 8, 8]]
group c: gens 4 relations [[0, 2, 0, 0], [-2, 4, 0, 0], [-4, 8, 0, 0], [-8, 16, 0, 0], \
[0, 0, 2, 4], [0, 0, 8, 16], [0, 0, -2, -2], [0, 0, -8, -8]]
map a -> c: matrix [[0, -1, -4, -5], [1, 3, -2, -3], [0, 0, -3, -4], [0, 0, -4, -5]]
map b -> c: matrix [[-1, 0, 3, -2], [2, -1, 1, 2], [0, 0, 2, -1], [0, 0, 3, -1]]
absystem C over W
group a: gens 2 relations [[-6, 4], [-2, 2]]
group b: gens 2 relations [[2, 2], [8, 8]]
group c: gens 2 relations [[2, 4], [8, 16], [-2, -2], [-8, -8]]
map a -> c: matrix [[-3, -4], [-4, -5]]
map b -> c: matrix [[2, -1], [3, -1]]
sequence Q over W systems A B C
map u at a: matrix [[1, 0], [0, 1], [0, 0], [0, 0]]
map u at b: matrix [[1, 0], [0, 1], [0, 0], [0, 0]]
map u at c: matrix [[1, 0], [0, 1], [0, 0], [0, 0]]
map v at a: matrix [[0, 0, 1, 0], [0, 0, 0, 1]]
map v at b: matrix [[0, 0, 1, 0], [0, 0, 0, 1]]
map v at c: matrix [[0, 0, 1, 0], [0, 0, 0, 1]]
"""


def test_cli_exactness_checks_each_level_map_once(tmp_path, capsys, monkeypatch):
    # the reader and limit_exactness_check both ask whether each level map
    # respects relations; the second asking is a cache hit and does no
    # membership work.  Every membership test and every solve is one forward
    # substitution against a cached echelon form, so those are counted.
    from invsys.abgroups import hom_is_valid
    from invsys.intlinalg import Echelon
    calls = []

    def counting(ech, b, _substitute=Echelon.substitute):
        calls.append(ech)
        return _substitute(ech, b)

    monkeypatch.setattr(Echelon, "substitute", counting)
    hom_is_valid.cache_clear()
    fp = tmp_path / "wedge.sequence"
    fp.write_text(TORSION_SEQUENCE)
    assert main(["exactness", str(fp)]) == 0
    assert "ok: True" in capsys.readouterr().out
    # a second check of the 12 level maps would add one substitution per
    # source relator: 7 for the u maps and 15 for the v maps
    assert len(calls) == 201
    seq = parse_document(TORSION_SEQUENCE).sequences["Q"]
    maps = [*seq.u.values(), *seq.v.values()]
    assert sum(h.source.relations.rows for h in maps) == 22
    before = hom_is_valid.cache_info()
    del calls[:]
    assert all(hom_is_valid(h) for h in maps) and not calls
    assert hom_is_valid.cache_info().hits == before.hits + len(maps)


def test_cli_exactness_builds_the_core_subposet_once(tmp_path, capsys, monkeypatch):
    # the three systems of a sequence share one base, and so one cofinal core:
    # a chain shrinks to its top element, and that subposet is induced once
    induced = []
    original = Poset.induced

    def counting(self, keep):
        induced.append(tuple(keep))
        return original(self, keep)

    monkeypatch.setattr(Poset, "induced", counting)
    p = chain_poset(3)
    a, b, c, u, v = random_exact_sequence(random.Random(19), p)
    fp = tmp_path / "chain.sequence"
    fp.write_text(poset_to_text("P", p) + "\n"
                  + absystem_to_text("A", "P", a) + "\n"
                  + absystem_to_text("B", "P", b) + "\n"
                  + absystem_to_text("C", "P", c) + "\n"
                  + sequence_to_text("Q", "P", ("A", "B", "C"), u, v))
    assert main(["exactness", str(fp)]) == 0
    assert "ok: True" in capsys.readouterr().out
    assert induced == [("3",)]


def _rejected(argv, capsys) -> str:
    """Run argv, expect exit 2, and return its one-line error."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    return captured.err


@pytest.mark.parametrize("header", ["poset P extra", "poset"])
def test_cli_rejects_poset_header_without_one_name(tmp_path, capsys, header):
    fp = tmp_path / "bad.poset"
    fp.write_text(f"{header}\nelements: a\n")
    assert "expected: poset NAME" in _rejected(["validate", str(fp)], capsys)
    with pytest.raises(ParseError) as exc:
        parse_document(f"{header}\nelements: a\n")
    assert exc.value.line == 1


@pytest.mark.parametrize("horizon", [DEFAULT_HORIZON_BUDGET + 1, 10 ** 8])
def test_cli_rejects_a_tower_horizon_over_budget_before_building_it(tmp_path, capsys, horizon):
    fp = tmp_path / "deep.tower"
    fp.write_text(f"# one level per line would be too many\ntower T horizon {horizon}\n"
                  "set all: { 0 1 2 }\nmap all: clipdec\n")
    start = time.monotonic()
    assert _rejected(["validate", str(fp)], capsys) == \
        f"error: line 2: horizon {horizon} exceeds the budget of {DEFAULT_HORIZON_BUDGET}\n"
    assert time.monotonic() - start < 2


@pytest.mark.parametrize("command", ["ml", "images"])
def test_cli_rejects_horizon_below_one(files, capsys, command):
    assert "--horizon" in _rejected([command, "--horizon", "0", files["tower"]], capsys)


def test_cli_rejects_a_horizon_above_the_towers(files, capsys):
    assert _rejected(["ml", "--horizon", "30", files["tower"]], capsys) == \
        "error: BadOption: --horizon 30 exceeds the tower's horizon 6\n"
    assert main(["ml", "--horizon", "6", files["tower"]]) == 1  # its own horizon is fine
    assert "horizon: 6" in capsys.readouterr().out


def test_cli_rejects_a_horizon_on_the_images_of_a_system(files, capsys):
    assert _rejected(["images", "--system", "S", "--horizon", "3", files["system"]],
                     capsys) == "error: BadOption: --horizon applies to a tower, not to a system\n"


def test_cli_images_of_a_named_system_on_a_file_of_towers(files, capsys):
    # a name is looked up among the systems, as `surjective` looks it up,
    # not ignored in favour of the file's one tower
    assert _rejected(["images", "--system", "NOPE", files["tower"]],
                     capsys) == "error: BadOption: no system named NOPE\n"
    assert _rejected(["images", "--system", "S", "--tower", "T", files["system"]],
                     capsys) == "error: BadOption: give --system or --tower, not both\n"
    assert main(["images", files["tower"]]) == 0


# two systems over a forest, without a tower; in S the restricted bond
# j -> c of the universal images is not onto
TWO_SYSTEMS_TXT = """\
poset F
elements: i c j a b d
covers: i < c, c < j, j < a, j < b, c < d
system S over F
set i: { 0 1 2 }
set c: { 0 1 2 }
set j: { 0 1 2 }
set a: { p q }
set b: { r s }
set d: { t u }
map c -> i: 0 -> 0, 1 -> 1, 2 -> 2
map j -> c: 0 -> 0, 1 -> 1, 2 -> 0
map a -> j: p -> 0, q -> 1
map b -> j: r -> 1, s -> 2
map d -> c: t -> 0, u -> 1
system R over F
set i: { 0 }
set c: { 0 }
set j: { 0 }
set a: { 0 }
set b: { 0 }
set d: { 0 }
map c -> i: 0 -> 0
map j -> c: 0 -> 0
map a -> j: 0 -> 0
map b -> j: 0 -> 0
map d -> c: 0 -> 0
"""


@pytest.fixture
def two_systems(tmp_path):
    fp = tmp_path / "two.system"
    fp.write_text(TWO_SYSTEMS_TXT)
    return str(fp)


def test_cli_surjective_looks_names_up_among_systems_and_towers(files, two_systems, capsys):
    # one lookup over both tables, so each error names both kinds
    for argv in (["surjective", "--system", "NOPE", two_systems],
                 ["surjective", "--system", "NOPE", files["tower"]]):
        assert _rejected(argv, capsys) == "error: BadOption: no system or tower named NOPE\n"
    assert _rejected(["surjective", two_systems], capsys) == (
        "error: BadOption: file must contain exactly one system or tower (found 2); "
        "pass a name\n")
    assert main(["surjective", "--system", "R", two_systems]) == 0
    assert main(["surjective", "--system", "T", files["tower"]]) == 1
    assert main(["surjective", files["tower"]]) == 1


def test_cli_images_on_a_forest_with_a_non_onto_restricted_bond(two_systems, capsys):
    # the verdict is the cover check of the restricted system; pairs_checked
    # counts the comparable pairs, which that check decides
    assert main(["--json", "images", "--system", "S", two_systems]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["data"] == {"carrier_sizes": {"a": 1, "b": 1, "c": 2, "d": 2, "i": 2, "j": 1},
                               "pairs_checked": 11}
    assert payload["verdicts"] == {"restricted_bonds_surjective": False}


def test_cli_json_output_is_the_same_under_every_hash_seed(two_systems, tmp_path):
    # stdout, stderr and exit status of each command, one process per hash
    # seed; sets and dicts iterate in a seed-dependent order
    cyclic = tmp_path / "cyclic.poset"
    cyclic.write_text("poset C\nelements: x y z w\ncovers: x < y, y < z, z < w, w < x\n")
    commands = [["validate", str(cyclic)],
                ["images", "--system", "S", two_systems],
                ["limit", "--system", "S", two_systems],
                ["surjective", "--system", "NOPE", two_systems],
                ["surjective", two_systems]]
    code = ("import contextlib, io, json, sys; from invsys.cli import main\n"
            "runs = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    out, err = io.StringIO(), io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            "        status = main(['--json', *argv])\n"
            "    runs.append([status, out.getvalue(), err.getvalue()])\n"
            "print(json.dumps(runs))\n")
    outputs = []
    for seed in range(4):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), PYTHONHASHSEED=str(seed))
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(commands)], env=env,
                              capture_output=True, text=True, check=True)
        outputs.append(json.loads(proc.stdout))
    assert all(runs == outputs[0] for runs in outputs[1:])
    cycle, images, limit, *lookups = outputs[0]
    assert cycle == [2, "", "error: CycleDetected: x and y lie on a cycle\n"]
    assert images[0] == 1 and limit[0] == 0
    assert [status for status, _, _ in lookups] == [2, 2]


def test_cli_rejects_unknown_henkin_level(files, capsys):
    err = _rejected(["henkin", "enumerate", "--poset", files["wedge"],
                     "--level", "zzz"], capsys)
    assert "zzz" in err


def test_cli_images_on_wedge_with_disjoint_images(tmp_path, capsys):
    fp = tmp_path / "wedge.system"
    fp.write_text(WEDGE_TXT + "\nsystem S over W\n"
                  "set a: { a0 }\nset b: { b0 }\nset c: { c0 c1 }\n"
                  "map a -> c: a0 -> c0\nmap b -> c: b0 -> c1\n")
    assert main(["--json", "images", str(fp)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["data"]["carrier_sizes"] == {"a": 0, "b": 0, "c": 0}
    assert payload["verdicts"]["restricted_bonds_surjective"] is True


@pytest.mark.parametrize("option, argv", [
    ("--trials", ["scd", "--trials", "-1", "{wedge}"]),
    ("--maxlen", ["henkin", "enumerate", "--poset", "{wedge}", "--level", "c",
                  "--maxlen", "-1"]),
    ("--n", ["bergman", "demo", "--n", "2"]),
], ids=["scd-trials", "henkin-maxlen", "bergman-n"])
def test_cli_rejects_counts_out_of_range(files, capsys, option, argv):
    err = _rejected([a.format(wedge=files["wedge"]) for a in argv], capsys)
    assert f"BadOption: {option} must be at least" in err


WEDGE_SYSTEM = WEDGE_TXT + """
system S over W
set a: { x }
set b: { y }
set c: { z w }
map a -> c: x -> z
map b -> c: y -> z
"""


@pytest.mark.parametrize("old, new, message", [
    ("set a: { x }", "set a: { x x }", "twice"),
    ("set b: { y }", "set b: { y }\nset zz: { q }", "zz"),
    ("map a -> c: x -> z", "map a -> c: x -> z, x -> w", "two rules for x"),
], ids=["duplicate-label", "undeclared-element", "duplicate-rule"])
def test_cli_rejects_malformed_system(tmp_path, capsys, old, new, message):
    assert WEDGE_SYSTEM.count(old) == 1
    fp = tmp_path / "bad.system"
    fp.write_text(WEDGE_SYSTEM.replace(old, new))
    assert message in _rejected(["limit", str(fp)], capsys)
    with pytest.raises(ParseError):
        parse_document(WEDGE_SYSTEM.replace(old, new))


def test_cli_rejects_non_utf8_file(tmp_path, capsys):
    fp = tmp_path / "latin1.poset"
    fp.write_bytes(WEDGE_TXT.encode() + "# café\n".encode("latin-1"))
    assert "line 4: not UTF-8 text" in _rejected(["validate", str(fp)], capsys)


def test_cli_rejects_directory(tmp_path, capsys):
    assert "directory" in _rejected(["validate", str(tmp_path)], capsys)


WEDGE_ABSYSTEM = WEDGE_TXT + """
absystem A over W
group a: gens 0 relations []
group b: gens 0 relations []
group c: gens 1 relations []
map a -> c: matrix [[]]
map b -> c: matrix [[]]
"""

CLIPDEC_TOWER = """\
tower T horizon 2
set all: { 0 1 }
map all: clipdec
"""

WEDGE_SEQUENCE = WEDGE_ABSYSTEM + """
sequence Q over W systems A A A
map u at a: matrix []
map v at a: matrix []
map u at b: matrix []
map v at b: matrix []
map u at c: matrix [[1]]
map v at c: matrix [[1]]
"""


@pytest.mark.parametrize("text, old, new, message", [
    (WEDGE_SYSTEM, "set b: { y }", "set b: { y }\nset a: { x }",
     "line 8: set a is already declared at line 6"),
    (WEDGE_SYSTEM, "map b -> c: y -> z", "map b -> c: y -> z\nmap a -> c: x -> w",
     "line 11: map a -> c is already declared at line 9"),
    (WEDGE_SYSTEM, "map a -> c: x -> z", "map a -> b: x -> y",
     "line 9: map a -> b: no such cover in W"),
    (WEDGE_SYSTEM, "set c: { z w }\n", "", "line 5: system S has no set c line"),
    (CLIPDEC_TOWER, "set all: { 0 1 }", "set 1: { 0 1 }\nset 1: { 0 }",
     "line 3: set 1 is already declared at line 2"),
    (CLIPDEC_TOWER, "map all: clipdec", "map 1 -> 0: 0 -> 0\nmap 1 -> 0: 0 -> 0",
     "line 4: map 1 -> 0 is already declared at line 3"),
    (CLIPDEC_TOWER, "map all: clipdec", "map all: clipdec\nset 7: { 0 }",
     "line 4: set 7: no such element in the chain 0 < ... < 2"),
    (CLIPDEC_TOWER, "map all: clipdec", "map 2 -> 0: 0 -> 0, 1 -> 0",
     "line 3: map 2 -> 0: no such cover in the chain 0 < ... < 2"),
    (WEDGE_ABSYSTEM, "group c: gens 1 relations []",
     "group c: gens 1 relations []\ngroup b: gens 0 relations []",
     "line 9: group b is already declared at line 7"),
    (WEDGE_ABSYSTEM, "map b -> c: matrix [[]]", "map b -> c: matrix [[]]\nmap b -> c: matrix [[]]",
     "line 11: map b -> c is already declared at line 10"),
    (WEDGE_ABSYSTEM, "map b -> c: matrix [[]]", "map b -> c: matrix [[]]\ngroup zz: gens 1 relations []",
     "line 11: group zz: no such element in W"),
    (WEDGE_ABSYSTEM, "group c: gens 1 relations []", "group c: gens 1 relations [[1, 2]]",
     "line 8: relation width must equal generator count"),
    ("", "", "group G gens 1 relations [[1], [1, 2]]\n", "line 1: ragged rows"),
    (WEDGE_SEQUENCE, "map v at b: matrix []\n", "", "line 12: sequence Q has no map v at b line"),
    (WEDGE_SEQUENCE, "map u at b: matrix []", "map u at a: matrix []",
     "line 15: map u at a is already declared at line 13"),
    (WEDGE_SEQUENCE, "map u at c: matrix [[1]]", "map u at c: matrix [[1]]\nmap u at zz: matrix []",
     "line 18: map u at zz: no such element in W"),
    (WEDGE_SEQUENCE, "sequence Q over W", "poset V\nelements: a b c\n\nsequence Q over V",
     "line 15: systems of Q are not all over V"),
    (CLIPDEC_TOWER, "map all: clipdec", "map 1 -> 0: 0 -> 0\nmap 2 -> 1: 0 -> 0, 1 -> 0",
     "line 3: bond 1 -> 0 is not total on carrier(1)"),
    (WEDGE_ABSYSTEM, "map a -> c: matrix [[]]", "map a -> c: matrix [[1], [1, 2]]",
     "line 9: map a -> c: ragged rows"),
    (CLIPDEC_TOWER, "set all: { 0 1 }", "set all: { a b }",
     "line 3: map all: clipdec needs integer carriers, got 'a'"),
    (CLIPDEC_TOWER, "horizon 2\nset all: { 0 1 }", "horizon 1\nset 0: { 0 }\nset 1: { 5 }",
     "line 4: bond 1 -> 0 maps outside carrier(0)"),
], ids=["system-set-twice", "system-map-twice", "system-map-off-cover", "system-set-missing",
        "tower-set-twice", "tower-map-twice", "tower-set-beyond-horizon",
        "tower-map-off-cover", "absystem-group-twice", "absystem-map-twice",
        "absystem-undeclared-element", "absystem-relations-too-wide",
        "top-level-group-ragged", "sequence-map-missing", "sequence-map-twice",
        "sequence-undeclared-element", "sequence-systems-off-base",
        "tower-bond-not-total", "absystem-map-ragged", "tower-clipdec-not-integer",
        "tower-clipdec-outside-lower-carrier"])
def test_cli_rejects_bad_declaration_with_its_line(tmp_path, capsys, text, old, new, message):
    assert text.count(old) == 1
    fp = tmp_path / "bad.txt"
    fp.write_text(text.replace(old, new))
    assert _rejected(["validate", str(fp)], capsys) == f"error: {message}\n"


@pytest.mark.parametrize("text, again, message", [
    (WEDGE_TXT, WEDGE_TXT, "line 4: poset W is already declared at line 1"),
    (WEDGE_SYSTEM, WEDGE_SYSTEM[len(WEDGE_TXT):],
     "line 12: system S is already declared at line 5"),
    (CLIPDEC_TOWER, CLIPDEC_TOWER, "line 4: tower T is already declared at line 1"),
    (WEDGE_ABSYSTEM, WEDGE_ABSYSTEM[len(WEDGE_TXT):],
     "line 12: absystem A is already declared at line 5"),
    (WEDGE_SEQUENCE, WEDGE_SEQUENCE[len(WEDGE_ABSYSTEM):],
     "line 20: sequence Q is already declared at line 12"),
    ("group G gens 1 relations []\n", "group G gens 1 relations [[2]]\n",
     "line 2: group G is already declared at line 1"),
], ids=["poset", "system", "tower", "absystem", "sequence", "group"])
def test_cli_rejects_a_block_name_taken_by_a_block_of_its_kind(tmp_path, capsys, text, again,
                                                               message):
    # the second block used to replace the first without a word
    fp = tmp_path / "twice.txt"
    fp.write_text(text + again)
    for command in ("validate", "limit"):
        assert _rejected([command, str(fp)], capsys) == f"error: {message}\n"


def test_cli_a_name_may_be_shared_by_blocks_of_different_kinds(tmp_path, capsys):
    fp = tmp_path / "shared.txt"
    fp.write_text(WEDGE_SYSTEM.replace("system S", "system W")
                  + CLIPDEC_TOWER.replace("tower T", "tower W"))
    assert main(["--json", "validate", str(fp)]) == 0
    data = json.loads(capsys.readouterr().out)["data"]
    assert data["posets"] == data["systems"] == data["towers"] == ["W"]


@pytest.mark.parametrize("text, old, new", [
    ("", "", "group G gens 1 relations [[True]]\n"),
    ("", "", "group G gens 1 relations [[0x2]]\n"),
    (WEDGE_ABSYSTEM, "map a -> c: matrix [[]]", "map a -> c: matrix [[1_0]]"),
    ("", "", "group G gens 1 relations [[1.0]]\n"),
    ("", "", "group G gens 1 relations [[07]]\n"),
    ("", "", "group G gens 1 relations [[1,]]\n"),
    ("", "", "group G gens 1 relations [1]\n"),
    ("", "", "group G gens 1 relations ((1,),)\n"),
    ("", "", "group G gens 1 relations [[- 1]]\n"),
], ids=["bool", "hex", "underscore", "float", "leading-zero", "trailing-comma",
        "flat", "tuple", "detached-sign"])
def test_cli_matrix_literals_are_decimal_integers_only(tmp_path, capsys, text, old, new):
    # the reader accepts bracketed rows of optionally signed decimal integers,
    # not every Python literal that evaluates to integers
    fp = tmp_path / "bad.txt"
    fp.write_text(text.replace(old, new) if old else new)
    err = _rejected(["validate", str(fp)], capsys)
    assert err.startswith(f"error: line {1 if not text else 9}: bad matrix literal ")


def test_cli_matrix_literal_spacing_and_signs(tmp_path, capsys):
    fp = tmp_path / "ok.txt"
    fp.write_text("group G gens 2 relations [ [ +2 ,-4 ],[0,\t6] ]\n"
                  "group H gens 0 relations []\ngroup K gens 0 relations [[]]\n")
    assert main(["--json", "validate", str(fp)]) == 0
    parsed = parse_document(fp.read_text()).groups
    assert parsed["G"].relations.entries == ((2, -4), (0, 6))
    assert parsed["H"].relations.rows == 0 and parsed["K"].relations.rows == 1


def test_cli_bad_matrix_literal_error_is_short(tmp_path, capsys):
    # a long bad literal is quoted truncated, not echoed in full
    row = "[" + ", ".join(["12345"] * 80) + "]"
    literal = "[" + ", ".join([row] * 1000) + ", [x]]"
    fp = tmp_path / "bad.txt"
    fp.write_text(f"group G gens 80 relations {literal}\n")
    assert len(literal) > 400_000
    err = _rejected(["validate", str(fp)], capsys)
    assert err.startswith("error: line 1: bad matrix literal '[[12345, ") and len(err) < 200


@pytest.mark.parametrize("argv", [
    ["limit", "--system", "Q", "{system}"],
    ["surjective", "--system", "Q", "{system}"],
    ["ml", "--tower", "Q", "{tower}"],
    ["exactness", "--sequence", "Q", "{system}"],
    ["ml", "{system}"],
], ids=["system-name", "surjective-name", "tower-name", "sequence-name", "no-tower"])
def test_cli_block_lookup_error_is_one_plain_line(files, capsys, argv):
    err = _rejected([a.format(**files) for a in argv], capsys)
    assert err.startswith("error: BadOption: ") and "'" not in err


def test_cli_rejects_sequence_map_that_is_not_a_hom(tmp_path, capsys):
    # u at a sends the generator of Z/2 to 1 in Z, where 2 * 1 is not 0
    fp = tmp_path / "seq.txt"
    fp.write_text("poset P\nelements: a b\ncovers: a < b\n"
                  "absystem A over P\ngroup a: gens 1 relations [[2]]\n"
                  "group b: gens 1 relations [[2]]\nmap b -> a: matrix [[1]]\n"
                  "absystem B over P\ngroup a: gens 1 relations []\n"
                  "group b: gens 1 relations []\nmap b -> a: matrix [[1]]\n"
                  "sequence Q over P systems A B B\n"
                  "map u at a: matrix [[1]]\nmap v at a: matrix [[1]]\n"
                  "map u at b: matrix [[0]]\nmap v at b: matrix [[1]]\n")
    for command in ("validate", "exactness"):
        assert _rejected([command, str(fp)], capsys) == \
            "error: line 13: map u at a: does not respect relations\n"


@pytest.mark.parametrize("u, v, message", [
    ("[[0]]", "[[1]]", "u at c is not injective"),
    ("[[2]]", "[[1]]", "sequence at c is not exact in the middle"),
    ("[[1]]", "[[0]]", "v at c is not surjective"),
], ids=["u-not-injective", "not-exact-in-the-middle", "v-not-surjective"])
def test_cli_rejects_a_sequence_that_is_not_levelwise_exact(tmp_path, capsys, u, v, message):
    # Z -> Z -> Z at c: 0, 2 and id, id and 0 are homs that break one condition each
    fp = tmp_path / "seq.txt"
    fp.write_text(WEDGE_SEQUENCE.replace("map u at c: matrix [[1]]", f"map u at c: matrix {u}")
                  .replace("map v at c: matrix [[1]]", f"map v at c: matrix {v}"))
    for argv in (["exactness", str(fp)], ["--json", "exactness", str(fp)]):
        assert _rejected(argv, capsys) == f"error: NotLevelwiseExact: {message}\n"


def test_cli_stops_quietly_when_the_reader_leaves(tmp_path):
    fp = tmp_path / "t.tower"
    fp.write_text("tower T horizon 40\nset all: { 0 1 2 }\nmap all: clipdec\n")
    argv = [sys.executable, "-m", "invsys.cli", "ml", str(fp)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    status = subprocess.run(argv, env=env, capture_output=True).returncode
    # the reader closes the pipe before the report is written
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (status, b"")
    assert status in (0, 1)


def _constant_z_file(tmp_path, p: Poset) -> str:
    lines = [f"group {e}: gens 1 relations []" for e in p.elements]
    lines += [f"map {hi} -> {lo}: matrix [[1]]" for lo, hi in p.covers]
    fp = tmp_path / "z.txt"
    fp.write_text(poset_to_text("P", p) + "absystem Z over P\n" + "\n".join(lines) + "\n")
    return str(fp)


def test_cli_nerve_budget_is_checked_after_each_flag_length(tmp_path, capsys, monkeypatch):
    # the minimal model of the 11-sphere has no element the cofinal core can
    # delete; its 24 points carry 3^12 - 1 = 531,440 flags, and the budget of
    # 20,000 is passed by the 5-element flags, at 35,312 in all
    fp = _constant_z_file(tmp_path, sphere_model(11))
    enumerated = []
    chains = Poset.chains

    def counting(self, length):
        flags = chains(self, length)
        enumerated.append(len(flags))
        return flags

    monkeypatch.setattr(Poset, "chains", counting)
    assert _rejected(["derived", "--n", "1", fp], capsys) == \
        "error: nerve flag count exceeds budget\n"
    assert sum(enumerated) == 35312


def test_cli_derived_limit_over_a_long_chain_is_within_budget(tmp_path, capsys):
    # constant Z on an 18-element chain has 2^18 - 1 = 262,143 flags, but its
    # cofinal core is the top element alone
    fp = _constant_z_file(tmp_path, chain_poset(18))
    assert main(["derived", "--n", "1", fp]) == 0
    assert "lim^1 invariants: free rank 0, torsion []\n" in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    ([], "no command given (see invsys -h)"),
    (["frob", "{wedge}"], "unknown command 'frob' (see invsys -h)"),
    (["henkin"], "henkin needs a subcommand: enumerate, eps"),
    (["derived", "{wedge}"], "derived needs --n"),
    (["derived", "--n", "abc", "{wedge}"], "--n: invalid int value 'abc'"),
    (["derived", "--n"], "--n needs a value"),
    (["derived", "--n", "1", "--frob", "1", "{wedge}"], "derived has no option --frob"),
    (["derived", "--n", "1", "{wedge}", "{wedge}"], "derived: unexpected word '{wedge}'"),
    (["derived", "--n", "1", "--n", "2", "{wedge}"], "--n is given twice"),
    (["scd", "--trials", "-1", "{wedge}"], "--trials must be at least 0, got -1"),
    (["derived", "--n", "-1", "{wedge}"], "--n must be at least 0, got -1"),
    (["limit", "--budget", "0", "{system}"], "--budget must be at least 1, got 0"),
    (["limit", "--budget", "-5", "{system}"], "--budget must be at least 1, got -5"),
], ids=["no-command", "unknown-command", "no-subcommand", "missing-required", "not-an-int",
        "no-value", "unknown-option", "second-file", "repeated-option", "negative-value",
        "negative-degree", "zero-budget", "negative-budget"])
def test_cli_bad_command_line_is_one_error_line(files, capsys, argv, message):
    argv = [a.format(**files) for a in argv]
    assert _rejected(argv, capsys) == f"error: BadOption: {message.format(**files)}\n"


def test_cli_option_forms(tmp_path, capsys):
    fp = tmp_path / "a.absystem"
    fp.write_text(WEDGE_ABSYSTEM)
    assert main(["--json", "derived", "--n", "1", str(fp)]) == 0
    spaced = capsys.readouterr()
    assert main(["--json", "derived", str(fp), "--n=1"]) == 0
    assert capsys.readouterr() == spaced
    for argv in (["-h"], ["derived", "--help"]):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: invsys [--json] [--seed N] COMMAND")
        assert "  derived --n N [--system SYSTEM] FILE\n" in out


def test_cli_imports_no_argparse(files):
    code = ("import sys; from invsys.cli import main; "
            f"main(['--json', 'validate', {files['wedge']!r}]); "
            "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "[]"


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n#", 1)[0]
    documented = set()
    for line in (line for line in section.splitlines() if line.startswith("invsys ")):
        args = parse_args(shlex.split(line, comments=True)[1:])
        assert args is not None, line
        documented.add(" ".join(filter(None, [args.cmd, getattr(args, f"{args.cmd}_cmd", "")])))
    assert documented == set(COMMANDS)
