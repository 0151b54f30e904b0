"""A seeded mutation fuzzer over the benchmark's input files.

Each mutant is one case file of ``bench/workloads.py`` with a few lines
deleted or duplicated, a word swapped for a token of the grammar, or a
character deleted (Zeller et al., *The Fuzzing Book*, "Mutation-Based
Fuzzing").  Every command of the case then runs on it in process through
``cli.main``.  Whatever the input, no exception may escape ``main``, the
exit code is 0, 1 or 2, an exit 2 prints exactly one stderr line, which
starts with ``error:``, and an exit 1 comes only from a command whose
verdict can be false, with a false verdict in its output.  The seed and the
number of mutants are fixed, so every run tries the same inputs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from invsys.cli import main, parse_args

ROOT = Path(__file__).resolve().parents[1]
# words of the text formats (see the textio docstring), and values that
# are out of range or of the wrong kind where they land
TOKENS = ("poset", "system", "tower", "absystem", "sequence", "over", "systems",
          "horizon", "elements:", "covers:", "set", "map", "group", "gens",
          "relations", "matrix", "all", "all:", "clipdec", "u", "v", "at", "->", "<",
          ",", ":", "{", "}", "[[1]]", "[[2, 0]]", "[[]]", "[]", "0", "1", "-1", "2",
          "99999999", "a", "b", "c", "P", "A", "Q", "#")
MUTANTS_PER_CASE = 120
# the commands that exit 1 on a false verdict; the others (validate, derived,
# scd, henkin eps) report what they computed and exit 0
FALSIFIABLE = {"limit", "surjective", "ml", "images", "exactness", "henkin enumerate",
               "bergman demo"}


def mutate(rng: random.Random, text: str) -> str:
    lines = text.split("\n")
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(lines))
        op = rng.randrange(4)
        if op == 0 and len(lines) > 1:
            del lines[k]
        elif op == 1:
            lines.insert(k, lines[k])
        elif op == 2:
            words = lines[k].split(" ")
            words[rng.randrange(len(words))] = rng.choice(TOKENS)
            lines[k] = " ".join(words)
        elif lines[k]:
            i = rng.randrange(len(lines[k]))
            lines[k] = lines[k][:i] + lines[k][i + 1:]
    return "\n".join(lines)


@pytest.mark.parametrize("workload", ["sets", "derived", "exactness"])
def test_mutated_inputs_exit_with_a_code_and_one_error_line(workload, tmp_path,
                                                            monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads
    monkeypatch.chdir(tmp_path)
    rng = random.Random(f"fuzz/{workload}")
    seen = set()
    for case in workloads.build(workload, 1):
        for _ in range(MUTANTS_PER_CASE):
            for name, text in case.files.items():
                (tmp_path / name).write_text(text)
            name = rng.choice(sorted(case.files))
            mutant = mutate(rng, case.files[name])
            (tmp_path / name).write_text(mutant)
            for command in case.commands:
                args = parse_args(command.argv)
                cmd = " ".join(filter(None, [args.cmd, getattr(args, f"{args.cmd}_cmd", "")]))
                try:
                    status = main(["--json", *command.argv])
                except Exception as exc:
                    pytest.fail(f"{command.argv} raised {exc!r} on {name}:\n{mutant}")
                out, err = capsys.readouterr()
                where = f"{command.argv} on {name}:\n{mutant}"
                assert status in (0, 1, 2), where
                seen.add(status)
                if status == 1:
                    assert cmd in FALSIFIABLE, where
                    assert False in json.loads(out)["verdicts"].values(), where
                if status == 2:
                    assert err.startswith("error:") and err.count("\n") == 1, \
                        f"{err!r} from {where}"
    assert {0, 2} <= seen  # some mutants are still valid input
