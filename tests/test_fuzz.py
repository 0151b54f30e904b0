"""A seeded mutation fuzzer over the benchmark's input files and command lines.

A file mutant is one case file of ``bench/workloads.py`` with a few lines
deleted or duplicated, a word swapped for a token of the grammar, or a
character deleted (Zeller et al., *The Fuzzing Book*, "Mutation-Based
Fuzzing"); every command of the case then runs on it.  A command-line
mutant is one command of a case with an option dropped or given twice, a
value made negative, huge, non-decimal or written as ``--opt=value``, a word
swapped for an unknown name, or an unknown option put in; it runs on the
case's own files.  Each runs in process through ``cli.main``.  Whatever the
input, no exception may escape ``main``, the exit code is 0, 1 or 2, an exit
2 prints exactly one stderr line, which starts with ``error:``, and an exit 1
comes only from a command whose verdict can be false, with a false verdict
in its output.  The seeds and the numbers of mutants are fixed, so every run
tries the same inputs.  No shell can pass a NUL byte in an argument, but a
caller of ``main`` can, so one word of the command-line mutants holds one.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from invsys.cli import COMMANDS, main, parse_args

ROOT = Path(__file__).resolve().parents[1]
# words of the text formats (see the textio docstring), and values that
# are out of range or of the wrong kind where they land
TOKENS = ("poset", "system", "tower", "absystem", "sequence", "over", "systems",
          "horizon", "elements:", "covers:", "set", "map", "group", "gens",
          "relations", "matrix", "all", "all:", "clipdec", "u", "v", "at", "->", "<",
          ",", ":", "{", "}", "[[1]]", "[[2, 0]]", "[[]]", "[]", "0", "1", "-1", "2",
          "99999999", "a", "b", "c", "P", "A", "Q", "#")
MUTANTS_PER_CASE = 120
# values of an option: negative, huge, not decimal, empty, and names of
# nothing in the files
VALUES = ("-1", "-7", "99999999999999999999", "0x10", "1e3", "1_0", "+3", " 4", "\u0663",
          "", "two", "nosuch", "(9_9)", "a,b")
# words in place of a command, a file or a value, and options no command has
NAMES = ("nosuch", "nosuch.txt", "nul\x00.txt", "henkin", "enumerate", "validate", "-",
         "--json", "-h")
UNKNOWN_OPTIONS = ("--nosuch", "--nosuch=1", "-x", "--", "--json=1", "--N", "--trials",
                   "--seed")
ARGV_MUTANTS_PER_COMMAND = 30
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


def command_name(argv: list[str]) -> str:
    """The key in COMMANDS of a valid command line."""
    args = parse_args(argv)
    return " ".join(filter(None, [args.cmd, getattr(args, f"{args.cmd}_cmd", "")]))


def mutate_argv(rng: random.Random, argv: list[str]) -> list[str]:
    """argv with one or two mutations; an option the command has but argv
    lacks may be put in with a value of VALUES."""
    known = [flag for flag in COMMANDS[command_name(argv)][1] if flag.startswith("--")]
    argv = list(argv)
    for _ in range(rng.randint(1, 2)):
        options = [i for i, tok in enumerate(argv) if tok.startswith("--")]
        op = rng.randrange(6)
        if op < 3 and options:
            i = rng.choice(options)
            width = 1 if "=" in argv[i] else 2  # the option and its value
            if op == 0:
                del argv[i:i + width]
            elif op == 1:
                argv[i:i] = argv[i:i + width]
            elif rng.randrange(2):
                argv[i:i + width] = [f"{argv[i].partition('=')[0]}={rng.choice(VALUES)}"]
            elif i + 1 < len(argv):
                argv[i + 1] = rng.choice(VALUES)
        elif op < 4 and known:
            argv[1:1] = [rng.choice(known), rng.choice(VALUES)]
        elif op == 4 and argv:
            argv[rng.randrange(len(argv))] = rng.choice(NAMES)
        else:
            argv.insert(rng.randrange(len(argv) + 1), rng.choice(UNKNOWN_OPTIONS))
    return argv


def check_run(argv: list[str], where: str, capsys) -> int:
    """Run `invsys --json` on argv in process and check its exit as the
    module docstring says; the exit code."""
    where = f"{argv} on {where}"
    try:
        status = main(["--json", *argv])
    except Exception as exc:
        pytest.fail(f"raised {exc!r}: {where}")
    out, err = capsys.readouterr()
    assert status in (0, 1, 2), where
    if status == 1:
        assert command_name(argv) in FALSIFIABLE, where
        assert False in json.loads(out)["verdicts"].values(), where
    if status == 2:
        assert err.startswith("error:") and err.count("\n") == 1, f"{err!r} from {where}"
    return status


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
                seen.add(check_run(command.argv, f"{name}:\n{mutant}", capsys))
    assert {0, 2} <= seen  # some mutants are still valid input


@pytest.mark.parametrize("workload", ["sets", "derived", "exactness"])
def test_mutated_command_lines_exit_with_a_code_and_one_error_line(workload, tmp_path,
                                                                   monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads
    monkeypatch.chdir(tmp_path)
    rng = random.Random(f"argv/{workload}")
    seen = set()
    for case in workloads.build(workload, 1):
        for name, text in case.files.items():
            (tmp_path / name).write_text(text)
        for command in case.commands:
            for _ in range(ARGV_MUTANTS_PER_COMMAND):
                seen.add(check_run(mutate_argv(rng, command.argv),
                                   f"the files of {case.name}", capsys))
    assert {0, 2} <= seen  # some mutants are still valid command lines
