"""Command-line front end.

The command line is read against one table, COMMANDS: `invsys [--json]
[--seed N] COMMAND [options] FILE`, where the options and FILE come in any
order, each at most once, as `--opt value` or `--opt=value`, spelled out
in full.  `-h` or `--help` anywhere prints the table as usage and exits 0.
A bad command line exits 2 with one `error:` line, like any other input
error.

Exit status: 0 for success / verdict-true, 1 for verdict-false, 2 for
input errors.  `--json` switches to a machine format that is byte-identical
across runs for identical inputs and seed (elapsed time is reported only in
the human format for exactly that reason).
"""

from __future__ import annotations

import json
import os
import sys
import time
from types import SimpleNamespace

# CPython's built-in SHA-256: hashlib would load OpenSSL's libcrypto into
# every process for one digest per input file
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    from _sha256 import sha256  # Python 3.10-3.11

from . import henkin
from .abgroups import group_invariants, is_trivial_group
from .derived import derived_limit, limit_exactness_check, scd_finite
from .errors import BadOption, BudgetExceeded, InvsysError, ParseError
from .setsys import (DEFAULT_BUDGET, SetSystem, count_threads, is_surjective,
                     limit_threads, ml_report, universal_images, validate_tower)
from .textio import Document, parse_document


class RunReport:
    def __init__(self, command: str, seed: int = 0):
        self.command, self.seed = command, seed
        self.inputs: dict = {}
        self.verdicts: dict = {}
        self.data: dict = {}
        self.elapsed = 0.0

    def to_json(self) -> str:
        payload = {"command": self.command, "inputs": self.inputs,
                   "verdicts": self.verdicts, "data": self.data,
                   "seed": self.seed}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for k, v in self.verdicts.items():
            lines.append(f"{k}: {v}")
        for k, v in self.data.items():
            lines.append(f"{k}: {v}")
        lines.append(f"elapsed: {self.elapsed:.3f}s")
        return "\n".join(lines)


def _load(path: str, report: RunReport) -> Document:
    """The file read once as bytes, its \\r\\n and \\r newlines made \\n (so
    the digest in report.inputs is that of the text that is parsed).  A
    NUL byte in the path is an OSError, like any path that cannot be opened."""
    try:
        fh = open(path, "rb")
    except ValueError:  # what open raises for a NUL byte in the path
        raise OSError(f"embedded null byte in file name: {path!r}") from None
    with fh:
        data = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    report.inputs[path] = sha256(data).hexdigest()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(data[:exc.start].count(b"\n") + 1, "not UTF-8 text")
    return parse_document(text)


def _at_least(option: str, value: int, least: int) -> int:
    if value < least:
        raise BadOption(f"{option} must be at least {least}, got {value}")
    return value


def _invariants_str(inv) -> str:
    rank, torsion = inv
    return f"free rank {rank}, torsion {torsion}"


def cmd_validate(args, report: RunReport) -> int:
    doc = _load(args.file, report)
    for kind in ("posets", "systems", "towers", "absystems", "sequences", "groups"):
        report.data[kind] = sorted(getattr(doc, kind))
    report.verdicts["valid"] = True
    return 0


def cmd_limit(args, report: RunReport) -> int:
    budget = _at_least("--budget", args.budget, 1)
    doc = _load(args.file, report)
    sys_ = doc.sole("systems", args.system)
    count = count_threads(sys_, budget=budget)
    report.data["threads"] = count
    if count <= 20:
        report.data["thread_list"] = [
            {str(k): str(v) for k, v in t.as_dict().items()}
            for t in limit_threads(sys_, budget=budget)]
    report.verdicts["nonempty"] = count > 0
    return 0 if count else 1


def cmd_surjective(args, report: RunReport) -> int:
    doc = _load(args.file, report)
    target = doc.sole(("systems", "towers"), args.system)
    ok, pair = is_surjective(target)
    report.verdicts["surjective"] = ok
    if pair is not None:
        report.data["first_failing_pair"] = list(pair)
    return 0 if ok else 1


def _clip_tower(t: SetSystem, horizon) -> SetSystem:
    """The tower cut at horizon; asking for more levels than it has is an error."""
    full = len(t.base.elements) - 1
    if horizon is None or _at_least("--horizon", horizon, 1) == full:
        return t
    if horizon > full:
        raise BadOption(f"--horizon {horizon} exceeds the tower's horizon {full}")
    return validate_tower(horizon, list(t.carriers.values())[: horizon + 1],
                          list(t.cover_bonds.values())[:horizon])


def cmd_ml(args, report: RunReport) -> int:
    doc = _load(args.file, report)
    t = _clip_tower(doc.sole("towers", args.tower), args.horizon)
    rep = ml_report(t)
    report.data["horizon"] = rep.horizon
    report.data["levels"] = [
        {"index": e.index, "stabilized_at": e.stabilized_at,
         "verdict": e.verdict, "horizon_sensitive": e.horizon_sensitive,
         "image_sizes": [len(i) for i in e.images]}
        for e in rep.entries]
    ok = rep.stable_everywhere()
    report.verdicts["stable_everywhere"] = ok
    return 0 if ok else 1


def cmd_images(args, report: RunReport) -> int:
    doc = _load(args.file, report)
    if args.system is not None and args.tower is not None:
        raise BadOption("give --system or --tower, not both")
    tower = args.system is None and bool(args.tower or doc.towers and not doc.systems)
    if not tower and args.horizon is not None:
        raise BadOption("--horizon applies to a tower, not to a system")
    target = (_clip_tower(doc.sole("towers", args.tower), args.horizon) if tower
              else doc.sole("systems", args.system))
    restricted = universal_images(target)
    sizes = {e: len(c) for e, c in restricted.carriers.items()}
    # a tower lists its levels in order, a system names its elements
    report.data["carrier_sizes"] = list(sizes.values()) if tower else sizes
    # the cover check decides the restricted bond of every comparable pair
    ok = is_surjective(restricted)[0]
    report.verdicts["restricted_bonds_surjective"] = ok
    base = target.base
    report.data["pairs_checked"] = sum(len(base.up_set(e)) - 1 for e in base.elements)
    return 0 if ok else 1


def cmd_derived(args, report: RunReport) -> int:
    n = _at_least("--n", args.n, 0)
    doc = _load(args.file, report)
    sys_ = doc.sole("absystems", args.system)
    g = derived_limit(sys_, n)
    inv = group_invariants(g)
    report.data[f"lim^{n} invariants"] = _invariants_str(inv)
    report.verdicts["nonzero"] = not is_trivial_group(g)
    return 0


def cmd_scd(args, report: RunReport) -> int:
    doc = _load(args.file, report)
    p = doc.sole("posets", args.poset)
    val = scd_finite(p, trials=_at_least("--trials", args.trials, 0), seed=args.seed)
    report.data["scd_lower_bound"] = val
    report.data["trials"] = args.trials
    report.verdicts["zero"] = val == 0
    return 0


def cmd_exactness(args, report: RunReport) -> int:
    doc = _load(args.file, report)
    seq = doc.sole("sequences", args.sequence)
    a, b, c = (doc.absystems[s] for s in seq.systems)
    rep = limit_exactness_check(a, b, c, seq.u, seq.v)
    report.data["lim A"] = _invariants_str(rep.lim_a)
    report.data["lim B"] = _invariants_str(rep.lim_b)
    report.data["lim C"] = _invariants_str(rep.lim_c)
    report.data["lim^1 A"] = _invariants_str(rep.lim1_a)
    report.data["coker lim v"] = _invariants_str(rep.coker_v)
    report.verdicts["limits_exact"] = rep.exact
    report.verdicts["lim_v_surjective"] = rep.v_surjective
    report.verdicts["coker_embeds_in_lim1"] = rep.coker_embeds_in_lim1
    report.verdicts["ok"] = rep.ok
    return 0 if rep.ok else 1


def cmd_henkin(args, report: RunReport) -> int:
    doc = _load(args.poset_file, report)
    p = doc.sole("posets", None)
    if args.henkin_cmd == "enumerate":
        maxlen = _at_least("--maxlen", args.maxlen, 0)
        members = henkin.enumerate_members(p, args.level, maxlen)
        report.data["count"] = len(members)
        report.data["members"] = [",".join(t) for t in members[:50]]
        report.verdicts["nonempty"] = bool(members)
        return 0 if members else 1
    t = tuple(args.tuple.split(","))
    out = henkin.henkin_eps(p, args.alpha, args.beta, t)
    report.data["result"] = ",".join(out)
    report.verdicts["member_at_alpha"] = henkin.henkin_member(out, args.alpha, p)
    return 0


def cmd_bergman(args, report: RunReport) -> int:
    from . import bergman  # no other command uses it
    checks = bergman.bergman_demo(_at_least("--n", args.n, 3), seed=args.seed)
    for name, ok in checks:
        report.verdicts[name] = ok
    all_ok = all(ok for _, ok in checks)
    report.verdicts["all_checks_pass"] = all_ok
    return 0 if all_ok else 1


REQUIRED = object()  # the default of an option that has to be given

# option -> (attribute, type, default); the key FILE is the one positional
# word, and `bool` marks a flag that takes no value
GLOBAL_OPTIONS = {"--json": ("json", bool, False), "--seed": ("seed", int, 0)}
_FILE = {"FILE": ("file", str, REQUIRED)}

# command -> (handler, options); a two-word command is read as `cmd` and
# `<cmd>_cmd` (henkin enumerate: args.cmd "henkin", args.henkin_cmd "enumerate")
COMMANDS = {
    "validate": (cmd_validate, _FILE),
    "limit": (cmd_limit, {"--system": ("system", str, None),
                          "--budget": ("budget", int, DEFAULT_BUDGET), **_FILE}),
    "surjective": (cmd_surjective, {"--system": ("system", str, None), **_FILE}),
    "ml": (cmd_ml, {"--tower": ("tower", str, None),
                    "--horizon": ("horizon", int, None), **_FILE}),
    "images": (cmd_images, {"--system": ("system", str, None),
                            "--tower": ("tower", str, None),
                            "--horizon": ("horizon", int, None), **_FILE}),
    "derived": (cmd_derived, {"--n": ("n", int, REQUIRED),
                              "--system": ("system", str, None), **_FILE}),
    "scd": (cmd_scd, {"--poset": ("poset", str, None),
                      "--trials": ("trials", int, 20), **_FILE}),
    "exactness": (cmd_exactness, {"--sequence": ("sequence", str, None), **_FILE}),
    "henkin enumerate": (cmd_henkin, {"--poset": ("poset_file", str, REQUIRED),
                                      "--level": ("level", str, REQUIRED),
                                      "--maxlen": ("maxlen", int, 6)}),
    "henkin eps": (cmd_henkin, {"--poset": ("poset_file", str, REQUIRED),
                                "--alpha": ("alpha", str, REQUIRED),
                                "--beta": ("beta", str, REQUIRED),
                                "--tuple": ("tuple", str, REQUIRED)}),
    "bergman demo": (cmd_bergman, {"--n": ("n", int, 5)}),
}


def parse_args(argv) -> SimpleNamespace | None:
    """argv read against COMMANDS as the module docstring says, or None when
    it asks for help; a bad command line raises BadOption."""
    if "-h" in argv or "--help" in argv:
        return None
    name, given, tokens = "", {}, iter(argv)
    for tok in tokens:
        if not tok.startswith("-"):
            name = f"{name} {tok}".lstrip()
            if name in COMMANDS:
                break
            if not any(c.startswith(name + " ") for c in COMMANDS):
                raise BadOption(f"unknown command {name!r} (see invsys -h)")
        elif name:  # an option between a command and its subcommand
            break
        else:
            _read_option(tok, tokens, GLOBAL_OPTIONS, given, "invsys")
    if name not in COMMANDS:
        subs = [c.split()[1] for c in COMMANDS if c.startswith(name + " ")]
        raise BadOption(f"{name} needs a subcommand: {', '.join(subs)}" if name
                        else "no command given (see invsys -h)")
    fn, options = COMMANDS[name]
    for tok in tokens:
        if tok.startswith("-"):
            _read_option(tok, tokens, options, given, name)
        elif "FILE" in options and "FILE" not in given:
            given["FILE"] = tok
        else:
            raise BadOption(f"{name}: unexpected word {tok!r}")
    cmd, _, sub = name.partition(" ")
    args = SimpleNamespace(cmd=cmd, fn=fn, **({f"{cmd}_cmd": sub} if sub else {}))
    for flag, (attr, _, default) in {**GLOBAL_OPTIONS, **options}.items():
        if flag not in given and default is REQUIRED:
            raise BadOption(f"{name} needs {flag}")
        setattr(args, attr, given.get(flag, default))
    return args


def _read_option(tok: str, tokens, options: dict, given: dict, where: str):
    """Put the value of option tok (its own `=value` or the next token) in given."""
    flag, has_value, value = tok.partition("=")
    if flag not in options:
        raise BadOption(f"{where} has no option {flag}")
    if flag in given:
        raise BadOption(f"{flag} is given twice")
    kind = options[flag][1]
    if kind is bool:
        if has_value:
            raise BadOption(f"{flag} takes no value")
        given[flag] = True
        return
    if not has_value:
        value = next(tokens, None)
        if value is None:
            raise BadOption(f"{flag} needs a value")
    try:
        given[flag] = kind(value)
    except ValueError:
        raise BadOption(f"{flag}: invalid {kind.__name__} value {value!r}")


def usage() -> str:
    """The command lines that COMMANDS accepts, one command a line."""
    def words(options: dict) -> str:
        out = []
        for flag, (_, kind, default) in options.items():
            word = (flag if kind is bool or flag == "FILE"
                    else f"{flag} {'N' if kind is int else flag[2:].upper()}")
            out.append(word if default is REQUIRED else f"[{word}]")
        return " ".join(out)
    lines = [f"usage: invsys {words(GLOBAL_OPTIONS)} COMMAND ...", "commands:"]
    lines += [f"  {name} {words(options)}" for name, (_, options) in COMMANDS.items()]
    return "\n".join(lines)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            print(usage())
            return 0
        report = RunReport(command=args.cmd, seed=args.seed)
        start = time.monotonic()
        status = args.fn(args, report)
    except (ParseError, OSError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvsysError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 2
    report.elapsed = time.monotonic() - start
    try:
        print(report.to_json() if args.json else report.to_text(), flush=True)
    except BrokenPipeError:  # the reader left early; the rest of the output goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


if __name__ == "__main__":
    sys.exit(main())
