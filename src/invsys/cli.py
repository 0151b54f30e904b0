"""Command-line front end.

Exit status: 0 for success / verdict-true, 1 for verdict-false, 2 for
input errors.  `--json` switches to a machine format that is byte-identical
across runs for identical inputs and seed (elapsed time is reported only in
the human format for exactly that reason).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field

from . import bergman, henkin
from .abgroups import group_invariants, is_trivial_group
from .derived import derived_limit, limit_exactness_check, scd_finite
from .errors import BadOption, BudgetExceeded, InvsysError, ParseError
from .setsys import (DEFAULT_BUDGET, Tower, is_surjective, limit_threads,
                     ml_report, universal_images, validate_tower)
from .textio import Document, parse_document


@dataclass
class RunReport:
    command: str
    inputs: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)
    seed: int = 0
    elapsed: float = 0.0

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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(exc.object[:exc.start].count(b"\n") + 1, "not UTF-8 text")
    report.inputs[path] = hashlib.sha256(text.encode()).hexdigest()
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
    report.data["posets"] = sorted(doc.posets)
    report.data["systems"] = sorted(doc.systems)
    report.data["towers"] = sorted(doc.towers)
    report.data["absystems"] = sorted(doc.absystems)
    report.data["sequences"] = sorted(doc.sequences)
    report.data["groups"] = sorted(doc.groups)
    report.verdicts["valid"] = True
    return 0


def cmd_limit(args, report: RunReport) -> int:
    doc = _load(args.file, report)
    sys_ = doc.sole("systems", args.system)
    threads = limit_threads(sys_, budget=args.budget)
    report.data["threads"] = len(threads)
    if len(threads) <= 20:
        report.data["thread_list"] = [
            {str(k): str(v) for k, v in t.as_dict().items()} for t in threads]
    report.verdicts["nonempty"] = bool(threads)
    return 0 if threads else 1


def cmd_surjective(args, report: RunReport) -> int:
    doc = _load(args.file, report)
    target = (doc.towers.get(args.system) if args.system else None)
    if target is None:
        try:
            target = doc.sole("systems", args.system)
        except BadOption:
            target = doc.sole("towers", args.system)
    ok, pair = is_surjective(target)
    report.verdicts["surjective"] = ok
    if pair is not None:
        report.data["first_failing_pair"] = [str(x) for x in pair]
    return 0 if ok else 1


def _clip_tower(t: Tower, horizon) -> Tower:
    if horizon is None or _at_least("--horizon", horizon, 1) >= t.horizon:
        return t
    return validate_tower(horizon, list(t.carriers[: horizon + 1]),
                          list(t.steps[:horizon]))


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
    if args.tower or doc.towers and not doc.systems:
        target = _clip_tower(doc.sole("towers", args.tower), args.horizon)
    else:
        target = doc.sole("systems", args.system)
    restricted, meta = universal_images(target)
    if isinstance(restricted, Tower):
        report.data["carrier_sizes"] = [len(c) for c in restricted.carriers]
    else:
        report.data["carrier_sizes"] = {e: len(restricted.carriers[e])
                                        for e in restricted.base.elements}
    ok = all(meta.values())
    report.verdicts["restricted_bonds_surjective"] = ok
    report.data["pairs_checked"] = len(meta)
    return 0 if ok else 1


def cmd_derived(args, report: RunReport) -> int:
    doc = _load(args.file, report)
    sys_ = doc.sole("absystems", args.system)
    g = derived_limit(sys_, args.n)
    inv = group_invariants(g)
    report.data[f"lim^{args.n} invariants"] = _invariants_str(inv)
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
    checks = bergman.bergman_demo(_at_least("--n", args.n, 3), seed=args.seed)
    for name, ok in checks:
        report.verdicts[name] = ok
    all_ok = all(ok for _, ok in checks)
    report.verdicts["all_checks_pass"] = all_ok
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="invsys",
                                 description="inverse systems over finite posets")
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    ap.add_argument("--seed", type=int, default=0, help="seed for randomized commands")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate");        p.add_argument("file")
    p.set_defaults(fn=cmd_validate)
    p = sub.add_parser("limit");           p.add_argument("file")
    p.add_argument("--system", default=None)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(fn=cmd_limit)
    p = sub.add_parser("surjective");      p.add_argument("file")
    p.add_argument("--system", default=None)
    p.set_defaults(fn=cmd_surjective)
    p = sub.add_parser("ml");              p.add_argument("file")
    p.add_argument("--tower", default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.set_defaults(fn=cmd_ml)
    p = sub.add_parser("images");          p.add_argument("file")
    p.add_argument("--system", default=None)
    p.add_argument("--tower", default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.set_defaults(fn=cmd_images)
    p = sub.add_parser("derived");         p.add_argument("file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--system", default=None)
    p.set_defaults(fn=cmd_derived)
    p = sub.add_parser("scd");             p.add_argument("file")
    p.add_argument("--poset", default=None)
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(fn=cmd_scd)
    p = sub.add_parser("exactness");       p.add_argument("file")
    p.add_argument("--sequence", default=None)
    p.set_defaults(fn=cmd_exactness)

    p = sub.add_parser("henkin")
    hs = p.add_subparsers(dest="henkin_cmd", required=True)
    pe = hs.add_parser("enumerate")
    pe.add_argument("--poset", dest="poset_file", required=True)
    pe.add_argument("--level", required=True)
    pe.add_argument("--maxlen", type=int, default=6)
    pe.set_defaults(fn=cmd_henkin)
    pp = hs.add_parser("eps")
    pp.add_argument("--poset", dest="poset_file", required=True)
    pp.add_argument("--alpha", required=True)
    pp.add_argument("--beta", required=True)
    pp.add_argument("--tuple", required=True)
    pp.set_defaults(fn=cmd_henkin)

    p = sub.add_parser("bergman")
    bs = p.add_subparsers(dest="bergman_cmd", required=True)
    bd = bs.add_parser("demo")
    bd.add_argument("--n", type=int, default=5)
    bd.set_defaults(fn=cmd_bergman)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    report = RunReport(command=args.cmd, seed=args.seed)
    start = time.monotonic()
    try:
        status = args.fn(args, report)
    except (ParseError, OSError, KeyError, BudgetExceeded) as exc:
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
