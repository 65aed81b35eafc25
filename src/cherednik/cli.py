"""Batch command-line front end: parse a job configuration, run one
computation, and emit a deterministic TSV or JSON-lines report."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from . import __version__
from . import banach, category_o
from .config import JobConfig, ParseError, ValidationError, parse_config
from .groups import (
    ReflectionFunction,
    builtin_group,
    find_reflections,
    load_group_file,
)
from .pbw import CherednikAlgebra, format_term
from .scalars import (
    ComputationLimit,
    ExprError,
    InvalidInput,
    PadicContext,
    decimal_int,
    parse_scalar,
    signed_sum,
)


@dataclass
class Report:
    columns: tuple
    rows: list
    extra: dict = field(default_factory=dict)
    command: str = ""
    config_echo: str = ""


def field_ell(cfg: JobConfig) -> int:
    text = cfg.get("field", "rational")
    if text == "rational":
        return 1
    name, _, arg = text.partition(":")
    ell = decimal_int(arg)
    if name == "cyclotomic" and ell:
        return ell
    raise ValidationError("field", f"expected rational or cyclotomic:L, got {text!r}")


def build_algebra(cfg: JobConfig) -> CherednikAlgebra:
    ell = field_ell(cfg)
    spec = cfg.require("group")
    try:
        if spec.startswith("file:"):
            with open(spec[5:], "r", encoding="utf-8") as handle:
                group, irreps = load_group_file(handle.read(), ell)
        else:
            group, irreps = builtin_group(spec, ell)
    except InvalidInput:
        raise
    except (ValueError, OSError) as exc:
        raise ValidationError("group", str(exc)) from exc
    c_text = cfg.get("c")
    if c_text is None:
        values = [0]
    else:
        try:
            values = [parse_scalar(part.strip(), ell) for part in c_text.split(",")]
        except ExprError as exc:
            raise ValidationError("c", str(exc)) from exc
    try:
        c = ReflectionFunction(group, find_reflections(group), values)
    except ValueError as exc:
        raise ValidationError("c", str(exc)) from exc
    return CherednikAlgebra(group, c, irreps=irreps, field_ell=ell)


def build_context(cfg: JobConfig, algebra: CherednikAlgebra) -> PadicContext:
    prime, precision = cfg.get_int("prime"), cfg.precision()
    try:
        return PadicContext(prime, precision, algebra.field_ell)
    except ValueError as exc:
        raise ValidationError("prime", str(exc)) from exc


def selected_irreps(cfg: JobConfig, algebra: CherednikAlgebra):
    want = cfg.get("irrep", "all")
    if want == "all":
        return list(algebra.irreps)
    for irr in algebra.irreps:
        if irr.label == want:
            return [irr]
    raise ValidationError("irrep", f"unknown irrep {want!r}")


def _read_irreps(cfg: JobConfig, algebra: CherednikAlgebra):
    """The selected irreps of a command that reads them: for it an algebra
    with no irrep table is bad input."""
    if not algebra.irreps:
        raise ValidationError("irrep", "the algebra carries no irrep table")
    return selected_irreps(cfg, algebra)


def parse_job_element(cfg: JobConfig, algebra: CherednikAlgebra):
    text = cfg.require("element")
    if text.strip() == "euler":
        return algebra.euler_element()
    try:
        return algebra.parse_element(text)
    except ExprError as exc:
        raise ValidationError("element", str(exc)) from exc


# -- command implementations -------------------------------------------------


def _cmd_reflections(cfg: JobConfig, algebra: CherednikAlgebra) -> Report:
    rows = []
    for r in algebra.reflections:
        rows.append(
            (
                r.index,
                algebra.group.class_of[r.index],
                str(r.eigenvalue),
                "[" + ", ".join(str(x) for x in r.covector) + "]",
                "[" + ", ".join(str(x) for x in r.vector) + "]",
            )
        )
    return Report(("element", "class", "eigenvalue", "alpha", "coroot"), rows)


def _cmd_euler(cfg: JobConfig, algebra: CherednikAlgebra) -> Report:
    rows = [("euler", str(algebra.euler_element()))]
    for irr in algebra.irreps:
        rows.append((f"c({irr.label})", str(category_o.c_scalar(algebra, irr))))
    return Report(("item", "value"), rows)


def _cmd_verma_weights(cfg: JobConfig, algebra: CherednikAlgebra) -> Report:
    cutoff = cfg.get_int("cutoff", minimum=1)
    rows = []
    for irr in _read_irreps(cfg, algebra):
        slice_ = category_o.VermaSlice(algebra, irr, cutoff)
        for n in range(cutoff + 1):
            rows.append((irr.label, n, str(slice_.c_value + n), slice_.dim(n)))
    return Report(("irrep", "degree", "weight", "dim"), rows)


def _cmd_singular(cfg: JobConfig, algebra: CherednikAlgebra) -> Report:
    cutoff = cfg.get_int("cutoff", minimum=1)
    rows = []
    for irr in _read_irreps(cfg, algebra):
        slice_ = category_o.VermaSlice(algebra, irr, cutoff)
        for n in range(cutoff + 1):
            space = category_o.singular_vectors(slice_, n)
            for label in sorted(space.components):
                rows.append((irr.label, n, label, len(space.components[label])))
    return Report(("irrep", "degree", "isotype", "dim"), rows)


def _cmd_simple_character(cfg: JobConfig, algebra: CherednikAlgebra) -> Report:
    cutoff = cfg.get_int("cutoff", minimum=1)
    rows = []
    # The truncation is exact by construction, so `stable` is always yes; the
    # field stays only because the recorded report digests pin these bytes.
    stable = []
    characters = category_o.simple_characters(algebra, _read_irreps(cfg, algebra), cutoff)
    for label, character in characters.items():
        stable.append(f"{label}=yes")
        for n in sorted(character):
            rows += [(label, n, lbl, character[n][lbl]) for lbl in sorted(character[n])]
    return Report(("irrep", "degree", "label", "mult"), rows, extra={"stable": "; ".join(stable)})


def _cmd_order(cfg: JobConfig, algebra: CherednikAlgebra) -> Report:
    graph = category_o.highest_weight_order(algebra)
    rows = [(w, e) for w, e in graph.edges]
    extra = {"c_values": "; ".join(f"{lbl}={c}" for lbl, c in graph.c_values.items())}
    return Report(("source", "target"), rows, extra=extra)


def _cmd_blocks(cfg: JobConfig, algebra: CherednikAlgebra) -> Report:
    partition = category_o.blocks(algebra)
    rows = [(i, ", ".join(block)) for i, block in enumerate(partition)]
    return Report(("block", "members"), rows)


def _cmd_decomp_matrix(cfg: JobConfig, algebra: CherednikAlgebra) -> Report:
    cutoff = cfg.get_int("cutoff", minimum=1)
    # `irrep` picks the Verma rows; every simple label stays a column
    vermas = [irr.label for irr in _read_irreps(cfg, algebra)]
    matrix = category_o.decomposition_matrix(algebra, cutoff)
    labels = [irr.label for irr in algebra.irreps]
    rows = [(w, e, matrix[w][e]) for w in vermas for e in labels]
    return Report(("verma", "simple", "mult"), rows)


def _norm_text(element: banach.BanachElement) -> str:
    try:
        return str(banach.gauss_norm(element))
    except banach.TailDominated as exc:
        return f"tail-dominated (>= {exc.bound})"


def _cmd_norm(cfg: JobConfig, algebra: CherednikAlgebra) -> Report:
    level = cfg.get_int("level", minimum=0)
    params = banach.level_tower(algebra, build_context(cfg, algebra), level)[level]
    element = banach.BanachElement.from_pbw(parse_job_element(cfg, algebra), params)
    rows = []
    for term, (weight, _) in sorted(
        element.weighted.items(), key=lambda kv: (kv[1][0], kv[0])
    ):
        rows.append((signed_sum([format_term(term, element.terms[term])]), int(weight), level))
    extra = {"norm_exponent": _norm_text(element), "r": str(params.r), "tau": str(element.tau)}
    return Report(("term", "weighted_valuation", "level"), rows, extra=extra)


def _cmd_lattice_check(cfg: JobConfig, algebra: CherednikAlgebra) -> Report:
    lo, hi = cfg.level_range()
    ctx = build_context(cfg, algebra)
    tower = banach.level_tower(algebra, ctx, hi)
    # level_tower's one lattice check, at level 0, certifies every level
    rows = [(params.level, params.r, "pass", "") for params in tower[lo : hi + 1]]
    return Report(("level", "r", "status", "detail"), rows)


def _cmd_ws_decompose(cfg: JobConfig, algebra: CherednikAlgebra) -> Report:
    level = cfg.get_int("level", minimum=0)
    params = banach.level_tower(algebra, build_context(cfg, algebra), level)[level]
    element = banach.BanachElement.from_pbw(parse_job_element(cfg, algebra), params)
    rows = [
        (weight, _norm_text(component), str(component.to_pbw()))
        for weight, component in banach.weight_decompose_banach(element).items()
    ]
    return Report(("weight", "exponent", "component"), rows)


def _cmd_coadmissible_check(cfg: JobConfig, algebra: CherednikAlgebra) -> Report:
    lo, hi = cfg.level_range()
    if lo != 0:
        raise ValidationError("levels", "coadmissible families start at level 0")
    ctx = build_context(cfg, algebra)
    tower = banach.level_tower(algebra, ctx, hi)
    element = parse_job_element(cfg, algebra)
    family = [banach.BanachElement.from_pbw(element, params) for params in tower]
    failing = banach.coadmissible_check(family)
    rows = [(params.level, params.r, "ok") for params in tower]
    extra = {
        "passed": "yes" if failing is None else "no",
        "failing_level": "" if failing is None else str(failing),
    }
    return Report(("level", "r", "status"), rows, extra=extra)


_HANDLERS = {
    "reflections": _cmd_reflections,
    "euler": _cmd_euler,
    "verma-weights": _cmd_verma_weights,
    "singular": _cmd_singular,
    "simple-character": _cmd_simple_character,
    "order": _cmd_order,
    "blocks": _cmd_blocks,
    "decomp-matrix": _cmd_decomp_matrix,
    "norm": _cmd_norm,
    "lattice-check": _cmd_lattice_check,
    "ws-decompose": _cmd_ws_decompose,
    "coadmissible-check": _cmd_coadmissible_check,
}

COMMANDS = tuple(_HANDLERS)


def run_command(cfg: JobConfig) -> Report:
    """Build the job's algebra, run its command's handler on it, and stamp
    the report with the command and the config echo."""
    if cfg.command not in _HANDLERS:
        raise ValidationError("command", f"unknown command {cfg.command!r}")
    algebra = build_algebra(cfg)
    # an unknown `irrep` is bad input for every command, read or not
    selected_irreps(cfg, algebra)
    report = _HANDLERS[cfg.command](cfg, algebra)
    report.command, report.config_echo = cfg.command, cfg.echo()
    return report


def emit_report(report: Report, fmt: str = "tsv") -> str:
    """Render a report with a stable field order and a config-echo header."""
    if fmt == "tsv":
        lines = [f"# cherednik {__version__}", f"# config: {report.config_echo}"]
        for key in sorted(report.extra):
            lines.append(f"# {key}: {report.extra[key]}")
        lines.append("\t".join(report.columns))
        for row in report.rows:
            lines.append("\t".join(str(x) for x in row))
        return "\n".join(lines) + "\n"
    if fmt == "jsonl":
        head = {
            "artifact": "cherednik",
            "version": __version__,
            "command": report.command,
            "config": report.config_echo,
            "extra": report.extra,
        }
        lines = [json.dumps(head, sort_keys=True)]
        for row in report.rows:
            lines.append(
                json.dumps(dict(zip(report.columns, row)), sort_keys=True)
            )
        return "\n".join(lines) + "\n"
    raise ValidationError("format", f"unknown format {fmt!r}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 for usage problems
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(prog="cherednik", description=__doc__)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the job config file")
    parser.add_argument("--format", choices=("tsv", "jsonl"), default="tsv")
    parser.add_argument("--out", help="write the report here instead of stdout")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            cfg = parse_config(handle.read())
    except OSError as exc:
        print(f"cherednik: cannot read config: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"cherednik: config parse error: {exc}", file=sys.stderr)
        return 2
    cfg.command = args.command

    try:
        report = run_command(cfg)
    except InvalidInput as exc:
        print(f"cherednik: invalid job: {exc}", file=sys.stderr)
        return 2
    except ComputationLimit as exc:
        print(f"cherednik: computation failed: {exc}", file=sys.stderr)
        return 3

    text = emit_report(report, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"cherednik: cannot write report: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
