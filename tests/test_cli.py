"""Config parsing, command dispatch, report emission, determinism, and the
documented exit codes."""

import ast
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cherednik
from cherednik import banach, category_o, cli, groups, pbw, scalars
from cherednik.cli import build_algebra, emit_report, main, run_command
from cherednik.config import ParseError, ValidationError, parse_config
from cherednik.scalars import CherednikError, ComputationLimit, ExprError, InvalidInput
from helpers import cli_job, group_file_text

MINIMAL = """
group = cyclic:2
field = rational
c = 1/2
cutoff = 20
"""

S3_CFG = """
group = s3
field = rational
c = 1/3            # one reflection class, one value
cutoff = 8
"""

NORM_JOB = "group = cyclic:2\nc = 1/2\nprime = 3\nlevel = 0\n"


def _digits(n: int) -> str:
    """The decimal digits of n > 0, 1,000 at a time, each chunk under the
    interpreter's limit on digits."""
    chunks = []
    while n:
        n, low = divmod(n, 10**1000)
        chunks.append(f"{low:01000d}")
    return "".join(reversed(chunks)).lstrip("0")


class TestParseConfig:
    def test_minimal_config(self):
        cfg = parse_config(MINIMAL)
        assert cfg.raw["group"] == "cyclic:2"
        assert cfg.raw["c"] == "1/2"
        assert cfg.get_int("cutoff") == 20

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ParseError) as err:
            parse_config("group = s3\nfoo = 1\n")
        assert err.value.line == 2

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParseError):
            parse_config("group = s3\ngroup = s4\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ParseError):
            parse_config("group s3\n")

    def test_per_class_values_for_s3(self):
        cfg = parse_config(S3_CFG)
        cfg.command = "euler"
        algebra = build_algebra(cfg)
        assert len(algebra.c.classes) == 1

    def test_reflections_found_once_per_build(self, monkeypatch):
        calls = []

        def counting(group):
            calls.append(group)
            return groups.find_reflections(group)

        # the algebra reads the reflections its reflection function keeps
        monkeypatch.setattr(cli, "find_reflections", counting)
        algebra = build_algebra(parse_config(S3_CFG))
        assert len(calls) == 1
        assert len(algebra.reflections) == 3

    def test_per_class_count_mismatch_rejected(self):
        cfg = parse_config("group = s3\nc = 1/2, 1/3\n")
        with pytest.raises(ValidationError):
            build_algebra(cfg)

    def test_level_range(self):
        cfg = parse_config("group = s3\nlevels = 0..4\n")
        assert cfg.level_range() == (0, 4)
        bad = parse_config("group = s3\nlevels = 4\n")
        with pytest.raises(ValidationError):
            bad.level_range()


class TestRunCommand:
    def test_simple_character_table(self):
        cfg = parse_config(MINIMAL)
        cfg.command = "simple-character"
        report = run_command(cfg)
        triv_rows = [r for r in report.rows if r[0] == "triv"]
        assert triv_rows == [("triv", 0, "triv", 1)]
        assert "triv=yes" in report.extra["stable"]

    def test_order_empty_for_generic_parameter(self):
        cfg = parse_config("group = cyclic:2\nc = 1/3\n")
        cfg.command = "order"
        assert run_command(cfg).rows == []

    def test_euler_with_zero_parameter(self):
        cfg = parse_config("group = s3\nc = 0\n")
        cfg.command = "euler"
        rows = dict(run_command(cfg).rows)
        assert rows["c(triv)"] == rows["c(sgn)"] == rows["c(standard)"] == "1"

    def test_verma_weights(self):
        cfg = parse_config("group = cyclic:2\nc = 1/2\ncutoff = 3\nirrep = triv\n")
        cfg.command = "verma-weights"
        rows = run_command(cfg).rows
        assert rows == [
            ("triv", 0, "0", 1),
            ("triv", 1, "1", 1),
            ("triv", 2, "2", 1),
            ("triv", 3, "3", 1),
        ]

    def test_singular_rows(self):
        cfg = parse_config("group = cyclic:2\nc = 1/2\ncutoff = 4\n")
        cfg.command = "singular"
        rows = run_command(cfg).rows
        assert ("triv", 1, "sgn", 1) in rows
        assert all(r[1] != 2 or r[0] != "triv" for r in rows)

    def test_decomp_matrix(self):
        cfg = parse_config(MINIMAL)
        cfg.command = "decomp-matrix"
        rows = set(run_command(cfg).rows)
        assert ("triv", "sgn", 1) in rows
        assert ("sgn", "triv", 0) in rows

    def test_lattice_check(self):
        cfg = parse_config("group = cyclic:2\nc = 1/5\nprime = 5\nlevels = 0..2\n")
        cfg.command = "lattice-check"
        rows = run_command(cfg).rows
        assert rows == [(0, 1, "pass", ""), (1, 2, "pass", ""), (2, 3, "pass", "")]

    def test_ws_decompose(self):
        cfg = parse_config(
            "group = cyclic:2\nc = 1/2\nprime = 5\nlevel = 1\nelement = x1 + y1 + g1\n"
        )
        cfg.command = "ws-decompose"
        rows = run_command(cfg).rows
        assert [r[0] for r in rows] == [-1, 0, 1]

    def test_coadmissible_check_with_euler(self):
        cfg = parse_config(
            "group = cyclic:2\nc = 1/2\nprime = 5\nlevels = 0..4\nelement = euler\n"
        )
        cfg.command = "coadmissible-check"
        report = run_command(cfg)
        assert report.extra["passed"] == "yes"

    def test_unknown_irrep_rejected(self):
        cfg = parse_config("group = cyclic:2\nc = 1/2\ncutoff = 2\nirrep = nope\n")
        cfg.command = "verma-weights"
        with pytest.raises(ValidationError):
            run_command(cfg)


class TestEmission:
    def test_tsv_shape(self):
        cfg = parse_config(MINIMAL)
        cfg.command = "order"
        text = emit_report(run_command(cfg), "tsv")
        lines = text.splitlines()
        assert lines[0].startswith("# cherednik ")
        assert lines[1].startswith("# config: ")
        assert "source\ttarget" in lines
        assert lines[-1] == "triv\tsgn"

    def test_jsonl_shape(self):
        import json

        cfg = parse_config(MINIMAL)
        cfg.command = "blocks"
        text = emit_report(run_command(cfg), "jsonl")
        records = [json.loads(line) for line in text.splitlines()]
        assert records[0]["command"] == "blocks"
        assert records[1] == {"block": 0, "members": "triv, sgn"}

    def test_determinism_byte_for_byte(self):
        for command in ("simple-character", "order", "decomp-matrix"):
            cfg1 = parse_config(MINIMAL)
            cfg1.command = command
            cfg2 = parse_config(MINIMAL)
            cfg2.command = command
            assert emit_report(run_command(cfg1)) == emit_report(run_command(cfg2))

    def test_emitted_elements_reparse(self):
        cfg = parse_config(
            "group = s3\nc = 1/3\nprime = 7\nlevel = 0\nelement = x1*y2 + 5*g3 - y1^2\n"
        )
        cfg.command = "ws-decompose"
        algebra = build_algebra(cfg)
        report = run_command(cfg)
        total = algebra.zero()
        for _, _, component in report.rows:
            total = total + algebra.parse_element(component)
        assert total == algebra.parse_element(cfg.raw["element"])

    def test_random_elements_round_trip_through_reports(self):
        cfg = parse_config("group = cyclic:2\nc = 1/2\nprime = 5\nlevel = 0\nelement = x1\n")
        algebra = build_algebra(cfg)
        rng = random.Random(12)
        for _ in range(10):
            terms = {}
            for _ in range(3):
                terms[((rng.randint(0, 3),), rng.randint(0, 1), (rng.randint(0, 3),))] = (
                    Fraction(rng.randint(-5, 5), rng.randint(1, 5))
                )
            el = algebra.element(terms)
            assert algebra.parse_element(str(el)) == el


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        # argparse exits through SystemExit for bad choices
        with pytest.raises(SystemExit) as err:
            main(["definitely-not-a-command", "--config", "x"])
        assert err.value.code == 1
        capsys.readouterr()

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        code = main(["order", "--config", str(tmp_path / "absent.cfg")])
        assert code == 1

    def test_validation_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("foo = 1\n")
        assert main(["order", "--config", str(bad)]) == 2
        missing = tmp_path / "missing.cfg"
        missing.write_text("field = rational\n")  # no group
        assert main(["order", "--config", str(missing)]) == 2

    def test_zero_divisor_is_two(self, tmp_path):
        cfg = tmp_path / "job.cfg"
        for c_text in ("1/0", "0^-1"):
            cfg.write_text(f"group = cyclic:2\nc = {c_text}\n")
            assert main(["order", "--config", str(cfg)]) == 2
        group_file = tmp_path / "zero_group.txt"
        group_file.write_text("dimension = 1\nbegin generator\n1/0\nend\n")
        cfg.write_text(f"group = file:{group_file}\nc = 0\n")
        assert main(["reflections", "--config", str(cfg)]) == 2

    def test_computation_error_is_three(self, tmp_path):
        # a generator of infinite order is a computational limit, found
        # by the finite-order rule before the closure starts
        group_file = tmp_path / "bad_group.txt"
        group_file.write_text("dimension = 1\nbegin generator\n2\nend\n")
        cfg = tmp_path / "job.cfg"
        cfg.write_text(f"group = file:{group_file}\nc = 0\n")
        assert main(["reflections", "--config", str(cfg)]) == 3

    @pytest.mark.parametrize(
        "rows, code, message",
        [("1 1\n0 1", 3, "generator 1 of 1 has infinite order"), ("1 1\n1 1", 2, "invertible")],
    )
    def test_unipotent_and_singular_generators(self, tmp_path, capsys, rows, code, message):
        # det 1 does not let the unipotent generator reach MAX_GROUP_ORDER: the
        # finite-order rule names it before the closure starts; a singular
        # generator is invalid input, not a generator of infinite order
        group_file = tmp_path / "group.txt"
        group_file.write_text(f"dimension = 2\nbegin generator\n{rows}\nend\n")
        cfg = tmp_path / "job.cfg"
        cfg.write_text(f"group = file:{group_file}\nc = 0\n")
        assert main(["reflections", "--config", str(cfg)]) == code
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "second, message",
        [
            ("a dim=1\ngen\n-1", "irreps 'a' and 'a' have the same label"),
            ("c dim=1\ngen\n1", "irreps 'a' and 'c' have the same character"),
        ],
    )
    def test_repeated_irrep_is_two(self, tmp_path, capsys, second, message):
        # a repeated label once ended in a RuntimeError from the isotypic
        # block, and a repeated character in a double count of L(c)
        group_file = tmp_path / "group.txt"
        group_file.write_text(
            "dimension = 1\nbegin generator\n-1\nend\n"
            f"begin irrep a dim=1\ngen\n1\nend\nbegin irrep {second}\nend\n"
        )
        cfg = tmp_path / "job.cfg"
        cfg.write_text(f"group = file:{group_file}\nc = 3/2\ncutoff = 6\n")
        assert main(["simple-character", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "job, rs",
        [
            (
                "group = dihedral:5\nfield = cyclotomic:5\nc = 1/5\nprime = 11\n"
                "precision = 2\nlevels = 0..2\n",
                ["1", "2", "3"],
            ),
            (
                "group = cyclic:3\nfield = cyclotomic:3\nc = 1/2401\nprime = 7\n"
                "precision = 2\nlevels = 0..0\n",
                ["4"],
            ),
        ],
        ids=["dihedral5-p11", "cyclic3-p7"],
    )
    def test_low_precision_lattice_check_passes(self, job, rs, tmp_path, capsys):
        # shifted valuations stay exact, so these towers get the r of
        # precision 64; they used to end undecided (exit 3)
        cfg = tmp_path / "job.cfg"
        cfg.write_text(job)
        assert main(["lattice-check", "--config", str(cfg)]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()[3:]]
        assert [row[1] for row in rows] == rs
        assert {row[2] for row in rows} == {"pass"}

    def test_undecided_rho_c_is_three(self, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        cfg.write_text(
            "group = dihedral:5\nfield = cyclotomic:5\nc = (z - 3)/11^4\nprime = 11\n"
            "precision = 1\nlevels = 0..2\n"
        )
        assert main(["lattice-check", "--config", str(cfg)]) == 3
        assert "rho_c is undecided at precision 1" in capsys.readouterr().err

    def test_success_is_zero(self, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        cfg.write_text(MINIMAL)
        assert main(["order", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "triv\tsgn" in out

    def test_out_file(self, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text(MINIMAL)
        target = tmp_path / "report.tsv"
        assert main(["blocks", "--config", str(cfg), "--out", str(target)]) == 0
        assert "triv, sgn" in target.read_text()

    def test_unwritable_out_is_one(self, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        cfg.write_text(MINIMAL)
        target = tmp_path / "missing-dir" / "report.tsv"
        assert main(["blocks", "--config", str(cfg), "--out", str(target)]) == 1
        assert "cherednik: cannot write report:" in capsys.readouterr().err
        assert not target.exists()

    @pytest.mark.parametrize(
        "command, job",
        [
            pytest.param("verma-weights", "group = file:{group}\nc = 1/2\ncutoff = 2\n", id="dimension-zero"),
            pytest.param("order", "group = cyclic:2\nc = ²\n", id="c-superscript"),
            pytest.param("order", "group = cyclic:2\nfield = cyclotomic:²\n", id="field-superscript"),
            pytest.param("order", "group = cyclic:2\nc = " + "1" * 5000 + "\n", id="c-5000-digits"),
            pytest.param("norm", NORM_JOB + "element = x1^²\n", id="superscript-power"),
            pytest.param("norm", NORM_JOB + "element = x₁*y1\n", id="subscript-x"),
            pytest.param("norm", NORM_JOB + "element = g₁\n", id="subscript-g"),
            pytest.param(
                "order", "group = cyclic:2\nc = " + "(" * 246 + "1" + ")" * 246 + "\n", id="parentheses"
            ),
            pytest.param("order", "group = cyclic:2\nc = " + "-" * 984 + "1\n", id="unary-minus"),
        ],
    )
    def test_malformed_text_is_two(self, command, job, tmp_path, capsys):
        # int() refuses each literal, a dimension-0 group recurses in
        # monomials(0, n), and deep nesting exhausts the interpreter's stack
        group = tmp_path / "group.txt"
        group.write_text("dimension = 0\nbegin generator\nend\nbegin irrep triv dim=1\n1\nend\n")
        cfg = tmp_path / "job.cfg"
        cfg.write_text(job.format(group=group), encoding="utf-8")
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cherednik: invalid job:") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["euler", "order"])
    def test_report_values_are_exact_at_any_size(self, command, tmp_path, capsys):
        # 7^6000 has 5,071 digits, past str(int)'s limit of 4,300; for Z/2
        # the lowest weights are c(triv) = 1/2 - c and c(sgn) = 1/2 + c
        c = 7**6000
        limit = sys.get_int_max_str_digits()
        cfg = tmp_path / "job.cfg"
        cfg.write_text("group = cyclic:2\nc = 7^6000\n")
        assert main([command, "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        triv, sgn = f"-{_digits(2 * c - 1)}/2", f"{_digits(2 * c + 1)}/2"
        if command == "euler":
            assert f"euler\t1/2 - {_digits(c)}*g1 + x1*y1\n" in out
            assert f"c(triv)\t{triv}\nc(sgn)\t{sgn}\n" in out
        else:
            assert f"# c_values: triv={triv}; sgn={sgn}\n" in out
        assert sys.get_int_max_str_digits() == limit

    def test_long_literal_is_still_two(self, tmp_path, capsys):
        limit = sys.get_int_max_str_digits()
        cfg = tmp_path / "job.cfg"
        cfg.write_text("group = cyclic:2\nc = " + "7" * 5000 + "\n")
        assert main(["euler", "--config", str(cfg)]) == 2
        assert "integer literal of 5000 digits is too long" in capsys.readouterr().err
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("exc", [RuntimeError, ZeroDivisionError, RecursionError])
    def test_bug_ends_in_traceback(self, exc, tmp_path, monkeypatch):
        # only the two package roots map to exit codes; anything else is a bug
        def handler(cfg, algebra):
            raise exc("a bug, not a limit")

        monkeypatch.setitem(cli._HANDLERS, "order", handler)
        cfg = tmp_path / "job.cfg"
        cfg.write_text(MINIMAL)
        with pytest.raises(exc, match="a bug, not a limit"):
            main(["order", "--config", str(cfg)])


class TestJobIntegers:
    """Every integer of a job is read by `decimal_int`, as expression
    literals are: a sign, an underscore or an inner space exits 2 and the
    message names the key."""

    @pytest.mark.parametrize(
        "command, job, key",
        [
            pytest.param("verma-weights", "cutoff = 1_0\n", "cutoff", id="cutoff-underscore"),
            pytest.param("verma-weights", "cutoff = +4\n", "cutoff", id="cutoff-sign"),
            pytest.param("lattice-check", "prime = 1_3\nlevels = 0..1\n", "prime", id="prime"),
            pytest.param(
                "lattice-check", "prime = 3\nprecision = 6_4\nlevels = 0..1\n", "precision", id="precision"
            ),
            pytest.param("lattice-check", "prime = 3\nlevels = 0..+1\n", "levels", id="levels-sign"),
            pytest.param("lattice-check", "prime = 3\nlevels = 0 ..1\n", "levels", id="levels-space"),
            pytest.param("lattice-check", "prime = 3\nprecision = 0\nlevels = 0..1\n", "precision", id="precision-0"),
            pytest.param("order", "group = cyclic:1_2\nfield = cyclotomic:12\n", "group", id="cyclic"),
            pytest.param("order", "group = dihedral: 5\nfield = cyclotomic:5\n", "group", id="dihedral"),
        ],
    )
    def test_malformed_integer_is_two(self, command, job, key, tmp_path, capsys):
        base = "c = 1/2\n" if "group" in job else "group = cyclic:2\nc = 1/2\n"
        cfg = tmp_path / "job.cfg"
        cfg.write_text(base + job)
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cherednik: invalid job: {key}:") and "Traceback" not in err

    def test_echo_holds_the_command_that_ran(self, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("command = euler\n" + MINIMAL)
        assert main(["reflections", "--config", str(cfg)]) == 0
        echo = capsys.readouterr().out.splitlines()[1]
        assert echo.count("command=") == 1 and echo.endswith("; command=reflections")


@pytest.mark.parametrize(
    "cls,root,builtin",
    [
        (ParseError, InvalidInput, ValueError),
        (ValidationError, InvalidInput, ValueError),
        (ExprError, InvalidInput, ValueError),
        (groups.GroupFileError, InvalidInput, ValueError),
        (groups.NonIntegralEntry, InvalidInput, ValueError),
        (groups.EigenvalueNotInField, InvalidInput, ValueError),
        (groups.NotHomomorphism, InvalidInput, ValueError),
        (groups.NotIrreducible, InvalidInput, ValueError),
        (category_o.NotScalarAction, InvalidInput, ValueError),
        (pbw.RepeatedIrrep, InvalidInput, ValueError),
        (category_o.CutoffExceeded, ComputationLimit, RuntimeError),
        (category_o.InconsistentTruncation, ComputationLimit, RuntimeError),
        (category_o.SliceTooLarge, ComputationLimit, RuntimeError),
        (groups.CapExceeded, ComputationLimit, RuntimeError),
        (groups.InfiniteOrder, ComputationLimit, RuntimeError),
        (scalars.CoefficientBlowup, ComputationLimit, RuntimeError),
        (scalars.ModulusTooLarge, ComputationLimit, RuntimeError),
        (pbw.PowerTooLarge, ComputationLimit, RuntimeError),
        (banach.LevelTooHigh, ComputationLimit, RuntimeError),
        (banach.UnboundedGenerator, ComputationLimit, RuntimeError),
        (banach.PrecisionExhausted, ComputationLimit, RuntimeError),
        (banach.TailDominated, ComputationLimit, ArithmeticError),
    ],
)
def test_exception_roots(cls, root, builtin):
    # exit 2 is InvalidInput, exit 3 is ComputationLimit; the old built-in
    # base stays, so existing `except ValueError` style callers still work
    assert issubclass(cls, root) and issubclass(cls, CherednikError)
    assert issubclass(cls, builtin)
    other = ComputationLimit if root is InvalidInput else InvalidInput
    assert not issubclass(cls, other)


class TestPrecisionOverride:
    def test_environment_leaves_the_default(self, monkeypatch):
        # the precision comes from the configuration alone, so identical
        # configurations give identical reports
        monkeypatch.setenv("CHEREDNIK_PRECISION", "32")
        cfg = parse_config("group = cyclic:2\nc = 1/2\nprime = 5\nlevel = 0\nelement = x1\n")
        cfg.command = "norm"
        report = run_command(cfg)
        assert report.extra["tau"] == "64"

    def test_explicit_precision_wins(self, monkeypatch):
        monkeypatch.setenv("CHEREDNIK_PRECISION", "32")
        cfg = parse_config(
            "group = cyclic:2\nc = 1/2\nprime = 5\nprecision = 16\nlevel = 0\nelement = x1\n"
        )
        cfg.command = "norm"
        report = run_command(cfg)
        assert report.extra["tau"] == "16"


def test_group_file_job(tmp_path):
    group_file = tmp_path / "dihedral_like.txt"
    group_file.write_text(
        "dimension = 1\n"
        "begin generator\n-1\nend\n"
        "begin irrep triv dim=1\ngen\n1\nend\n"
        "begin irrep sgn dim=1\ngen\n-1\nend\n"
    )
    cfg = parse_config(f"group = file:{group_file}\nc = 1/2\ncutoff = 6\n")
    cfg.command = "decomp-matrix"
    rows = set(run_command(cfg).rows)
    assert ("triv", "sgn", 1) in rows


@pytest.mark.parametrize("c", ["1/2", "1/3", "2/3"])
def test_decomp_matrix_on_a_partial_table_is_invalid_input(c, tmp_path):
    # s3 with triv and standard listed: the unlisted L(sgn) is a composition
    # factor whose character cannot be subtracted, so no cutoff helps
    group_file = tmp_path / "s3_partial.txt"
    group_file.write_text(group_file_text("s3", ("triv", "standard")))
    done = cli_job(tmp_path, "decomp-matrix", f"group = file:{group_file}\nc = {c}\ncutoff = 8\n")
    assert done.returncode == 2, done.stderr
    assert "squared dimensions sum to 5 < |G| = 6, so every irrep must be listed" in done.stderr
    assert "cutoff" not in done.stderr and done.stdout == ""


def test_decomp_matrix_on_a_partial_table_still_solves_a_semisimple_case(tmp_path):
    # at c = 1/5 every Verma module is simple, so nothing unlisted is left
    group_file = tmp_path / "s3_partial.txt"
    group_file.write_text(group_file_text("s3", ("triv", "standard")))
    done = cli_job(tmp_path, "decomp-matrix", f"group = file:{group_file}\nc = 1/5\ncutoff = 8\n")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[2:] == [
        "verma\tsimple\tmult",
        "triv\ttriv\t1",
        "triv\tstandard\t0",
        "standard\ttriv\t0",
        "standard\tstandard\t1",
    ]


def test_runtime_imports_only_stdlib():
    """The package itself imports nothing outside the standard library;
    relative imports of its own modules are allowed."""
    sources = sorted(Path(cherednik.__file__).parent.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                (path.name, name)
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_one_version_string():
    """The version in pyproject.toml is the package's __version__.  Read
    with a regex: tomllib is not in the standard library of Python 3.10."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r'^version\s*=\s*"([^"]*)"', text, re.MULTILINE) == [cherednik.__version__]
