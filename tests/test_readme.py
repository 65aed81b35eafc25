"""The README's quick tour runs as written, and each value shown in a `#`
comment is what str() of that expression prints; a "..." in the comment
stands for an elided part.  The README's example config and example group
file run through the command line.  The README's command list and
config-key table name exactly the commands and keys that exist."""

import ast
import io
import re
import tokenize
from pathlib import Path

from cherednik import cli
from cherednik.config import KNOWN_KEYS

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    return re.search(r"## Quick tour\n\n```python\n(.*?)```", text, re.S).group(1)


def test_quick_tour_values_match_their_comments():
    source = quick_tour()
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
            shown = comments.get(stmt.end_lineno)
            if shown is not None:
                # "..." elides the middle (or, at the end, the rest) of a value
                head, elided, tail = shown.partition("...")
                text = str(value)
                if elided:
                    assert text.startswith(head) and text.endswith(tail), (shown, text)
                else:
                    assert text == shown
                checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    assert checked == len(comments) and checked >= 4


def fenced_block(*markers: str) -> str:
    """The first fenced block of the README after each of the markers in turn."""
    text = README.read_text(encoding="utf-8")
    for marker in markers:
        text = text.split(marker, 1)[1]
    return re.search(r"```\n(.*?)```", text, re.S).group(1)


def run_cli(command, config, tmp_path) -> str:
    cfg, out = tmp_path / "job.cfg", tmp_path / "job.tsv"
    cfg.write_text(config, encoding="utf-8")
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


def test_config_grammar_example_runs(tmp_path):
    example = fenced_block("### Config file grammar", "Example:")
    report = run_cli("simple-character", example, tmp_path)
    # L(triv) at c = 1/2 is the trivial module alone
    assert "\ntriv\t0\ttriv\t1\nsgn\t0\tsgn\t1\n" in report


def test_group_file_example_runs(tmp_path):
    group = tmp_path / "order-two.grp"
    group.write_text(fenced_block("### Group data files"), encoding="utf-8")
    report = run_cli("decomp-matrix", f"group = file:{group}\nc = 1/2\ncutoff = 3\n", tmp_path)
    assert "\ntriv\tsgn\t1\n" in report


def test_readme_lists_every_key_and_command():
    """The `Commands:` list is `cli.COMMANDS` in order, and the key table of
    the config grammar lists each of `config.KNOWN_KEYS` once."""
    readme = README.read_text(encoding="utf-8")
    commands = readme.split("\nCommands:", 1)[1].split("\n\n", 1)[0]
    assert re.findall(r"`([a-z-]+)`", commands) == list(cli.COMMANDS)
    grammar = readme.split("### Config file grammar", 1)[1].split("Example:", 1)[0]
    keys = re.findall(r"^\| `([a-z]+)` ", grammar, re.MULTILINE)
    assert sorted(keys) == sorted(KNOWN_KEYS)
