"""The README's quick tour runs as written, and each value shown in a `#`
comment is what str() of that expression prints; a "..." in the comment
stands for an elided part.  The README's command list and config-key table
name exactly the commands and keys that exist."""

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


def test_readme_lists_every_key_and_command():
    """The `Commands:` list is `cli.COMMANDS` in order, and the key table of
    the config grammar lists each of `config.KNOWN_KEYS` once."""
    readme = README.read_text(encoding="utf-8")
    commands = readme.split("\nCommands:", 1)[1].split("\n\n", 1)[0]
    assert re.findall(r"`([a-z-]+)`", commands) == list(cli.COMMANDS)
    grammar = readme.split("### Config file grammar", 1)[1].split("Example:", 1)[0]
    keys = re.findall(r"^\| `([a-z]+)` ", grammar, re.MULTILINE)
    assert sorted(keys) == sorted(KNOWN_KEYS)
