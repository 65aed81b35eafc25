"""Plain-text key-value job configuration with a strict, archivable grammar.

One ``key = value`` pair per line; ``#`` starts a comment; unknown keys are
rejected with the offending line number.  Values stay as raw strings here
and are validated when a command asks for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .scalars import InvalidInput, decimal_int

KNOWN_KEYS = {
    "group",
    "field",
    "c",
    "prime",
    "precision",
    "cutoff",
    "levels",
    "level",
    "element",
    "irrep",
    "seed",
    "command",
}


class ParseError(InvalidInput):
    """Malformed configuration text."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ValidationError(InvalidInput):
    """A field is missing or holds an unusable value."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


@dataclass
class JobConfig:
    """Raw job parameters plus the command under which they will run."""

    raw: dict = field(default_factory=dict)
    command: str | None = None

    def get(self, key: str, default=None):
        return self.raw.get(key, default)

    def require(self, key: str) -> str:
        if key not in self.raw:
            raise ValidationError(key, "required by this command but missing")
        return self.raw[key]

    def get_int(self, key: str, default=None, minimum=None) -> int:
        text = self.raw.get(key)
        if text is None:
            if default is None:
                raise ValidationError(key, "required by this command but missing")
            return default
        value = decimal_int(text)
        if value is None:
            raise ValidationError(key, f"expected decimal digits, got {text!r}")
        if minimum is not None and value < minimum:
            raise ValidationError(key, f"must be >= {minimum}")
        return value

    def precision(self) -> int:
        """The `precision` key, else 64."""
        return self.get_int("precision", 64, minimum=1)

    def level_range(self) -> tuple[int, int]:
        text = self.require("levels")
        lo, sep, hi = text.partition("..")
        if not sep:
            raise ValidationError("levels", f"expected A..B, got {text!r}")
        lo_i, hi_i = decimal_int(lo), decimal_int(hi)
        if lo_i is None or hi_i is None:
            raise ValidationError("levels", f"expected A..B with decimal digits, got {text!r}")
        if hi_i < lo_i:
            raise ValidationError("levels", "range must satisfy 0 <= A <= B")
        return lo_i, hi_i

    def echo(self) -> str:
        """The keys in sorted order, the raw `command` key left out, then the
        command that runs."""
        parts = [f"{k}={self.raw[k]}" for k in sorted(self.raw) if k != "command"]
        if self.command:
            parts.append(f"command={self.command}")
        return "; ".join(parts)


def parse_config(text: str) -> JobConfig:
    """Parse and validate the key-value grammar; unknown keys are rejected."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, sep, value = body.partition("=")
        if not sep:
            raise ParseError(lineno, f"expected 'key = value', got {body!r}")
        key = key.strip()
        value = value.strip()
        if key not in KNOWN_KEYS:
            raise ParseError(lineno, f"unknown key {key!r}")
        if key in raw:
            raise ParseError(lineno, f"duplicate key {key!r}")
        if not value:
            raise ParseError(lineno, f"key {key!r} has an empty value")
        raw[key] = value
    return JobConfig(raw=raw, command=raw.get("command"))
