"""The CLI job lists of the three CLI workloads.

A job is one `cherednik <command> --config <file>` call.  Group, field, c and
cutoff are fixed per job, so a job's cost class does not depend on the seed.
The seed draws only the job order and, for the element-valued jobs of
`pbw-banach`, one element out of a fixed pool of same-shape expressions.  The
pools are small enough that `record.py` records the report digest of every
member, so every job of every seed is checked against a recorded digest.
"""

from __future__ import annotations

import random

# Coefficients substituted into the element templates: units of the field,
# so the seed changes the report bytes but not the size of the numbers, and
# every pool member of a job costs about the same.
COEFS_Q = ("1", "-1")
COEFS_Z = ("1", "z", "z^2", "z^3", "-1", "-z", "-z^2", "-z^3")

# The deep-degree job: straightening y1 past x1^1500 recurses once per degree
# and raises RecursionError, which the CLI reports as "computation failed"
# (exit 3).  It stays in the workload as a known defect.
DEEP_ELEMENT = "y1*x1^1500"
DEEP_DEFECT = "maximum recursion depth exceeded"

VERMA_Q = (
    ("singular", {"group": "s4", "c": "1/2", "cutoff": "4"}),
    ("decomp-matrix", {"group": "s4", "c": "1/2", "cutoff": "3"}),
    ("simple-character", {"group": "s3", "c": "1/2", "cutoff": "12"}),
    ("verma-weights", {"group": "s4", "c": "1/2", "cutoff": "10"}),
    ("verma-weights", {"group": "s3", "c": "1/3", "cutoff": "12"}),
    ("verma-weights", {"group": "cyclic:2", "c": "1/2", "cutoff": "30"}),
    ("singular", {"group": "cyclic:2", "c": "3/2", "cutoff": "20"}),
    ("singular", {"group": "cyclic:2", "c": "5/2", "cutoff": "20"}),
    ("simple-character", {"group": "cyclic:2", "c": "3/2", "cutoff": "20"}),
    ("decomp-matrix", {"group": "cyclic:2", "c": "1/2", "cutoff": "12"}),
)

VERMA_CYCLOTOMIC = (
    ("singular", {"group": "dihedral:6", "field": "cyclotomic:6", "c": "1/6", "cutoff": "16"}),
    ("simple-character", {"group": "dihedral:5", "field": "cyclotomic:5", "c": "1/5", "cutoff": "16"}),
    ("decomp-matrix", {"group": "dihedral:4", "field": "cyclotomic:4", "c": "1/4", "cutoff": "10"}),
    ("singular", {"group": "dihedral:8", "field": "cyclotomic:8", "c": "1/8", "cutoff": "10"}),
    ("simple-character", {"group": "dihedral:7", "field": "cyclotomic:7", "c": "1/7", "cutoff": "10"}),
    ("singular", {"group": "cyclic:6", "field": "cyclotomic:6", "c": "1/6", "cutoff": "12"}),
    ("verma-weights", {"group": "dihedral:8", "field": "cyclotomic:8", "c": "1/8", "cutoff": "12"}),
    ("verma-weights", {"group": "cyclic:6", "field": "cyclotomic:6", "c": "1/6", "cutoff": "16"}),
)

# (command, fixed keys, element template or None, coefficient pool)
PBW_BANACH = (
    ("norm", {"group": "dihedral:8", "field": "cyclotomic:8", "c": "1/8", "prime": "17", "level": "1"},
     "(({u})*x1 + y2 + x2 + g5)^7", COEFS_Z),
    ("ws-decompose", {"group": "s4", "c": "1/2", "prime": "3", "level": "1"},
     "(x1 + ({u})*y2 + g7)^6", COEFS_Q),
    ("coadmissible-check", {"group": "s3", "c": "1/2", "prime": "5", "levels": "0..4"},
     "(x1 + ({u})*y2 + g1)^6", COEFS_Q),
    ("norm", {"group": "cyclic:2", "c": "1/2", "prime": "3", "level": "1"},
     "(({u})*x1 + y1 + g1)^8", COEFS_Q),
    ("ws-decompose", {"group": "dihedral:5", "field": "cyclotomic:5", "c": "1/5", "prime": "11", "level": "1"},
     "(x1 + ({u})*y2 + g2)^4", COEFS_Z),
    ("lattice-check", {"group": "s4", "c": "1/2", "prime": "3", "levels": "0..6"}, None, ()),
    ("lattice-check", {"group": "dihedral:5", "field": "cyclotomic:5", "c": "1/5", "prime": "11", "levels": "0..3"}, None, ()),
    ("reflections", {"group": "s4", "c": "1/2"}, None, ()),
    ("euler", {"group": "dihedral:5", "field": "cyclotomic:5", "c": "1/5"}, None, ()),
    ("order", {"group": "s3", "c": "1"}, None, ()),
    ("blocks", {"group": "s4", "c": "1"}, None, ()),
    ("ws-decompose", {"group": "cyclic:2", "c": "1/2", "prime": "3", "level": "0",
                      "element": DEEP_ELEMENT}, None, ()),
)


def config_text(keys: dict) -> str:
    """The config file body, one `key = value` line per key in sorted order."""
    return "".join(f"{k} = {keys[k]}\n" for k in sorted(keys))


def _pbw_banach_variants(entry):
    command, keys, template, pool = entry
    if template is None:
        return [(command, dict(keys))]
    return [(command, {**keys, "element": template.format(u=u)}) for u in pool]


def cli_jobs(workload: str, seed: int) -> list:
    """The seeded job list of one CLI workload as (command, keys) pairs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verma-q":
        jobs = [(cmd, dict(keys)) for cmd, keys in VERMA_Q]
    elif workload == "verma-cyclotomic":
        jobs = [(cmd, dict(keys)) for cmd, keys in VERMA_CYCLOTOMIC]
    elif workload == "pbw-banach":
        jobs = [rng.choice(_pbw_banach_variants(entry)) for entry in PBW_BANACH]
    else:
        raise ValueError(f"{workload!r} is not a CLI workload")
    rng.shuffle(jobs)
    return jobs


def all_recordable_jobs() -> list:
    """Every job any seed can draw, for recording digests."""
    jobs = [(cmd, dict(keys)) for cmd, keys in VERMA_Q + VERMA_CYCLOTOMIC]
    for entry in PBW_BANACH:
        jobs.extend(_pbw_banach_variants(entry))
    return jobs


def is_deep_job(command: str, keys: dict) -> bool:
    return command == "ws-decompose" and keys.get("element") == DEEP_ELEMENT
