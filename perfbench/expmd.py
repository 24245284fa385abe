"""The committed EXPERIMENTS.md, split into its table sections.

``jobs/build_experiments_md.py`` writes the header and one section per
table joined by blank lines, each section starting with ``## ``. The
benchmark compares each section it regenerates with the committed one
byte for byte.
"""
from __future__ import annotations

from pathlib import Path

SEP = "\n\n## "


def sections(path: Path) -> dict[str, str]:
    """Section text keyed by its first line (``## T-7 — ...``)."""
    text = path.read_text()
    if not text.endswith("\n"):
        raise ValueError(f"{path} does not end with a newline")
    head, *rest = text[:-1].split(SEP)
    out: dict[str, str] = {}
    for chunk in rest:
        body = "## " + chunk
        out[body.split("\n", 1)[0]] = body
    if head + "".join(SEP + s[3:] for s in out.values()) + "\n" != text:
        raise ValueError(f"{path} has a repeated or malformed section heading")
    return out


def matches(expected: dict[str, str], rendered: str) -> bool:
    """True when ``rendered`` equals the committed section of the same heading."""
    return expected.get(rendered.split("\n", 1)[0]) == rendered
