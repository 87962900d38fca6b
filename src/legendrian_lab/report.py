"""Structured numerical reports: key -> value maps with twin serializations.

Reports serialize to a human-readable ``key = value`` text block and to
JSON with sorted keys.  Floats go through repr (shortest round-trip), so
identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


class Report:
    """Insertion-ordered flat map of numbers, flags and labels."""

    def __init__(self):
        self._items = {}

    def set(self, key, value):
        if isinstance(value, (bool, int, str)) or value is None:
            self._items[key] = value
        else:
            self._items[key] = float(value)
        return self

    def __getitem__(self, key):
        return self._items[key]

    def to_text(self):
        lines = [f"{k} = {_fmt(v)}" for k, v in self._items.items()]
        return "\n".join(lines) + "\n"

    def to_json(self):
        return json.dumps(self._items, sort_keys=True, indent=2) + "\n"

    def write(self, outdir):
        """Write report.txt and report.json into outdir; return the JSON path."""
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "report.txt").write_text(self.to_text())
        path = outdir / "report.json"
        path.write_text(self.to_json())
        return path
