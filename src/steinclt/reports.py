"""CSV/JSON emission with reproducible bytes.

CSV files start with a versioned comment line; identical inputs and seed give
identical bytes below it.  JSON mirrors the rows and adds metadata (schema
version, git revision when available, the numpy, scipy, Python and steinclt
versions, and an echo of the configuration).
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import scipy

from . import __version__

CSV_SCHEMA = "steinclt-csv v1"
JSON_SCHEMA = "steinclt-json v1"


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    text = str(value)
    if "," in text or '"' in text:
        text = '"' + text.replace('"', '""') + '"'
    return text


def _json_default(value):
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


def rows_to_csv(subcommand: str, columns, rows) -> str:
    lines = [f"# {CSV_SCHEMA} subcommand={subcommand}"]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(row.get(col)) for col in columns))
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=1)
def git_revision() -> str:
    """HEAD of the checkout the package runs from; looked up once per process."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except Exception:
        pass
    return "unknown"


def payload_to_json(subcommand: str, columns, rows, config: dict, extras: dict | None = None) -> str:
    payload = {
        "schema": JSON_SCHEMA,
        "subcommand": subcommand,
        "git_revision": git_revision(),
        "versions": {
            "numpy": np.__version__,
            "python": platform.python_version(),
            "scipy": scipy.__version__,
            "steinclt": __version__,
        },
        "config": config,
        "columns": list(columns),
        "rows": rows,
    }
    if extras:
        payload["extras"] = extras
    return json.dumps(payload, indent=1, sort_keys=True, default=_json_default) + "\n"


def emit(subcommand, columns, rows, config, out=None, fmt="csv", extras=None) -> None:
    """Write reports to stdout or to out.csv / out.json files.

    Each text is built only when it is written, so CSV-only output never
    looks up the git revision.
    """
    if out is None:
        if fmt == "json":
            sys.stdout.write(payload_to_json(subcommand, columns, rows, config, extras))
        else:
            sys.stdout.write(rows_to_csv(subcommand, columns, rows))
        return
    base = Path(out)
    base.parent.mkdir(parents=True, exist_ok=True)
    if fmt in ("csv", "both"):
        csv_text = rows_to_csv(subcommand, columns, rows)
        base.with_suffix(".csv").write_text(csv_text, encoding="utf-8")
    if fmt in ("json", "both"):
        json_text = payload_to_json(subcommand, columns, rows, config, extras)
        base.with_suffix(".json").write_text(json_text, encoding="utf-8")
