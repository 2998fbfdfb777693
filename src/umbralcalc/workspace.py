"""Workspace persistence: user-defined umbrae in a small JSON file.

Format::

    {"version": 1, "umbrae": {"name": {"moments": ["1", "1/2", ...]}}}

Moments are rational strings indexed by power.  Unknown fields anywhere in
the document are preserved across read/modify/write cycles, and writes are
atomic (write to a temp file in the same directory, then rename), keep an
existing file's permission bits and give a new file 0o666 less the umask.
A document that does not have this shape raises :class:`WorkspaceError`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .errors import UmbraSyntaxError, WorkspaceError
from .parser import RESERVED_NAMES, Token, tokenize
from .rationals import format_rational, parse_rational
from .umbra import BUILTIN_UMBRAE, Umbra

WORKSPACE_VERSION = 1


def empty_workspace() -> dict:
    return {"version": WORKSPACE_VERSION, "umbrae": {}}


def load_raw(path: str | Path) -> dict:
    """The raw JSON document; a missing file reads as an empty workspace."""
    p = Path(path)
    if not p.exists():
        return empty_workspace()
    try:
        with open(p, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8 or nested too deep to parse
        raise WorkspaceError(f"{p}: not a JSON document ({exc})") from None
    if not isinstance(data, dict):
        raise WorkspaceError(f"{p}: workspace root must be a JSON object")
    version = data.get("version", WORKSPACE_VERSION)
    if version != WORKSPACE_VERSION:
        raise WorkspaceError(f"{p}: unsupported workspace version {version!r}")
    data.setdefault("version", WORKSPACE_VERSION)
    if not isinstance(data.setdefault("umbrae", {}), dict):
        raise WorkspaceError(f"{p}: 'umbrae' must be a JSON object")
    return data


def check_name(name: str) -> None:
    """Raise ValueError unless ``name`` may name a user umbra: the whole text
    is one NAME token, so that an expression can mention it."""
    if name in RESERVED_NAMES or name in BUILTIN_UMBRAE:
        raise ValueError(f"name {name!r} is reserved")
    try:
        tokens = tokenize(name)
    except UmbraSyntaxError:
        tokens = []
    if tokens != [Token("NAME", name, 0), Token("EOF", "", len(name))]:
        raise ValueError(f"name {name!r} is not a valid umbra name")


def umbrae_from_raw(data: dict, source: str = "workspace") -> dict[str, Umbra]:
    """The umbrae of a raw document; ``source`` names it in error messages."""
    umbrae = data.get("umbrae", {})
    if not isinstance(umbrae, dict):
        raise WorkspaceError(f"{source}: 'umbrae' must be a JSON object")
    out: dict[str, Umbra] = {}
    for name, entry in umbrae.items():
        moments = entry.get("moments") if isinstance(entry, dict) else None
        if not isinstance(moments, list) or not all(isinstance(m, str) for m in moments):
            raise WorkspaceError(
                f"{source}: umbra {name!r} must be an object with a 'moments' list of strings"
            )
        try:
            check_name(name)
            out[name] = Umbra([parse_rational(m) for m in moments], name=name)
        except ValueError as exc:
            raise WorkspaceError(f"{source}: umbra {name!r}: {exc}") from None
    return out


def load_umbrae(path: str | Path) -> dict[str, Umbra]:
    return umbrae_from_raw(load_raw(path), str(path))


def set_umbra(data: dict, name: str, umbra: Umbra) -> None:
    """Insert or replace one definition, keeping any extra entry fields."""
    entry = dict(data.setdefault("umbrae", {}).get(name, {}))
    entry["moments"] = [format_rational(m) for m in umbra.moments]
    data["umbrae"][name] = entry


def save_raw(path: str | Path, data: dict) -> None:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    tmp = p.parent / f".{p.name}.{os.urandom(6).hex()}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # 0o666 less the umask, as open() makes it
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            if p.exists():
                os.chmod(tmp, p.stat().st_mode & 0o7777)
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, p)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
