"""File formats: KCI v1 instance text, clustering JSON, report JSON.

Floats are serialized with repr, which round-trips every double exactly,
so parse(emit(instance)) == instance bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile

import numpy as np

from .core import Clustering, Instance, label_groups, validate_instance


class KciFormatError(ValueError):
    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


def emit_instance(instance: Instance) -> str:
    lines = [f"kci 1", f"mode {instance.mode}", f"n {instance.n}"]
    for row in instance.dist:
        lines.append(" ".join(map(repr, row.tolist())))
    return "\n".join(lines) + "\n"


def parse_instance(text: str, slack: float = 0.0) -> Instance:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "kci 1":
        raise KciFormatError(1, "expected header 'kci 1'")
    if len(lines) < 3:
        raise KciFormatError(len(lines), "truncated file")
    mode_parts = lines[1].split()
    if len(mode_parts) != 2 or mode_parts[0] != "mode" \
            or mode_parts[1] not in ("symmetric", "asymmetric"):
        raise KciFormatError(2, "expected 'mode symmetric' or 'mode asymmetric'")
    mode = mode_parts[1]
    n_parts = lines[2].split()
    if len(n_parts) != 2 or n_parts[0] != "n":
        raise KciFormatError(3, "expected 'n <int>'")
    try:
        n = int(n_parts[1])
    except ValueError:
        raise KciFormatError(3, f"bad point count {n_parts[1]!r}")
    if n < 1:
        raise KciFormatError(3, "n must be >= 1")
    if len(lines) < 3 + n:
        raise KciFormatError(len(lines), f"expected {n} distance rows")
    rows = []
    for i in range(n):
        parts = lines[3 + i].split()
        if len(parts) != n:
            raise KciFormatError(4 + i, f"expected {n} entries, got {len(parts)}")
        try:
            rows.append(list(map(float, parts)))
        except ValueError:
            raise KciFormatError(4 + i, "non-numeric distance entry")
    table = np.asarray(rows)
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if bad.size:
        raise KciFormatError(4 + int(bad[0]), "non-finite distance entry")
    for i in range(3 + n, len(lines)):
        if lines[i].strip():
            raise KciFormatError(i + 1, f"text after the {n} distance rows")
    return validate_instance(table, mode, slack=slack)


def clustering_to_dict(clustering: Clustering) -> dict:
    """Nonempty clusters as ``label_groups`` orders them; centers aligned."""
    assignment = clustering.assignment
    groups = label_groups(np.asarray(assignment))
    return {
        "k": clustering.k,
        "radius": clustering.radius,
        "centers": [clustering.centers[assignment[g[0]]] for g in groups],
        "clusters": groups,
    }


def emit_clustering(clustering: Clustering) -> str:
    return json.dumps(clustering_to_dict(clustering), indent=2) + "\n"


def parse_clustering(text: str) -> Clustering:
    data = json.loads(text)
    k = data["k"]
    centers = tuple(data["centers"])
    clusters = data["clusters"]
    if type(k) is not int or not k == len(clusters) == len(centers):
        raise ValueError(f"k = {k} but {len(clusters)} clusters and "
                         f"{len(centers)} centers")
    # n points, each in 0..n-1 and none twice: every point appears once
    n = sum(len(g) for g in clusters)
    assignment = [None] * n
    for i, g in enumerate(clusters):
        for p in g:
            if type(p) is not int or not 0 <= p < n:
                raise ValueError(f"point {p!r} is not in 0..{n - 1}")
            if assignment[p] is not None:
                raise ValueError(f"point {p} appears more than once")
            assignment[p] = i
    for i, c in enumerate(centers):
        if type(c) is not int or not 0 <= c < n or assignment[c] != i:
            raise ValueError(f"center {c!r} is not in its cluster {i}")
    radius = data["radius"]
    if type(radius) not in (int, float) \
            or not 0 <= radius <= sys.float_info.max:
        raise ValueError(f"radius must be a finite number >= 0, "
                         f"got {radius!r}")
    return Clustering(k=k, centers=centers, assignment=tuple(assignment),
                      radius=float(radius))


def to_jsonable(obj):
    """Recursively convert dataclasses/numpy/tuples for JSON reports."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, dict):
        return {str(key): to_jsonable(v) for key, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, float) and obj == float("inf"):
        return "inf"
    return obj


def write_atomic(path: str, text: str):
    """Write via temp file + rename so failures never leave partial output."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
