"""Versioned on-disk format for conductivity grids.

Files carry a plain-text header (key = value lines, terminated by a line
of three dashes) followed by raw little-endian float64 payload bytes.  The
header records a sha256 of the payload; loads verify it and its length
and refuse version mismatches outright.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .conductivity import Conductivity
from .geometry import GeometryConfig, Region

__all__ = [
    "FormatError",
    "save_conductivity",
    "load_conductivity",
]

CONDUCTIVITY_MAGIC = "fraccond-conductivity"
FORMAT_VERSION = 1


class FormatError(RuntimeError):
    """Corrupt, tampered or incompatible file."""


def _payload_sha(arrays, fields):
    """Integrity hash covering both the binary payload and the header."""
    hsh = hashlib.sha256()
    for key in sorted(fields):
        hsh.update(f"{key}={fields[key]}\n".encode())
    for a in arrays:
        hsh.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return hsh.hexdigest()


def _write(path, magic, fields, arrays):
    lines = [f"{magic} v{FORMAT_VERSION}"]
    for key, value in fields.items():
        lines.append(f"{key} = {value}")
    lines.append(f"payload_sha = {_payload_sha(arrays, fields)}")
    lines.append("---")
    header = ("\n".join(lines) + "\n").encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        for a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def _read(path, magic):
    raw = Path(path).read_bytes()
    sep = b"---\n"
    pos = raw.find(sep)
    if pos < 0:
        raise FormatError(f"{path}: missing header terminator")
    header = raw[:pos].decode("ascii", errors="replace").splitlines()
    payload = raw[pos + len(sep):]
    if not header or not header[0].startswith(magic):
        raise FormatError(f"{path}: not a {magic} file")
    tag = header[0].split()[-1]
    if tag != f"v{FORMAT_VERSION}":
        raise FormatError(
            f"{path}: format {tag} unsupported; this build reads "
            f"v{FORMAT_VERSION} (regenerate the file)"
        )
    fields = {}
    for line in header[1:]:
        if not line.strip():
            continue
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    return fields, payload


def _geometry_fields(geom):
    regions = [
        {"name": r.name, "kind": r.kind, "data": r.data} for r in geom.measurement_sets
    ]
    return {
        "n": geom.n,
        "s": repr(geom.s),
        "L": repr(geom.box_halfwidth),
        "N": geom.grid_points,
        "omega_radius": repr(geom.omega_radius),
        "regions": json.dumps(regions),
        "geometry_hash": geom.content_hash(),
    }


def _geometry_from_fields(fields):
    regions = []
    for spec in json.loads(fields["regions"]):
        data = spec["data"]
        data = tuple(tuple(d) if isinstance(d, list) else d for d in data)
        regions.append(Region(spec["name"], spec["kind"], data))
    return GeometryConfig(
        n=int(fields["n"]),
        s=float(fields["s"]),
        box_halfwidth=float(fields["L"]),
        grid_points=int(fields["N"]),
        omega_radius=float(fields["omega_radius"]),
        measurement_sets=tuple(regions),
    )


def save_conductivity(path, gamma: Conductivity, seed=None):
    fields = _geometry_fields(gamma.geometry)
    fields["gamma0"] = repr(gamma.gamma0)
    fields["seed"] = "" if seed is None else str(seed)
    _write(path, CONDUCTIVITY_MAGIC, fields, [gamma.values])


def load_conductivity(path) -> Conductivity:
    fields, payload = _read(path, CONDUCTIVITY_MAGIC)
    geom = _geometry_from_fields(fields)
    count = geom.grid_points**geom.n
    if len(payload) != 8 * count:
        raise FormatError(
            f"{path}: payload holds {len(payload)} bytes, expected {8 * count}"
        )
    values = np.frombuffer(payload, dtype="<f8").reshape(geom.shape)
    expected = fields.pop("payload_sha", None)
    if _payload_sha([values], fields) != expected:
        raise FormatError(f"{path}: payload hash mismatch (file corrupt or tampered)")
    return Conductivity(geom, values, gamma0=float(fields["gamma0"]))

