"""Golden-bytes corpus: sha256 digests of the package's output documents.

Every case is one ``palatogram`` command line. Each case's bytes must hash
to the digest stored in ``golden/manifest.json``. Speed work on the emitters,
the raster or the dome must leave every digest as it is. Regenerate the
manifest only for a change that means to alter output bytes:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from functools import partial
from pathlib import Path

import pytest

from palatogram import sound_names
from palatogram.cli import run

MANIFEST = Path(__file__).parent / "golden" / "manifest.json"

MODELS = ("cosine", "half_ellipse")
EPG_FORMATS = ("txt", "json", "svg", "ppm")
EPG_GRIDS = ((8, 8), (5, 11))
CORONAL_SLICES = (("t", 1.0), ("t", 8.0), ("t", 20.0), ("s", 20.0), ("s", 34.0))
MESHES = ((40, 32), (96, 128))
ANIMATION_SPEC = {"targets": ["t", "a:", "s"], "hold_ms": [80, 40, 60], "transition_ms": [120, 90]}


def golden_cases() -> dict:
    """Case name -> a callable taking a scratch directory and returning the case's bytes."""
    cases = {}
    for model in MODELS:
        for sound in sound_names():
            for rows, cols in EPG_GRIDS:
                for fmt in EPG_FORMATS:
                    cases[f"epg/{sound}/{model}/{rows}x{cols}.{fmt}"] = partial(cli_bytes, [
                        "epg", "--sound", sound, "--model", model,
                        "--rows", str(rows), "--cols", str(cols), "--format", fmt,
                    ])
        for sound, x in CORONAL_SLICES:
            for fmt in ("svg", "json"):
                cases[f"slice/{sound}/{model}/x{x}.{fmt}"] = partial(cli_bytes, [
                    "slice", "--sound", sound, "--model", model, "--x", str(x), "--format", fmt,
                ])
        for nx, nz in MESHES:
            base = ["mesh", "--model", model, "--nx", str(nx), "--nz", str(nz)]
            cases[f"mesh/{model}/{nx}x{nz}.obj"] = partial(cli_bytes, base)
            cases[f"mesh/t/{model}/{nx}x{nz}.obj"] = partial(cli_bytes, base + ["--sound", "t"])
        cases[f"animate/{model}/8x8.svg"] = partial(cli_bytes, ["animate", "--model", model])
    return cases


def cli_bytes(argv: list[str], workdir: Path) -> bytes:
    """The bytes a user gets from one command: the output file, or all frames in order."""
    if argv[0] == "animate":
        spec = workdir / "spec.json"
        spec.write_text(json.dumps(ANIMATION_SPEC), encoding="utf-8")
        outdir = workdir / "frames"
        assert run(argv + ["--spec", str(spec), "--outdir", str(outdir)]) == 0
        frames = sorted(outdir.iterdir())
        assert frames
        return b"".join(p.name.encode("ascii") + b"\n" + p.read_bytes() for p in frames)
    out = workdir / "out"
    assert run(argv + ["--out", str(out)]) == 0
    return out.read_bytes()


def digest(case, workdir: Path) -> str:
    return hashlib.sha256(case(workdir)).hexdigest()


CASES = golden_cases()


@pytest.fixture(scope="module")
def manifest() -> dict[str, str]:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_manifest_covers_exactly_the_cases(manifest):
    assert sorted(manifest) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name, manifest, tmp_path):
    assert digest(CASES[name], tmp_path) == manifest[name]


def write_manifest() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        digests = {}
        for name in sorted(CASES):
            workdir = Path(tmp) / str(len(digests))
            workdir.mkdir()
            digests[name] = digest(CASES[name], workdir)
    MANIFEST.write_text(json.dumps(digests, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {MANIFEST}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    write_manifest()
