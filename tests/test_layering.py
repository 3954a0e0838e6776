"""The stage modules, and the file formats and checks they share, never
import the pipeline composition above them."""

import ast
from pathlib import Path

import pytest

import shapesplit

PACKAGE = Path(shapesplit.__file__).parent
STAGES = ("grid", "distance", "eikonal", "subdivision", "io", "validation")
ABOVE = {"centerline", "estimators", "cli"}


def imported_names(source: str) -> set[str]:
    """Every dotted name an import in ``source`` mentions, and each of its parts."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            dotted = [node.module or ""] + [f"{node.module or ''}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in dotted:
            names.update(part for part in name.split(".") if part)
    return names


def test_imported_names_sees_every_import_form():
    source = "import shapesplit.cli\nfrom . import estimators\nfrom .centerline import _run\n"
    assert ABOVE <= imported_names(source)
    assert not ABOVE & imported_names("from .validation import check_mask\nimport numpy as np\n")


@pytest.mark.parametrize("stage", STAGES)
def test_stage_does_not_import_the_composition(stage):
    above = ABOVE & imported_names((PACKAGE / f"{stage}.py").read_text())
    assert not above, f"{stage}.py imports {sorted(above)}"


def test_centerline_uses_only_public_wave_steps():
    # The pipeline composes the public wave steps, the shared voxel graph
    # and its march among them, and imports no underscore name from
    # ``eikonal``.
    private = set()
    for node in ast.walk(ast.parse((PACKAGE / "centerline.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "eikonal":
            private.update(alias.name for alias in node.names if alias.name.startswith("_"))
    assert not private, f"centerline.py imports {sorted(private)} from .eikonal"
