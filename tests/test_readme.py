"""README's function list names exactly the package's public functions."""

import inspect
import re
from pathlib import Path

import shapesplit

README = Path(__file__).resolve().parents[1] / "README.md"


def listed_functions(text: str) -> list[str]:
    """The names in backquotes in the Library section's list of plain functions.

    The list runs from "plain functions:" to "plus the readers/writers", so
    the ``shapesplit.io`` functions it names as a group are not in it.
    """
    library = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    start = library.index("plain functions:")
    return re.findall(r"`(\w+)`", library[start : library.index("plus the", start)])


def test_readme_lists_exactly_the_public_functions():
    public = {
        name
        for name in shapesplit.__all__
        if inspect.isfunction(obj := getattr(shapesplit, name)) and obj.__module__ != "shapesplit.io"
    }
    listed = listed_functions(README.read_text())
    assert len(listed) == len(set(listed)), listed
    assert set(listed) == public
