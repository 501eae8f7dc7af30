"""Fixture trees for the replint tests.

replint names a file ``repro.*`` only when it sits under a ``repro``
directory that is a package, so the helper writes the ``__init__.py``
files a real checkout has.
"""

from pathlib import Path


def write(root, rel, source):
    """Write ``source`` at ``root / rel``; every directory of a
    ``repro/...`` path becomes a package."""
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    parts = Path(rel).parts
    if parts[0] == "repro":
        for depth in range(1, len(parts)):
            root.joinpath(*parts[:depth], "__init__.py").touch()
    path.write_text(source)
    return path
