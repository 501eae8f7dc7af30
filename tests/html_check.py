"""Well-formedness check for the HTML views (``report``, ``diff --html``,
``inspect --html``).

Every tag a view opens must be closed, innermost first; ``<meta>`` is
the one void element the views write.  A golden SHA-256 pins a view's
bytes, but a new table has no golden yet, and this check still holds
it to balanced markup.

    python -m tests.html_check FILE...   # exit 1 and one line per problem
"""

import sys
from html.parser import HTMLParser
from typing import List

#: Elements that never take a closing tag in the views' markup.
VOID = frozenset({"meta"})


class _Balance(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.stack: List[str] = []
        self.problems: List[str] = []

    def handle_starttag(self, tag, attrs) -> None:
        if tag not in VOID:
            self.stack.append(tag)

    def handle_endtag(self, tag) -> None:
        if tag in VOID:
            self.problems.append(f"</{tag}> closes a void element")
        elif not self.stack:
            self.problems.append(f"</{tag}> with nothing open")
        elif self.stack[-1] != tag:
            self.problems.append(
                f"</{tag}> closes <{self.stack[-1]}> (open: "
                f"{' > '.join(self.stack)})"
            )
        else:
            self.stack.pop()


def html_problems(text: str) -> List[str]:
    """What is unbalanced in ``text``: one line per problem, empty when
    every opened tag is closed in order."""
    parser = _Balance()
    parser.feed(text)
    parser.close()
    return parser.problems + [f"<{tag}> never closed" for tag in parser.stack]


def assert_well_formed(text: str) -> None:
    problems = html_problems(text)
    assert not problems, "; ".join(problems[:5])


def main(paths: List[str]) -> int:
    bad = 0
    for path in paths:
        with open(path, encoding="utf-8") as fp:
            problems = html_problems(fp.read())
        for problem in problems:
            print(f"{path}: {problem}")
        if not problems:
            print(f"{path}: well-formed")
        bad += bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
