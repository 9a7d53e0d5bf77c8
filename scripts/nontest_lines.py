#!/usr/bin/env python3
"""Non-test Rust lines per crate under `crates/`.

Counts the non-blank lines (comments and doc comments included) of every
`.rs` file in each crate, leaving out `tests/` and `benches/` directories
and every item marked `#[cfg(test)]` (a test module, or a helper such as
a test-only function or `use`). Item ends are found from rustfmt layout:
an item that does not end on its own line with `;` ends at the first line
that closes it at the attribute's indentation.

Usage:
    scripts/nontest_lines.py [REPO]   # table for REPO (default: this repo)
    scripts/nontest_lines.py --self-test

Compare two commits by running it on a checkout of each.
"""

import os
import sys

SKIPPED_DIRS = {"tests", "benches", "target"}


def count_lines(text):
    """Non-blank lines of Rust source `text`, `#[cfg(test)]` items left out."""
    lines = text.splitlines()
    count = 0
    i = 0
    while i < len(lines):
        stripped = lines[i].strip()
        if stripped == "#[cfg(test)]":
            i = skip_item(lines, i)
            continue
        if stripped:
            count += 1
        i += 1
    return count


def skip_item(lines, i):
    """Index of the first line after the item whose attribute is line `i`."""
    indent = len(lines[i]) - len(lines[i].lstrip())
    closer = " " * indent + "}"
    i += 1
    # Further attributes and doc comments belong to the same item.
    while i < len(lines) and lines[i].strip().startswith(("#[", "///", "//")):
        i += 1
    if i < len(lines) and lines[i].rstrip().endswith(";"):
        return i + 1
    while i < len(lines) and lines[i].rstrip() not in (closer, closer + ";"):
        i += 1
    return i + 1


def crate_lines(crate_dir):
    """Non-test lines of every `.rs` file under `crate_dir`."""
    total = 0
    for root, dirs, files in os.walk(crate_dir):
        dirs[:] = sorted(d for d in dirs if d not in SKIPPED_DIRS)
        for name in sorted(files):
            if name.endswith(".rs"):
                with open(os.path.join(root, name), encoding="utf-8") as f:
                    total += count_lines(f.read())
    return total


def table(repo):
    """`(crate, lines)` for every crate under `repo/crates`, by name."""
    crates = os.path.join(repo, "crates")
    return [
        (name, crate_lines(os.path.join(crates, name)))
        for name in sorted(os.listdir(crates))
        if os.path.isdir(os.path.join(crates, name))
    ]


CANNED = """\
//! Module doc.

use std::fs;
#[cfg(test)]
use std::collections::BTreeMap;

/// A function.
pub fn f() -> &'static str {
    let s = "}";

    s
}

#[cfg(test)]
fn only_in_tests() {
    let _ = 1;
}

impl Thing {
    #[cfg(test)]
    #[allow(dead_code)]
    fn helper(&self) {
        if true {
        }
    }

    fn kept(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t() {
        assert_eq!(f(), "}");
    }
}
"""

# Counted: the module doc, `use std::fs;`, the doc comment, the four
# lines of `f` (the blank one is not), `impl Thing {`, `fn kept`, and
# the impl's closing brace.
CANNED_LINES = 10


def self_test():
    got = count_lines(CANNED)
    assert got == CANNED_LINES, f"canned file: counted {got}, expected {CANNED_LINES}"
    assert count_lines("") == 0
    assert count_lines("#[cfg(test)]\nmod t;\nfn a() {}\n") == 1
    print("nontest_lines self-test: ok")


def main(argv):
    if argv[1:] == ["--self-test"]:
        self_test()
        return 0
    if len(argv) > 2 or any(a.startswith("-") for a in argv[1:]):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    repo = argv[1] if len(argv) == 2 else os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    rows = table(repo)
    width = max(len(name) for name, _ in rows)
    for name, lines in rows:
        print(f"{name:<{width}}  {lines:>7}")
    print(f"{'total':<{width}}  {sum(lines for _, lines in rows):>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
