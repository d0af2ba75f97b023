#!/usr/bin/env python3
"""Fail on dead relative links in the repo's markdown documentation.

Scans README.md and docs/**/*.md for markdown links and image references,
resolves relative targets against the containing file, and exits non-zero
listing every target that does not exist. A `#fragment` on a markdown
target (`file.md#anchor`, or `#anchor` within the same file) must name one
of that file's headings, slugged the way GitHub renders them. External
links (http/https/mailto) are not checked.

Usage: python3 tools/check_links.py [repo_root]
"""

import pathlib
import re
import sys

# Inline links/images: [text](target) / ![alt](target). Reference-style
# definitions: "[label]: target".
INLINE_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
REF_DEF = re.compile(r"^\s*\[[^\]]+\]:\s+(\S+)", re.MULTILINE)
HEADING = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$")
FENCE = re.compile(r"^\s*(```|~~~)")

SKIP_PREFIXES = ("http://", "https://", "mailto:", "ftp://")


def targets(text):
    for match in INLINE_LINK.finditer(text):
        yield match.group(1)
    for match in REF_DEF.finditer(text):
        yield match.group(1)


def slug(heading):
    """GitHub's heading anchor: link text kept, markup and punctuation
    dropped, lowercased, spaces to hyphens."""
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading).lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors(md):
    """Every heading anchor of `md`, with GitHub's -1, -2 ... suffixes on
    repeated headings. Headings inside fenced code blocks do not count."""
    found, seen = set(), {}
    in_fence = False
    for line in md.read_text(encoding="utf-8").splitlines():
        if FENCE.match(line):
            in_fence = not in_fence
            continue
        match = None if in_fence else HEADING.match(line)
        if not match:
            continue
        base = slug(match.group(1))
        count = seen.get(base, 0)
        seen[base] = count + 1
        found.add(base if count == 0 else f"{base}-{count}")
    return found


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    files = [root / "README.md"]
    files += sorted((root / "docs").glob("**/*.md"))
    files = [f for f in files if f.is_file()]
    if not files:
        print(f"check_links: no markdown files found under {root}")
        return 1

    dead = []
    checked = 0
    anchor_cache = {}
    for md in files:
        text = md.read_text(encoding="utf-8")
        for target in targets(text):
            if target.startswith(SKIP_PREFIXES):
                continue
            path_part, _, fragment = target.partition("#")
            resolved = (md.parent / path_part).resolve() if path_part else md
            checked += 1
            if not resolved.exists():
                dead.append((md.relative_to(root), target))
                continue
            if not fragment or resolved.suffix != ".md":
                continue
            if resolved not in anchor_cache:
                anchor_cache[resolved] = anchors(resolved)
            if fragment.lower() not in anchor_cache[resolved]:
                dead.append((md.relative_to(root), target))

    for source, target in dead:
        print(f"DEAD LINK in {source}: {target}")
    print(
        f"check_links: {len(files)} files, {checked} relative links, "
        f"{len(dead)} dead"
    )
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main())
