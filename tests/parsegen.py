"""Parser inputs shared by the tests and `scripts/differential.py`: random tag
soup, and pieces of feature-element content with the character data XML makes
of each. Standard library only, so the script needs no test tools.
"""

# Structural and base names repeated, so that more documents parse to trees with children and groups.
SOUP_TAGS = ("dict", "struc", "struc", "alt", "alt", "brack", "orth", "orth", "def", "gender", "sensenum",
             "Odd_Name", "x.y", "pos", "gen")
SOUP_ATTRS = ("", ' n="1"', ' a="x" b="&lt;"')
SOUP_TEXT = ("x", " ", "a  b", "\n  ", "&amp;", "\u00e9", "e\u0301", "<![CDATA[<b> ]]>", "<!-- c -->", "&#233;", "\t",
             "noun", "verb")


def tag_soup(pick, integer) -> bytes:
    """Random nesting of structural, base, unknown and unusable element
    names, with attributes and text; mostly well-formed, sometimes with the
    root closed early, a mismatched end tag or truncated. `pick(options)`
    chooses one of a sequence and `integer(low, high)` one integer from low
    to high, both included: a hypothesis draw, or a seeded `random.Random`'s
    `choice` and `randint`."""
    root = pick(("struc", "struc", "struc", "dict", None))
    out, open_tags = ([f"<{root}>"], [root]) if root else ([], [])
    for _ in range(integer(0, 24)):
        action = pick(("open", "open", "empty", "close", "text"))
        if action in ("open", "empty"):
            tag, attrs = pick(SOUP_TAGS), pick(SOUP_ATTRS)
            out.append(f"<{tag}{attrs}/>" if action == "empty" else f"<{tag}{attrs}>")
            if action == "open":
                open_tags.append(tag)
        elif action == "close":
            if open_tags == [root] and not pick([False] * 9 + [True]):  # the root closes early 1 in 10
                continue
            mismatch = not open_tags or pick([False] * 29 + [True])
            out.append(f"</{pick(SOUP_TAGS) if mismatch else open_tags.pop()}>")
        else:
            out.append(pick(SOUP_TEXT))
    out.extend(f"</{tag}>" for tag in reversed(open_tags))
    document = "".join(out).encode("utf-8")
    if pick([False] * 9 + [True]):
        document = document[: integer(0, len(document))]
    return document


# Pieces of a feature element's content, each with the character data XML makes of it
# (line ends normalized to LF): a letter outside ASCII, precomposed and decomposed,
# spaces alone and in runs, XML whitespace literal and as references, other spaces,
# text split by CDATA, comments and references, runs longer than the first pass's
# 8,192-character text buffer, and a character neither printable nor whitespace.
VALUE_PIECES = (
    ("a", "a"), ("word", "word"), ("\u00e9", "\u00e9"), ("e\u0301", "e\u0301"), ("&amp;", "&"), ("&lt;", "<"),
    (" ", " "), ("  ", "  "), ("\t", "\t"), ("\n", "\n"), ("\r", "\n"), ("\r\n", "\n"),
    ("&#32;", " "), ("&#9;", "\t"), ("&#10;", "\n"), ("&#13;", "\r"),
    ("\u00a0", "\u00a0"), ("\u2028", "\u2028"), ("\u0085", "\u0085"),
    ("<![CDATA[ b ]]>", " b "), ("<![CDATA[]]>", ""), ("<!-- c -->", ""),
    ("x" * 9000, "x" * 9000), (" y" * 4500, " y" * 4500), ("\n" * 8200, "\n" * 8200),
    ("\u200b", "\u200b"),
)
