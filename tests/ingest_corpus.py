"""Edge-list texts that stress the reader's error paths and layouts.

Each entry is (name, text).  Most are malformed; the rest are valid in a
layout other than the one serialize_forest writes (comments, blank
lines, other line breaks, other integer spellings).  test_ingest.py
parses each with the current reader and the reference one and requires
the same Forest, or the same error class, message and cycle.
"""

CORPUS = (
    # ids out of range, in either orientation, and negative ids
    ("out of range high v", "3\n0 1\n1 3\n"),
    ("out of range high u", "3\n0 1\n3 1\n"),
    ("out of range both", "3\n7 9\n"),
    ("out of range huge", "3\n0 100000000000000000000000\n"),
    ("negative u", "3\n-1 0\n"),
    ("negative v", "3\n0 1\n2 -2\n"),
    # self-loops and duplicates
    ("self-loop", "3\n0 1\n2 2\n"),
    ("self-loop first", "3\n1 1\n0 1\n"),
    ("duplicate same orientation", "3\n0 1\n1 2\n0 1\n"),
    ("duplicate reversed", "3\n0 1\n1 2\n1 0\n"),
    ("duplicate then cycle", "4\n0 1\n1 0\n1 2\n2 0\n"),
    # cycles, the closing edge in either orientation
    ("triangle closed forward", "3\n0 1\n1 2\n0 2\n"),
    ("triangle closed reversed", "3\n0 1\n1 2\n2 0\n"),
    ("long cycle closed reversed", "6\n5 4\n4 3\n3 2\n2 1\n1 5\n0 1\n"),
    ("cycle in second component", "7\n0 1\n2 3\n3 4\n4 5\n5 2\n"),
    ("cycle then out of range", "4\n0 1\n1 2\n2 0\n0 9\n"),
    ("out of range then cycle", "4\n0 9\n0 1\n1 2\n2 0\n"),
    ("cycle then self-loop", "4\n0 1\n1 2\n2 0\n3 3\n"),
    ("forest defect then syntax error", "3\n0 5\nfoo\n"),
    ("cycle then syntax error", "3\n0 1\n1 2\n2 0\n1 2 3\n"),
    # two different syntax defects: the first line is reported
    ("non-integer then three tokens", "3\n0 x\n0 1 2\n"),
    ("three tokens then non-integer", "3\n0 1 2\n0 x\n"),
    ("one token then non-integer", "3\n0\n0 x\n"),
    ("non-integer then one token", "3\nx 0\n0\n"),
    # wrong token counts in otherwise plain text; the tokens alone would
    # still pair up into edges
    ("one-token line", "3\n0 1\n2\n"),
    ("three-token line", "3\n0 1 2\n"),
    ("one-token line then three-token line", "4\n0\n1 2 3\n"),
    ("three-token line then one-token line", "4\n0 1 2\n3\n"),
    ("one token, no final break", "4\n0 1\n2"),
    # headers
    ("two-token header", "3 4\n0 1\n"),
    ("non-integer header", "three\n0 1\n"),
    ("non-integer header then bad line", "x\n0 1 2\n"),
    ("negative n", "-3\n"),
    ("negative n with edge", "-3\n0 1\n"),
    ("negative n then syntax error", "-3\n0 x\n"),
    ("n = 0 with edge", "0\n0 1\n"),
    ("n = 0", "0\n"),
    # empty inputs
    ("empty", ""),
    ("whitespace only", "  \n\t\n \r\n"),
    ("comments only", "# nothing\n  # here\n"),
    # comments
    ("comments everywhere", "# head\n3 # count\n0 1 # edge\n#\n1 2#tail\n"),
    ("comment hides a token", "3\n0 1 # 2\n"),
    ("comment leaves one token", "3\n0 # 1\n"),
    ("comment glued to count", "3#x\n0 1\n"),
    ("comment with cycle", "3\n0 1 # a\n1 2\n2 0 # closes\n"),
    # blank and whitespace-only lines, other spacing
    ("blank lines", "\n\n3\n\n0 1\n   \n\t\n1 2\n\n"),
    ("tabs and runs of spaces", "  3\t\n\t0 \t 1  \n1\t2"),
    ("no final line break", "3\n0 1\n1 2"),
    ("trailing spaces, no final break", "3 \n0 1 "),
    ("header only, no break", "5"),
    # line breaks other than \n
    ("crlf", "3\r\n0 1\r\n1 2\r\n"),
    ("crlf blank lines", "\r\n3\r\n\r\n0 1\r\n"),
    ("bare cr", "3\r0 1\r1 2\r"),
    ("mixed breaks", "3\r\n0 1\r1 2\n"),
    ("bare cr splits a pair", "3\n0\r1\n"),
    ("form feed", "3\x0c0 1\x0c1 2"),
    ("vertical tab", "3\x0b0 1\n1 2\n"),
    ("file separator", "3\x1c0 1\x1d1 2\x1e"),
    ("unit separator is a space", "3\n0\x1f1\n"),
    ("unicode line breaks", "3\u20280 1\u20291 2\x85"),
    ("no-break space", "3\n0\xa01\n"),
    ("crlf with cycle", "3\r\n0 1\r\n1 2\r\n2 0\r\n"),
    # integer spellings that int() accepts
    ("plus signs", "+3\n+0 1\n1 +2\n"),
    ("underscores", "1_0\n0 1_0\n"),
    ("underscores in range", "1_000\n0 9_99\n"),
    ("leading zeros", "03\n00 01\n002 1\n"),
    ("arabic-indic digits", "٣\n٠ ١\n"),
    ("fullwidth digits", "３\n０ １\n１ ２\n"),
    ("fullwidth digits out of range", "３\n０ ９\n"),
    ("float token", "3\n0 1.0\n"),
    ("hex token", "3\n0 0x1\n"),
    # past int()'s default limit of 4,300 digits, where one applies
    ("5,000-digit id", "3\n0 1\n1 " + "7" * 5000 + "\n"),
)
