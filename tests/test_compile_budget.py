"""Every quivlat module stays below 2**14 tokens.

The peak memory of every benchmark worker, and of the CLI, is the compile
of rings.py, its largest module.  CPython's parser keeps a module's tokens
in one array that doubles as it fills, so that peak steps up by about 1 MB
once a module passes 16,384 tokens: padding rings.py with code found the
step between 16,348 and 16,404 tokens, and padding it with comments moved
nothing, since the parser skips comments and non-logical newlines.  This
counts tokens as tokenize.generate_tokens does, COMMENT and NL left out.

Stdlib only, so it also runs without pytest:
    python tests/test_compile_budget.py
"""

import glob
import os
import tokenize

BUDGET = 2 ** 14
SOURCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "quivlat")


def token_counts() -> dict:
    """The token count of every quivlat module, by file name."""
    counts = {}
    for path in sorted(glob.glob(os.path.join(SOURCES, "*.py"))):
        with open(path, encoding="utf-8") as f:
            counts[os.path.basename(path)] = sum(
                1 for tok in tokenize.generate_tokens(f.readline)
                if tok.type not in (tokenize.COMMENT, tokenize.NL))
    return counts


def test_every_module_is_below_the_token_budget():
    counts = token_counts()
    assert "rings.py" in counts, counts
    for name, count in counts.items():
        assert count < BUDGET, (
            "%s has %d tokens, not below %d: past 2**14 tokens the parser's token "
            "array doubles and compiling the module peaks about 1 MB higher"
            % (name, count, BUDGET))


if __name__ == "__main__":
    import sys
    for name, count in token_counts().items():
        print("%7d %s" % (count, name))
    test_every_module_is_below_the_token_budget()
    print("ok test_every_module_is_below_the_token_budget")
    print("all passed on Python", sys.version.split()[0])
