"""parse_gfn against the token-by-token parser it replaced.

The fast path converts the whole body with one numpy call; any anomaly falls
back to a line scan.  Both must give the reference's values bit for bit, or
the reference's exception with the same message.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from sparselab.grid import MAX_LEVEL, FormatError, GridFunction, _check_dim, parse_gfn


def reference_parse_gfn(text: str) -> GridFunction:
    lines = text.splitlines()
    if not lines:
        raise FormatError("line 1: empty file, expected 'GFN1 <n> <L>' header")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "GFN1":
        raise FormatError("line 1: expected header 'GFN1 <n> <L>'")
    try:
        n, L = int(head[1]), int(head[2])
    except ValueError:
        raise FormatError("line 1: dimension and level must be integers") from None
    _check_dim(n)
    if not 0 <= L <= MAX_LEVEL[n]:
        raise FormatError(f"line 1: level {L} out of range for n={n}")
    expected = (1 << L) ** n
    values: list[float] = []
    for ln, line in enumerate(lines[1:], start=2):
        for col, tok in enumerate(line.split(), start=1):
            try:
                values.append(float(tok))
            except ValueError:
                raise FormatError(f"line {ln}, field {col}: not a number: {tok!r}") from None
            if not math.isfinite(values[-1]):
                raise FormatError(f"line {ln}, field {col}: non-finite value {tok!r}")
            if len(values) > expected:
                raise FormatError(
                    f"line {ln}, field {col}: expected {expected} values, found more"
                )
    if len(values) != expected:
        raise FormatError(
            f"line {len(lines)}: expected {expected} values, found {len(values)}"
        )
    return GridFunction(n, L, values)


ODD_TOKENS = ["nan", "NaN", "inf", "-inf", "Infinity", "1e500", "-1e999", "abc", "1,5",
              "0x10", "1d5", "--1", "1e", "1_000", ".5", "5.", "-0", "+1.5", "1E-400"]


@st.composite
def gfn_text(draw):
    n = draw(st.sampled_from([1, 2]))
    L = draw(st.integers(0, 4 if n == 1 else 2))
    header = draw(st.sampled_from([f"GFN1 {n} {L}"] * 6 + [f"GFN1 {n} 99", f"GFN2 {n} {L}",
                                                          f"GFN1 {n}", f"GFN1 3 {L}"]))
    count = (1 << L) ** n + draw(st.sampled_from([0] * 6 + [-2, -1, 1, 2]))
    finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
    tokens = [repr(x) for x in draw(st.lists(finite, min_size=max(count, 0),
                                             max_size=max(count, 0)))]
    for _ in range(draw(st.integers(0, 2))):
        if tokens:
            i = draw(st.integers(0, len(tokens) - 1))
            tokens[i] = draw(st.sampled_from(ODD_TOKENS))
    lines, i = [], 0
    while i < len(tokens):
        width = draw(st.integers(1, 9))
        lines.append(" ".join(tokens[i : i + width]))
        i += width
    lines += [""] * draw(st.integers(0, 2))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join([header, *lines]) + draw(st.sampled_from(["", newline]))


def outcome(parse, text):
    try:
        f = parse(text)
    except Exception as err:  # the exception type and message are what is compared
        return type(err), str(err)
    return f.dim, f.level, f.values.tobytes()


@settings(max_examples=500, deadline=None, derandomize=True)
@given(gfn_text())
def test_parse_gfn_matches_reference(text):
    assert outcome(parse_gfn, text) == outcome(reference_parse_gfn, text)


def test_fast_path_bits_on_full_grid():
    rng = np.random.default_rng(5)
    vals = np.exp2(rng.uniform(-40.0, 40.0, 4096)) * rng.choice([-1.0, 1.0], 4096)
    text = "GFN1 1 12\n" + "\n".join(" ".join(repr(float(x)) for x in row)
                                     for row in vals.reshape(-1, 64)) + "\n"
    assert parse_gfn(text).values.tobytes() == vals.tobytes()
    assert outcome(parse_gfn, text) == outcome(reference_parse_gfn, text)
