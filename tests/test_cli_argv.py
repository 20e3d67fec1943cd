"""Property test over argv: every invocation ends in exit 0, 2 or 3, never a traceback.

Sizes are drawn only from values that finish in well under a second or
that a size guard refuses, so the test stays fast without --unsafe-large.
Most draws are well-formed, so that the commands run past argument
parsing; one value in eight is malformed.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import canonical_json
from diagcx import cli

BAD_NUMBERS = ["-1", "0", "x", "", "1e3", str(10**40)]
SERIES_FACTORS = ["circle", "Z", "Z/2", "Z/4Z", "Z/12", f"Z/{2**61 - 1}", f"Z/{(2**61 - 1) * (2**31 - 1)}"]
BAD_SERIES_FACTORS = ["Z/0", "Z/1", "Z/-3", "Z/x", "", "7"]
GROUPS = ["Z/2", "Z/3", "V4", "Q8", "S3", "Z/2xZ/3", "Z/25", "Z/5xZ/5"]
VERIFY_GROUPS = ["Z/2", "Z/3", "V4", "S3", "Z/2xZ/3", "Z/25", "Z/5xZ/5"]
BAD_GROUPS = ["Z/0", "Z/x", "S5", "@missing.json", "Z/2x"]


def mostly(good, bad):
    return st.integers(0, 7).flatmap(lambda i: st.sampled_from(bad if i == 0 else good))


def number(*fast):
    return mostly([str(v) for v in fast], BAD_NUMBERS)


@st.composite
def listing(draw, n, good, bad):
    """Comma-separated items: n of them, or now and then another count."""
    count = int(n) if n.isdigit() and int(n) <= 8 else 3
    count = draw(mostly([count], [0, 1, count + 1]))
    return ",".join(draw(mostly(good, bad)) for _ in range(count))


@st.composite
def command(draw):
    kind = draw(st.sampled_from([
        "enumerate", "verify", "objects", "fr", "wh-free", "wh-zp", "present",
        "orbits", "decomposition", "torus", "nerve", "cactus", "junk",
    ]))
    if kind == "enumerate":
        argv = ["forests", "enumerate", "--n", draw(number(1, 2, 3, 4, 9))]
        argv += draw(st.sampled_from([[], ["--count-only"], ["--include-empty"]]))
        argv += ["--workers", draw(number(1, 2))]
    elif kind in ("verify", "objects"):
        argv = ["complex", kind, "--n", draw(number(1, 2, 3, 7))]
    elif kind == "fr":
        n = draw(number(1, 2, 3, 7))
        argv = ["series", "fr", "--n", n, "--factors", draw(listing(n, SERIES_FACTORS, BAD_SERIES_FACTORS))]
        argv += ["--truncate", draw(number(0, 3, 1001))]
    elif kind == "wh-free":
        argv = ["series", "wh-free", "--n", draw(number(1, 2, 50, 1372, 10**6, 10**50))]
    elif kind == "wh-zp":
        p = draw(number(2, 3, 4, 6, 2**61 - 1, 2**89 - 1, 3 * (2**89 - 1)))
        # not n=6: its JSON lists 6 million summands, under the guard but slow
        n = draw(number(1, 3, 5, 7, 10**6, 10**400))
        argv = ["series", "wh-zp", "--n", n, "--p", p, "--truncate", draw(number(0, 5, 12, 1001))]
    elif kind == "present":
        action = draw(st.sampled_from(["fr", "export", "verify"]))
        n = draw(number(1, 2, 3, 7))
        groups = VERIFY_GROUPS if action == "verify" else GROUPS
        argv = ["present", action, "--n", n, "--factors", draw(listing(n, groups, BAD_GROUPS))]
        if action == "verify":
            argv += draw(st.sampled_from([[], ["--dc"], ["--literal-rel3"]]))
    elif kind in ("orbits", "decomposition"):
        colors = draw(st.sampled_from(["1", "2", "3", "2,1", "1,1,1", "2,2", "3,1", "0", "-1,2", "x", ""]))
        argv = [kind, "--n", draw(number(1, 2, 3, 4, 7)), "--colors", colors]
        if kind == "decomposition":
            factors = draw(listing(str(len(colors.split(","))), SERIES_FACTORS[:5], BAD_SERIES_FACTORS))
            argv += ["--factors", factors, "--truncate", draw(number(0, 4, 1001))]
    elif kind == "torus":
        argv = ["homology", "torus", "--n", draw(number(1, 2, 3, 5))]
    elif kind == "nerve":
        argv = ["homology", "nerve", "--group", draw(mostly(GROUPS + ["D4", "S4", "Z/100000"], BAD_GROUPS))]
        argv += ["--family", draw(mostly(["all", "klein"], ["other"]))]
        argv += ["--max-degree", draw(number(0, 1, 3, 1001))]
    elif kind == "cactus":
        n = draw(st.sampled_from(["1", "2", "3"]))
        argv = ["cactus", "coords"]
        for flag in ("--tree", "--sizes", "--labels"):
            argv += [flag, draw(listing(n, ["0", "1", "2", "3"], ["-1", "x", "9"]))]
    else:
        tokens = ["series", "fr", "--n", "2", "--factors", "nerve", "--bogus", "-"]
        argv = draw(st.lists(st.sampled_from(tokens), max_size=5))
    return draw(st.sampled_from([[], ["--format", "json"]])) + argv


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(command())
def test_every_argv_ends_in_a_known_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 3:
        assert err.getvalue().startswith("resource guard: ")
    if code == 0 and argv[:2] == ["--format", "json"]:
        assert out.getvalue() == canonical_json(out.getvalue())
