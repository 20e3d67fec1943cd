"""Regenerate ``cli.json``, the golden corpus of CLI invocations.

Each record holds an argv, its exit code and the SHA-256 digests of its
stdout, its stderr and every file it writes into the working directory
(``--output`` and ``--dump`` files).  A record whose argv reads a
``--file`` also names it under ``inputs``: the file is copied from
``inputs/`` into the working directory before the run.  ``tests/test_cli.py``
replays the corpus in-process and compares every digest.  Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

A change in the corpus is a change in CLI behaviour: review the diff of
``cli.json`` argv by argv before committing it.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

from diagcx import cli

CORPUS = pathlib.Path(__file__).with_name("cli.json")
INPUTS = pathlib.Path(__file__).with_name("inputs")

SIX_CIRCLES = ",".join(["circle"] * 6)
SEVEN_CIRCLES = ",".join(["circle"] * 7)

# Run in text and in --format json.
COMMANDS = [
    ["forests", "enumerate", "--n", "3"],
    ["forests", "enumerate", "--n", "4", "--count-only"],
    # count-only answers from the word count; n=7 is the forest-words benchmark's job
    ["forests", "enumerate", "--n", "7", "--count-only"],
    ["forests", "enumerate", "--n", "1", "--count-only"],
    ["forests", "enumerate", "--n", "1", "--count-only", "--include-empty"],
    ["forests", "enumerate", "--n", "5", "--count-only", "--include-empty", "--workers", "2"],
    ["forests", "enumerate", "--n", "2", "--include-empty", "--workers", "2"],
    # listings written in several batches, and the empty and one-row listings
    ["forests", "enumerate", "--n", "6"],
    ["forests", "enumerate", "--n", "1"],
    ["forests", "enumerate", "--n", "1", "--include-empty"],
    ["--output", "out.txt", "forests", "enumerate", "--n", "5"],
    ["complex", "verify", "--n", "3"],
    ["complex", "objects", "--n", "3"],
    ["series", "fr", "--n", "1", "--factors", "circle"],
    ["series", "fr", "--n", "2", "--factors", "Z,Z/12"],
    ["series", "fr", "--n", "3", "--factors", "circle,Z/2,Z/3"],
    ["series", "fr", "--n", "4", "--factors", "Z/2,Z/2,Z/4Z,Z/6", "--truncate", "10"],
    ["series", "fr", "--n", "5", "--factors", "Z/9,circle,Z/3,Z/2,Z/30", "--truncate", "5"],
    ["series", "fr", "--n", "6", "--factors", "circle,Z/4,Z/2,circle,Z/5,Z/3"],
    ["series", "wh-free", "--n", "4"],
    ["series", "wh-zp", "--n", "3", "--p", "2"],
    ["series", "wh-zp", "--n", "5", "--p", "3", "--truncate", "8"],
    ["present", "fr", "--n", "3", "--factors", "S3,Z/2,Z/3"],
    ["present", "export", "--n", "2", "--factors", "Z/2,Q8"],
    ["present", "verify", "--n", "3", "--factors", "Z/2,Z/3,V4"],
    ["present", "verify", "--n", "3", "--factors", "S3,Z/2,Z/3", "--dc", "--literal-rel3"],
    ["present", "verify", "--n", "3", "--factors", "Z/1,Z/2,Z/3", "--literal-rel3"],
    # the general presentation of the forest complex at n=4, a trivial factor among mixed ones
    ["present", "verify", "--n", "4", "--factors", "S3,Z/1,Z/2,V4", "--dc"],
    ["orbits", "--n", "3", "--colors", "2,1"],
    ["orbits", "--n", "4", "--colors", "2,2"],
    ["orbits", "--n", "6", "--colors", "3,2,1"],
    # a header with no rows under it
    ["orbits", "--n", "1", "--colors", "1"],
    ["decomposition", "--n", "3", "--colors", "2,1", "--factors", "Z/2,circle"],
    ["decomposition", "--n", "4", "--colors", "1,3", "--factors", "Z/6,Z/4", "--truncate", "6"],
    ["decomposition", "--n", "4", "--colors", "2,1,1", "--factors", "Z/4,Z/8,Z/12", "--truncate", "9"],
    ["decomposition", "--n", "5", "--colors", "1,1,1,1,1", "--factors", "circle,Z/2,Z/3,Z/4,Z/6"],
    ["decomposition", "--n", "1", "--colors", "1", "--factors", "circle"],
    ["homology", "torus", "--n", "3"],
    ["homology", "torus", "--n", "3", "--dump", "model"],
    ["homology", "nerve", "--group", "V4", "--family", "klein", "--max-degree", "1"],
    ["homology", "nerve", "--group", "S3"],
    ["homology", "nerve", "--group", "S4", "--max-degree", "1000"],
    ["homology", "nerve", "--group", "Q8"],
    ["homology", "nerve", "--group", "D4", "--max-degree", "2"],
    ["homology", "nerve", "--group", "Z/2xZ/2xZ/2"],  # the algebra workload's nerve-z2-cubed job
    ["cactus", "coords", "--tree", "0,1,1", "--sizes", "2,2,2", "--labels", "0,1,1"],
    ["--output", "out.txt", "series", "wh-free", "--n", "3"],
    # complex files: Gamma(F_4) with its ground, simplices, blocks and members permuted; no labels;
    # a file failing each axiom (axiom 2 also on a simplex outside the ground; axiom 3 also on a face
    # two blocks below a simplex whose maximal faces are all present); an improper complex;
    # one simplex on a ground of 10^12
    *(
        [*command, "--file", name]
        for name in ("f4-permuted.json", "unlabelled.json", "axiom1.json", "axiom2.json", "axiom2-support.json",
                     "axiom3-face.json", "axiom3-refine.json", "axiom3-lower-face.json", "improper.json",
                     "huge-ground.json")
        for command in (["complex", "verify"], ["complex", "objects"])
    ),
]

# Refusals, usage errors, guard boundaries and single-format cases; run once each.
EDGES = [
    # the cases of test_size_guards_state_the_predicted_size
    ["series", "wh-free", "--n", "1371"],
    ["series", "wh-free", "--n", "1372"],
    ["series", "wh-free", "--n", "10000"],
    ["present", "fr", "--n", "2", "--factors", "Z/100000,Z/2"],
    ["homology", "nerve", "--group", "Z/5xZ/5"],
    ["present", "verify", "--n", "3", "--factors", "S4,S4,S4"],
    ["homology", "nerve", "--group", "Z/2xZ/2xZ/2xZ/2"],
    # the nerve is built only up to the faces the guard counts, and homology stops at its dimension
    ["homology", "nerve", "--group", "Z/2xZ/2xZ/2xZ/2", "--max-degree", "0"],
    ["homology", "nerve", "--group", "Z/2xZ/2xZ/2xZ/2", "--max-degree", "1"],
    ["homology", "nerve", "--group", "Z/1", "--max-degree", "5"],
    ["forests", "enumerate", "--n", "9"],
    ["forests", "enumerate", "--n", "9", "--count-only"],
    # --unsafe-large, on a count-only job and past the degree guard
    ["--unsafe-large", "forests", "enumerate", "--n", "9", "--count-only"],
    ["--unsafe-large", "series", "fr", "--n", "2", "--factors", "circle,circle", "--truncate", "1001"],
    ["forests", "enumerate", "--n", "100"],
    ["orbits", "--n", "7", "--colors", "7"],
    ["complex", "verify", "--n", "7"],
    ["complex", "objects", "--n", "5"],
    ["homology", "torus", "--n", "6"],
    ["series", "fr", "--n", "6", "--factors", SIX_CIRCLES, "--truncate", "80"],
    ["decomposition", "--n", "3", "--colors", "1,1,1", "--factors", "Z/2,Z/2,Z/2", "--truncate", "577"],
    ["cactus", "coords", "--tree", "0" + ",1" * 2000, "--sizes", "2" + ",2" * 2000, "--labels", "0" + ",1" * 2000],
    # the series fr guard boundary, the n cap and factor parsing
    ["series", "fr", "--n", "6", "--factors", SIX_CIRCLES, "--truncate", "865"],
    ["series", "fr", "--n", "6", "--factors", SIX_CIRCLES, "--truncate", "866"],
    ["series", "fr", "--n", "7", "--factors", SEVEN_CIRCLES],
    ["series", "fr", "--n", "1", "--factors", "bogus"],
    ["series", "fr", "--n", "1", "--factors", "Z/1"],
    ["series", "fr", "--n", "2", "--factors", "bogus,circle"],
    ["series", "fr", "--n", "2", "--factors", "circle,Z/1"],
    ["series", "fr", "--n", "3", "--factors", "circle"],
    ["series", "fr", "--n", "0", "--factors", "circle"],
    ["series", "fr", "--n", "2", "--factors", "circle,circle", "--truncate", "1001"],
    ["decomposition", "--n", "2", "--colors", "2", "--factors", "Z/2", "--truncate", "-1"],
    ["series", "wh-zp", "--n", "2", "--p", "6"],
    ["homology", "nerve", "--group", "S3", "--max-degree", "-1"],
    ["forests", "enumerate", "--n", "3", "--workers", "0"],
    ["complex", "verify"],
    # relation checks whose failures name witnesses in non-abelian factors, so the witness order is pinned
    ["present", "verify", "--n", "4", "--factors", "Q8,Z/1,S3,Z/2", "--literal-rel3"],
    ["--format", "json", "present", "verify", "--n", "3", "--factors", "D4,Z/3,Q8", "--dc", "--literal-rel3"],
    # the pair presentation at n=4 and its export, each with a trivial factor; the n=4 --dc refusal
    ["present", "fr", "--n", "4", "--factors", "S3,Z/1,Z/2,V4"],
    ["present", "export", "--n", "3", "--factors", "Z/2,Z/1,S3"],
    ["present", "verify", "--n", "4", "--factors", "S4,S4,S4,S4", "--dc"],
    # one colour per vertex: every orbit is a single forest
    ["--format", "json", "orbits", "--n", "4", "--colors", "1,1,1,1"],
    # complex files refused while reading, one per message
    *(
        ["complex", "verify", "--file", name]
        for name in ("no-gamma-entry.json", "outside-ground.json", "two-blocks.json", "repeated-element.json",
                     "mixed-labels.json", "short-labels.json")
    ),
]

ARGVS = [argv for command in COMMANDS for argv in (command, ["--format", "json"] + command)] + EDGES


def digest(data):
    return hashlib.sha256(data).hexdigest()


def stderr_digest(err):
    """The digest of stderr, with whitespace runs collapsed in argparse usage text.

    Python 3.13's argparse wraps the usage line differently, so a usage
    error pins its tokens but not its line breaks.
    """
    return digest((" ".join(err.split()) if err.startswith("usage:") else err).encode())


def input_names(argv):
    """The files of ``inputs/`` that ``argv`` reads: the values of its ``--file`` options."""
    return [value for option, value in zip(argv, argv[1:]) if option == "--file"]


def copy_inputs(names, directory):
    for name in names:
        (pathlib.Path(directory) / name).write_bytes((INPUTS / name).read_bytes())


def record(argv, exit_code, out, err, directory, inputs=()):
    """The corpus entry of one run whose files are those in ``directory``, less its inputs."""
    files = {path.name: digest(path.read_bytes())
             for path in sorted(pathlib.Path(directory).iterdir()) if path.name not in inputs}
    entry = {"argv": argv, "exit": exit_code, "stdout": digest(out.encode()),
             "stderr": stderr_digest(err), "files": files}
    if inputs:
        entry["inputs"] = list(inputs)
    return entry


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    inputs = input_names(argv)
    with tempfile.TemporaryDirectory() as directory:
        copy_inputs(inputs, directory)
        cwd = os.getcwd()
        os.chdir(directory)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            return record(argv, code, out.getvalue(), err.getvalue(), directory, inputs)
        finally:
            os.chdir(cwd)


def main():
    os.environ.pop("DIAGCX_OUTPUT_DIR", None)
    entries = [run(argv) for argv in ARGVS]
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    main()
