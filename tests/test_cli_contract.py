"""Property test of the CLI contract on the five file commands.

Network and compensator JSON and the text of every flag the command takes
are drawn at random; each run may garble one of them: a flag gets arbitrary text, or a
part of a document becomes arbitrary JSON, a non-finite or huge matrix or
a matrix of the wrong shape. Every run must end in an exit code its
command documents, exit code 1 must come with exactly one ``error:``
line, and no run may end in a traceback. The pytest configuration turns
a ``RuntimeWarning`` (a numpy overflow, say) into a failure, and the
extreme entries include ``cli.MAX_ENTRY``, the largest magnitude a file
may hold, and the next float past it.

Runs stay short: usable matrix entries lie in [-3, 3], and a ``--T`` or
``--h`` text that parses to a finite number keeps T <= 2 and h >= 1e-3 (or
h <= 0, which is refused), so a ``simulate`` run stores thousands of
samples, not millions.
"""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from netresil.cli import MAX_ENTRY, main

EXIT_CODES = {"check": {0, 1, 2, 3}, "compensate": {0, 1, 4, 5},
              "attack-search": {0, 1, 3}, "simulate": {0, 1, 4}, "norms": {0, 1, 5}}
T_BUDGET = 2.0
H_FLOOR = 1e-3

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)
small = st.floats(-3, 3)
extreme = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e200, 5e-324, 10**400,
                           MAX_ENTRY, -math.nextafter(MAX_ENTRY, math.inf)])
flag_text = st.text(max_size=8) | st.integers().map(str) | st.floats().map(repr)


def matrix(rows: int, cols: int, entries=small):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def garbled(rows: int, cols: int):
    """Arbitrary JSON, an extreme number, a matrix with extreme entries or one
    of the wrong shape."""
    return st.one_of(json_values, extreme, matrix(rows, cols, small | extreme),
                     matrix(rows + 1, cols), matrix(rows, cols + 1))


@st.composite
def documents(draw, fault: str):
    """(network, compensator) JSON for a network of 1-3 + 1-3 states with
    one or two channels per node; the compensator fits the network. A
    ``fault`` of "network" or "compensator" garbles one part of that one."""
    n1, n2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    c1, c2 = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    n, p = n1 + n2, c1 + c2
    with_dz, with_r = draw(st.booleans()), draw(st.booleans())
    r = draw(st.integers(1, n + 1)) if with_r else n   # R defaults to I
    shapes = {}
    for sub, (ni, ci, cj) in (("sub1", (n1, c1, c2)), ("sub2", (n2, c2, c1))):
        shapes.update({(sub, "A"): (ni, ni), (sub, "B"): (ni, ci), (sub, "C"): (ci, ni),
                       (sub, "J"): (ni, cj), (sub, "S"): (ci, ni), (sub, "Dz"): (ci, cj)})
    shapes[("R",)] = (n, r)
    comp_shapes = {("Lambda",): (n, n), ("Gamma",): (n, p), ("Xi",): (p, n),
                   ("Theta",): (r, n)}
    network = {"sub1": {}, "sub2": {}}
    for path, shape in shapes.items():
        if (path[-1] == "Dz" and not with_dz) or (path[-1] == "R" and not with_r):
            continue
        node = network[path[0]] if len(path) == 2 else network
        node[path[-1]] = draw(matrix(*shape))
    comp = {key: draw(matrix(*shape)) for (key,), shape in comp_shapes.items()}
    comp.update(eta=n, cut=draw(st.sampled_from(["1to2", "2to1"])))
    if fault == "network":
        path = draw(st.sampled_from([(), ("sub1",), ("sub2",), *shapes]))
        network = _garble(draw, network, path, shapes.get(path, (1, 1)))
    elif fault == "compensator":
        path = draw(st.sampled_from([(), ("eta",), ("cut",), *comp_shapes]))
        comp = _garble(draw, comp, path, comp_shapes.get(path, (1, 1)))
    return network, comp


def _garble(draw, doc: dict, path: tuple, shape: tuple):
    """``doc`` with the value at ``path`` (the root for ()) replaced."""
    if not path:
        return draw(json_values)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = draw(garbled(*shape))
    return doc


def _bounded(text: str, keep) -> bool:
    """True for text that is no finite number, or a finite number ``keep`` admits."""
    try:
        v = float(text)
    except ValueError:
        return True
    return not math.isfinite(v) or keep(v)


def _under(root: str, prefix: str):
    """Paths under ``root`` named after arbitrary text."""
    return flag_text.map(lambda t: os.path.join(root, prefix + t.replace(os.sep, "_")))


@st.composite
def argvs(draw, root: str, command: str, fault: str):
    """argv of ``command`` on the documents written under ``root``; with the
    "flag" fault one flag given gets arbitrary text."""
    network = os.path.join(root, "network.json")
    flags = {  # name: (usable text, arbitrary text, finite values it may take)
        "--out": (st.just(os.path.join(root, "out")),
                  _under(root, "o_") | st.just(network), None)}
    if command in ("compensate", "norms"):
        flags["--tol"] = (st.floats(1e-12, 1e-2).map(str), flag_text, None)
    if command == "compensate":
        flags["--theta-policy"] = (st.sampled_from(["gamma_scan", "lqr"]), flag_text, None)
    if command == "simulate":
        flags.update({
            "--seed": (st.integers(0, 2**32).map(str), flag_text, None),
            "--T": (st.floats(0, T_BUDGET).map(str), flag_text, lambda v: v <= T_BUDGET),
            "--h": (st.floats(H_FLOOR, 0.1).map(str), flag_text,
                    lambda v: v <= 0 or v >= H_FLOOR),
            "--store-every": (st.integers(1, 50).map(str), flag_text, None),
            "--compensator": (st.just(os.path.join(root, "comp.json")),
                              _under(root, "c_"), None)})
    # --out always, so that no run writes to the default ./out
    others = sorted(set(flags) - {"--out"})
    names = ["--out", *(draw(st.lists(st.sampled_from(others), unique=True)) if others else [])]
    bad = draw(st.sampled_from(names)) if fault == "flag" else None
    argv = [command, network]
    for name in names:
        usable, arbitrary, keep = flags[name]
        if name != bad:
            argv += [name, draw(usable)]
        else:
            argv += [name, draw(arbitrary.filter(lambda t: keep is None or _bounded(t, keep)))]
    if command == "check" and draw(st.booleans()):
        argv.append("--no-certificate")
    return argv


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(command=st.sampled_from(sorted(EXIT_CODES)),
       fault=st.sampled_from(["none", "flag", "network", "compensator"]), data=st.data())
def test_file_commands_keep_the_exit_code_contract(command, fault, data):
    network, comp = data.draw(documents(fault))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as root:
        for name, doc in (("network.json", network), ("comp.json", comp)):
            with open(os.path.join(root, name), "w") as fh:
                json.dump(doc, fh)
        argv = data.draw(argvs(root, command, fault))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    err = err.getvalue()
    assert code in EXIT_CODES[command], (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 1:
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
