"""Fuzzed configs: the CLI exits 0, 1 or 2, and a failure is one stderr line.

Each config starts valid and tiny (N <= 4, dim <= 3, N = 2 for filiform3:4,
so a run costs milliseconds) and then takes up to three edits: a key goes
missing or takes the wrong type, N or L leaves its range, the inline
algebra or potential breaks its schema, the symbol carries junk.
"""

import contextlib
import functools
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from magweyl import cli

junk = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
    st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2))
numbers = st.one_of(st.sampled_from([0, 1, -1, 0.5]),
                    st.floats(allow_nan=True, allow_infinity=True))

ALGEBRAS = {"abelian:1": 1, "abelian:2": 2, "abelian:3": 3, "heisenberg:3": 3,
            "filiform3:4": 4}
HEIS_INLINE = {"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": [0, 0, 1]}]}
# Heisenberg in the basis e1, e2, e1 + e2 + e3: no axis is regular
HEIS_SKEW_INLINE = {"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": [-1, -1, 1]},
                                           {"i": 1, "j": 3, "coeffs": [-1, -1, 1]},
                                           {"i": 2, "j": 3, "coeffs": [1, 1, -1]}]}
SUITES = ["fourier", "unitarity", "gauge", "abelian-baseline", "moyal-crosscheck",
          "derivative-check"]


@st.composite
def inline_algebras(draw):
    """{dim, brackets} objects, often one entry away from valid."""
    body = {}
    dim = draw(st.one_of(st.integers(0, 3), junk))
    if draw(st.integers(0, 5)):
        body["dim"] = dim
    size = dim if isinstance(dim, int) and 0 <= dim <= 3 else 2
    index = st.integers(1, max(1, size))
    entry = st.one_of(
        st.fixed_dictionaries({"i": index, "j": index, "coeffs": st.lists(
            numbers, min_size=size, max_size=size)}),
        st.fixed_dictionaries({}, optional={
            "i": st.one_of(st.integers(0, size + 1), junk),
            "j": st.one_of(st.integers(0, size + 1), junk),
            "coeffs": st.one_of(st.lists(numbers, max_size=size + 1), junk)}))
    if draw(st.booleans()):
        body["brackets"] = draw(st.one_of(st.lists(st.one_of(entry, junk), max_size=3),
                                          junk))
    if draw(st.integers(0, 9)) == 0:
        body = {"file": draw(junk)}
    return body


@st.composite
def inline_potentials(draw, dim, valid):
    """{components} objects: valid monomial lists, or broken ones."""
    if valid:
        exps = st.lists(st.integers(0, 1), min_size=dim, max_size=dim)
        term = st.fixed_dictionaries({"exponents": exps, "coeff": st.floats(-0.5, 0.5)})
        comps = st.lists(st.lists(term, max_size=2), min_size=dim, max_size=dim)
        return {"components": draw(comps)}
    term = st.one_of(st.fixed_dictionaries({}, optional={
        "exponents": st.one_of(st.lists(st.one_of(st.integers(-1, 9), junk),
                                        max_size=dim + 1), junk),
        "coeff": st.one_of(numbers, junk)}), junk)
    return draw(st.fixed_dictionaries({}, optional={"components": st.one_of(
        st.lists(st.one_of(st.lists(term, max_size=2), junk), max_size=dim + 1), junk)}))


def vectors(dim):
    return st.lists(st.floats(-0.5, 0.5), min_size=dim, max_size=dim)


@functools.lru_cache(maxsize=None)
def bad_values(dim):
    """Per config key, values that break it on an algebra of dimension dim."""
    return {
        "algebra": st.one_of(st.sampled_from([
            "abelian:0", "abelian:-1", "abelian:x", "heisenberg:2", "heisenberg:4",
            "filiform3:5", "nosuch", ""]), inline_algebras()),
        "potential": st.one_of(st.sampled_from([
            "landau:x", "landau:nan", "landau:1e400", "heisenberg-linear:",
            "landau:0.5", "heisenberg-linear:0.4", "nosuch"]),
            inline_potentials(dim, valid=False)),
        "grid": st.one_of(
            st.fixed_dictionaries({"N": st.sampled_from([0, -2, 1, 3, 2.5, "4", None,
                                                         True, 1e-9]),
                                   "L": st.just(3.0)}),
            st.fixed_dictionaries({"N": st.just(2), "L": st.one_of(
                st.sampled_from([0, -1.0, 1e-300, 5e-324, 1e200, 1e308, "3"]),
                st.floats(allow_nan=True, allow_infinity=True))}),
            st.fixed_dictionaries({}, optional={"N": st.just(2), "L": st.just(3.0)})),
        "symbol": st.one_of(
            st.fixed_dictionaries({"kind": st.one_of(st.just("x"), junk)}),
            st.fixed_dictionaries({"kind": st.sampled_from(["gaussian", "poly-gaussian"])},
                                  optional={
                "amplitude": st.one_of(st.sampled_from([1e308, -1e308]), numbers, junk),
                "centers_x": st.one_of(st.lists(numbers, max_size=dim + 1), junk),
                "centers_xi": st.one_of(st.lists(numbers, max_size=dim + 1), junk),
                "linear_x": st.one_of(st.lists(numbers, max_size=dim + 1), junk),
                "linear_xi": st.one_of(st.lists(numbers, max_size=dim + 1), junk)})),
        "seed": st.one_of(st.integers(-3, -1), st.floats(), st.text(max_size=2)),
        "tolerances": st.one_of(st.dictionaries(st.sampled_from(["fourier-involution"]),
                                                junk, min_size=1), junk),
        "suites": st.one_of(st.lists(st.one_of(st.sampled_from(SUITES + ["nosuch"]),
                                               junk), max_size=3), junk),
    }


@st.composite
def configs(draw, command):
    algebra = draw(st.sampled_from(list(ALGEBRAS) + [HEIS_INLINE, HEIS_SKEW_INLINE]))
    dim = 3 if isinstance(algebra, dict) else ALGEBRAS[algebra]
    N = 2 if dim == 4 else draw(st.sampled_from([2, 4]))
    potentials = ["zero", None, inline_potentials(dim, valid=True)]
    potentials += {2: ["landau:0.5"], 3: ["heisenberg-linear:0.4"]}.get(dim, [])
    potential = draw(st.sampled_from(potentials))
    if not isinstance(potential, (str, type(None))):
        potential = draw(potential)
    cfg = {"algebra": algebra, "potential": potential,
           "grid": {"N": N, "L": draw(st.sampled_from([3.0, 6.0]))},
           "seed": draw(st.integers(0, 9))}
    if command == "build-kernel":
        cfg["symbol"] = draw(st.fixed_dictionaries(
            {"kind": st.sampled_from(["gaussian", "poly-gaussian", "zero"])},
            optional={"centers_x": vectors(dim), "centers_xi": vectors(dim)}))
    else:
        cfg["suites"] = draw(st.lists(st.sampled_from(SUITES), min_size=1, max_size=2,
                                      unique=True))
    keys = sorted(set(cfg) | {"tolerances"})
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(keys))
        how = draw(st.sampled_from(["drop", "junk", "bad", "bad"]))
        if how == "drop":
            cfg.pop(key, None)
        else:
            cfg[key] = draw(junk if how == "junk" else bad_values(dim)[key])
    # filiform3:4 stays at N = 2: larger grids take minutes
    if cfg.get("algebra") == "filiform3:4" and isinstance(cfg.get("grid"), dict):
        cfg["grid"]["N"] = 2
    return cfg


def run_cli(command, cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(path), "--out", str(Path(tmp) / "o")])
        wrote = (Path(tmp) / "o" / "kernel.bin").exists()
    return code, err.getvalue(), wrote


def check_contract(code, err):
    assert code in (0, 1, 2)
    if code != 0:
        lines = err.strip().splitlines()
        assert len(lines) == 1, err
        assert lines[0].split(":")[0].isidentifier(), err


@settings(max_examples=150)
@given(configs("build-kernel"))
def test_build_kernel_contract(cfg):
    code, err, wrote = run_cli("build-kernel", cfg)
    check_contract(code, err)
    assert wrote == (code == 0)


@settings(max_examples=80)
@given(configs("suite"))
def test_suite_contract(cfg):
    code, err, _ = run_cli("suite", cfg)
    check_contract(code, err)
