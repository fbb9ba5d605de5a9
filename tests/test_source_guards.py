"""Guards on the library source that no numerical test would notice."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "magweyl"


def exp_of_matmul_lines(source):
    """Line numbers of np.exp(...) calls whose argument contains an @."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "exp" and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")):
            continue
        if any(isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.MatMult)
               for arg in node.args for sub in ast.walk(arg)):
            lines.append(node.lineno)
    return lines


def environ_lines(source):
    """Line numbers that read the process environment through os."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                alias.name in ("environ", "getenv") for alias in node.names):
            lines.append(node.lineno)
    return lines


def fft_lines(source, allowed=()):
    """Line numbers that reach numpy's FFT module outside the functions
    named in allowed."""
    tree = ast.parse(source)
    inside = {line for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name in allowed
              for line in range(node.lineno, node.end_lineno + 1)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "fft"
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
            and node.lineno not in inside]


def test_detector_flags_exp_of_matmul():
    assert exp_of_matmul_lines("np.exp(1j * x @ k.T)") == [1]
    assert exp_of_matmul_lines("np.exp(1j * x) @ k") == []


def test_no_exp_of_a_matmul_in_library():
    # numpy's complex exp runs an order of magnitude slower right after a
    # complex BLAS product; phase tables are built from broadcast products
    files = sorted(SRC.glob("*.py"))
    assert files
    offenders = [f"{p.name}:{line}" for p in files
                 for line in exp_of_matmul_lines(p.read_text())]
    assert not offenders, f"np.exp of a matmul at {', '.join(offenders)}"


def test_detector_flags_environment_reads():
    assert environ_lines("os.environ.get('X', '1')") == [1]
    assert environ_lines("x = 1\nos.getenv('X')") == [2]
    assert environ_lines("from os import environ") == [1]
    assert environ_lines("import os\nos.path.join('a')") == []


def test_only_the_cli_reads_the_environment():
    # the CLI validates MAGWEYL_THREADS once and passes the count down, so a
    # library caller never meets a malformed environment value
    files = sorted(p for p in SRC.glob("*.py") if p.name != "cli.py")
    assert files
    offenders = [f"{p.name}:{line}" for p in files
                 for line in environ_lines(p.read_text())]
    assert not offenders, f"environment read outside cli.py at {', '.join(offenders)}"


def test_detector_flags_fft_calls():
    assert fft_lines("x = 1\nnp.fft.fftn(v, axes=(0,), out=v)") == [2]
    assert fft_lines("centered_dft(v, [0])") == []
    two = "def centered_dft(v):\n    np.fft.fftn(v)\n\ndef other(v):\n    np.fft.ifftn(v)\n"
    assert fft_lines(two, allowed=("centered_dft",)) == [5]
    assert fft_lines(two) == [2, 5]


def test_only_symbol_space_calls_the_fft():
    # every transform goes through symbol_space.centered_dft, where the
    # transform-work tests and the benchmark's tracer count it
    files = sorted(SRC.glob("*.py"))
    assert files
    offenders = [f"{p.name}:{line}" for p in files for line in fft_lines(
        p.read_text(), ("centered_dft",) if p.name == "symbol_space.py" else ())]
    assert not offenders, f"np.fft outside centered_dft at {', '.join(offenders)}"
