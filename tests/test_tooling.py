"""Guards for the benchmark tooling and the docs that live outside the
package."""

import importlib
import importlib.util
import os
import pathlib
import shlex
import subprocess
import sys

import stuckwalk
from stuckwalk.cli import build_parser, parse_and_dispatch

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_perfbench_probe_targets_resolve():
    # perfbench --trace 1 patches these attributes by name; a renamed
    # function would otherwise only break the traced benchmark run
    spans = _spans()
    assert spans.PROBES
    for module, attr, name, _ in spans.PROBES:
        target = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(target, part), (module, attr, name)
            target = getattr(target, part)
        assert callable(target), (module, attr, name)


def test_perfbench_probes_read_traced_runs():
    # the probes also read what the probed calls return (the failure
    # reason of mc._run_one, the steps of a trajectory): a changed return
    # shape would otherwise only break perfbench --trace 1.  Both batch
    # engines share a pass, as the per-pass metrics are medians over passes
    spans = _spans()
    tracer = spans.Tracer()
    dispatch = tracer.wrap("cli.dispatch", parse_and_dispatch)
    batch = ["batch", "--alpha", "2", "--beta", "1", "--steps", "2000",
             "--seed", "5", "--workers", "1"]
    with tracer.probes():
        for argvs in ([batch + ["--runs", "8"],
                       batch + ["--engine", "rubin", "--runs", "4"]],
                      [["verify", "--suite", "all", "--horizon", "4",
                        "--runs", "20000"]]):
            tracer.begin_pass()
            for argv in argvs:
                assert dispatch(argv) == 0, argv
    metrics = spans.layer_metrics(tracer.spans, 1, 1.0)
    assert metrics["mc.runs"] == 12
    assert metrics["mc.failed_runs"] == 0
    assert metrics["rubin.jumps"] > 0
    assert metrics["walk.steps"] > 0


def test_readme_cli_lines_parse():
    # the README's CLI block may name only flags, choices and subcommands
    # the parser has; the lines are parsed, not run
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv for argv in lines if argv and argv[0] == "stuckwalk"]
    assert len(commands) >= 8
    parser = build_parser()
    for argv in commands:
        assert parser.parse_args(argv[1:]).subcommand == argv[1]


def test_readme_module_references_resolve():
    # every backticked `module.attr` (or `module.attr(...)`) naming a
    # stuckwalk module must name something that module still has
    import pkgutil
    import re

    modules = {m.name for m in pkgutil.iter_modules(stuckwalk.__path__)}
    text = (ROOT / "README.md").read_text()
    refs = {ref for ref in re.findall(r"`(\w+(?:\.\w+)+)[`(]", text)
            if ref.split(".")[0] in modules}
    assert len(refs) >= 10
    missing = []
    for ref in sorted(refs):
        module, *attrs = ref.split(".")
        obj = importlib.import_module(f"stuckwalk.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(ref)
    assert missing == []


def test_kernel_prototypes_match_argtypes():
    # ctypes passes whatever argtypes says: a C parameter added or dropped
    # without the matching argtypes change would corrupt memory silently
    import ctypes
    import re

    from stuckwalk import _kernel

    kernels = _kernel.load()
    c_types = {"double": ctypes.c_double, "int64_t": ctypes.c_int64,
               "uint64_t": ctypes.c_uint64, "void": None}
    # every function definition at the start of a line, whatever it
    # returns; static ones are not exported
    definitions = re.findall(r"^((?:\w+ )+)(\w+)\(([^)]*)\)\s*\{",
                             _kernel.SOURCE, flags=re.M)
    exported = [(ret.split()[-1], name, params)
                for ret, name, params in definitions
                if ret.split()[0] != "static"]
    assert [name for _, name, _ in exported] == [
        "stuck_step_prob", "stuck_walk_steps", "stuck_walk_many",
        "stuck_rubin_races",
        "stuck_sampler_step", "stuck_matched_crossings",
        "stuck_std_exponentials"]
    for ret, name, params in exported:
        want = [ctypes.c_void_p if "*" in p else c_types[p.split()[-2]]
                for p in params.split(",")]
        function = getattr(kernels, name)
        assert list(function.argtypes) == want, name
        assert function.restype == c_types[ret], name


def test_kernel_source_compiles_without_warnings(tmp_path):
    # the kernels are built without warning flags; a C edit that draws a
    # warning (an unused or uninitialised variable, a sign mismatch) fails
    # here rather than passing silently
    from stuckwalk import _kernel

    proc = subprocess.run(
        [_kernel.COMPILER, *_kernel.FLAGS, "-Wall", "-Wextra", "-Werror",
         "-x", "c", "-", "-o", str(tmp_path / "kernels.so"), "-lm"],
        input=_kernel.SOURCE.encode(), capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()


def test_verify_all_prints_the_suites_in_order(capsys):
    # the perfbench verify-all digest hashes these lines, so their order
    # is output: linsys, walk, rubin, coupling
    assert parse_and_dispatch(["verify", "--suite", "all", "--horizon", "4",
                               "--runs", "20000"]) == 0
    assert capsys.readouterr().out == (
        "linsys: PASS\nwalk: PASS\nrubin: PASS\ncoupling: PASS\n")


def test_kernel_library_path_covers_its_build_inputs(monkeypatch):
    # a cached library built from other source, flags or compiler must not
    # be loaded; any existing file stands in for the compiler
    from stuckwalk import _kernel

    base = _kernel._library_path(sys.executable)
    assert base == _kernel._library_path(sys.executable)
    assert _kernel._library_path(str(SPANS)) != base
    monkeypatch.setattr(_kernel, "SOURCE", _kernel.SOURCE + "\n")
    assert _kernel._library_path(sys.executable) != base
    monkeypatch.undo()
    monkeypatch.setattr(_kernel, "FLAGS", (*_kernel.FLAGS, "-g"))
    assert _kernel._library_path(sys.executable) != base


def _run_fresh(code, cwd):
    """Run ``code`` in a fresh interpreter that imports this package;
    returns its stdout."""
    src = os.path.dirname(os.path.dirname(stuckwalk.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _verify_writes_the_same_bytes_without(module, tmp_path, monkeypatch,
                                          capsys):
    """Run ``verify --suite all`` here and in a fresh interpreter where
    ``module`` cannot be imported: both print and write the same bytes,
    and the fresh one loads no submodule of ``module`` either."""
    argv = ["verify", "--suite", "all", "--seed", "20260826", "--out",
            "v.json"]
    (tmp_path / "fresh").mkdir()
    monkeypatch.chdir(tmp_path)
    assert parse_and_dispatch(argv) == 0
    out = _run_fresh(
        "import sys\n"
        f"sys.modules[{module!r}] = None\n"
        "from stuckwalk.cli import parse_and_dispatch\n"
        f"assert parse_and_dispatch({argv!r}) == 0\n"
        f"assert sys.modules[{module!r}] is None\n"
        f"assert not [m for m in sys.modules if m.startswith({module!r} "
        "+ '.')]\n",
        tmp_path / "fresh")
    assert out == capsys.readouterr().out
    assert (tmp_path / "fresh" / "v.json").read_bytes() == (
        tmp_path / "v.json").read_bytes()


def test_verify_runs_without_scipy(tmp_path, monkeypatch, capsys):
    # the chi-square p-value is stuckwalk.chisq's
    _verify_writes_the_same_bytes_without("scipy", tmp_path, monkeypatch,
                                          capsys)


def test_verify_runs_without_numpy_random(tmp_path, monkeypatch, capsys):
    # every Philox exponential is drawn in C
    _verify_writes_the_same_bytes_without("numpy.random", tmp_path,
                                          monkeypatch, capsys)


def test_cli_import_builds_no_parser(tmp_path):
    # the parser is built on first use, so importing the CLI does not
    # pay for it
    _run_fresh("import stuckwalk.cli\n"
               "assert stuckwalk.cli.build_parser.cache_info().currsize == 0\n",
               tmp_path)


def test_batch_modules_import_no_numpy(tmp_path):
    # numpy is about 170 ms of a cold start; one top-level import of it
    # on the batch path would put that back on every batch
    _run_fresh("import sys, stuckwalk, stuckwalk.cli, stuckwalk.mc, "
               "stuckwalk.analysis\n"
               "assert 'numpy' not in sys.modules\n", tmp_path)


def test_analyze_runs_without_numpy(tmp_path):
    # a kept path is replayed in Python for its Stops: no numpy on the
    # analyze path either
    rows = "".join(f"{k},{k % 2}\n" for k in range(3001))
    (tmp_path / "walk.csv").write_text("step,position\n" + rows)
    _run_fresh(
        "import sys\n"
        "from stuckwalk.cli import parse_and_dispatch\n"
        "assert parse_and_dispatch(['analyze', '--in', 'walk.csv', "
        "'--alpha', '2', '--beta', '1', '--out', 's.json']) == 0\n"
        "assert 'numpy' not in sys.modules\n", tmp_path)
    assert (tmp_path / "s.json").stat().st_size > 0


def test_verify_walk_runs_without_numpy(tmp_path):
    # the walk suite checks the kernel's Stop against the Python replay
    # of its path, and the law against 1 in the kernel: no numpy
    _run_fresh(
        "import sys\n"
        "from stuckwalk.cli import parse_and_dispatch\n"
        "assert parse_and_dispatch(['verify', '--suite', 'walk', "
        "'--out', 'v.json']) == 0\n"
        "assert 'numpy' not in sys.modules\n", tmp_path)
    assert (tmp_path / "v.json").stat().st_size > 0


def test_kernel_batch_runs_without_numpy(tmp_path):
    # nor a process pool (its walkers are threads) nor OpenSSL (the
    # kernel library's cache name needs no sha256)
    _run_fresh(
        "import sys\n"
        "from stuckwalk import _kernel\n"
        "from stuckwalk.cli import parse_and_dispatch\n"
        "assert parse_and_dispatch(['batch', '--alpha', '2', '--beta', '1', "
        "'--steps', '2000', '--runs', '4', '--seed', '5', '--engine', "
        "'direct', '--workers', '2', '--out', 'agg.json']) == 0\n"
        "assert _kernel.load() is not None\n"
        "for name in ('numpy', 'concurrent.futures', 'multiprocessing', "
        "'_hashlib'):\n"
        "    assert name not in sys.modules, name\n", tmp_path)
    assert (tmp_path / "agg.json").stat().st_size > 0
