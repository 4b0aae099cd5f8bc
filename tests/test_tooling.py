"""Guards for the benchmark tooling that lives outside the package."""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_perfbench_probe_targets_resolve():
    # perfbench --trace 1 patches these attributes by name; a renamed
    # function would otherwise only break the traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.PROBES
    for module, attr, name, _ in spans.PROBES:
        target = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(target, part), (module, attr, name)
            target = getattr(target, part)
        assert callable(target), (module, attr, name)
