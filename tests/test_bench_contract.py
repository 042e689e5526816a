"""The benchmark's tracer wraps `ddr` functions by name; every name it lists
must still resolve, or `bench/run.py --trace 1` breaks."""

import importlib
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_run():
    # run.py imports its sibling modules by plain name
    sys.path.insert(0, str(BENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
        return module
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(BENCH))


def test_every_trace_target_resolves():
    run = _load_run()
    assert run.TRACE_TARGETS
    missing = []
    for module_name, attr_path, span_name, _ in run.TRACE_TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr_path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr_path} ({span_name})")
    assert not missing, f"trace targets missing from ddr: {missing}"
    assert set(run.SELF_METRIC) >= {span for _, _, span, _ in run.TRACE_TARGETS}
