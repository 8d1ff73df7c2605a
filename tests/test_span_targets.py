"""Every entry point the benchmark traces resolves in the package.

``perfbench/spans.py`` looks each ``TARGETS`` entry up by name when a run is
traced (``perfbench/run.py --trace 1``): a module attribute, or an entry in a
class ``__dict__``.  Deleting or renaming one of them would crash the traced
run, so the suite fails first.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_span_target_resolves():
    missing = []
    for module_name, path, _, _ in _targets():
        module = importlib.import_module(f"breslow_lab.{module_name}")
        if "." in path:
            cls_name, attr = path.split(".")
            found = attr in vars(getattr(module, cls_name, object))
        else:
            found = callable(getattr(module, path, None))
        if not found:
            missing.append(f"{module_name}.{path}")
    assert not missing, f"span targets missing from the package: {missing}"
