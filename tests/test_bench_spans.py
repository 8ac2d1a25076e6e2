"""The benchmark's spans (``perfbench/spans.py``) name functions that exist.

The tracer wraps each ``SPANS`` target by name and passes over a name it
cannot find, so a rename would drop a layer metric without a word.  These
tests resolve every target the way ``Tracer.install`` does, and check that
``render`` reaches its traced formats through the module globals that the
tracer replaces.
"""

import importlib
import runpy
from pathlib import Path

from qqkit import render

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# targets that were stale before this check existed: the bench's upkeep
# replaces them with their current names and then empties this set
KNOWN_STALE = {
    "qqkit.monomial:Monomial.__init__",
    "qqkit.monomial:Monomial.without",
    "qqkit.quiver:cartan_matrix",
    "qqkit.partitions:box_stats",
    "qqkit.partitions:z_A0",
    "qqkit.partitions:z_A0_tuple",
    "qqkit.partitions:z_Ar",
    "qqkit.verify:run_pipeline",
}


def _resolves(target: str) -> bool:
    modname, qual = target.split(":")
    module = importlib.import_module(modname)
    if "." in qual:  # a method: the tracer looks in the class's own namespace
        cls_name, meth = qual.split(".")
        cls = getattr(module, cls_name, None)
        return cls is not None and meth in vars(cls)
    return getattr(module, qual, None) is not None


def test_every_span_target_resolves():
    spans = runpy.run_path(str(SPANS_PY))["SPANS"]  # by path: perfbench is not a package
    stale = {target for _, target in spans if not _resolves(target)}
    assert not stale - KNOWN_STALE, sorted(stale - KNOWN_STALE)


def test_render_reaches_the_traced_formats_by_their_global_names():
    assert {"character_latex", "character_to_json", "hasse_dot"} <= set(render.render.__code__.co_names)
