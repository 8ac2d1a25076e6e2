"""No job leaves cyclic garbage: its per-call tables are freed when it returns.

Each case makes one warm-up call (process-wide caches fill there), collects,
and then makes the same call with the cyclic collector off.  Whatever that
call left in reference cycles is what ``gc.collect()`` then finds.
"""

import contextlib
import gc
import io
import json

import pytest

from qqkit.cli import main
from qqkit.engine import WeightConfig, expand
from qqkit.partitions import affine_character
from qqkit.quiver import builtin_quiver

A0 = builtin_quiver("A0hat")
BC2 = builtin_quiver("BC2")
BC2_22 = ["--quiver", "BC2", "--w", json.dumps({"1": 2, "2": 2})]
LADDER = ["--quiver", "A1", "--w", '{"1": 2}', "--higgs", '{"x(1,2)": "x(1,1)*q1"}']


def _cli(*argv):
    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(list(argv)) == 0

    return call


CALLS = {
    **{f"expand-{f}": _cli("expand", *BC2_22, "--format", f) for f in ("json", "latex", "dot")},
    "higgs": _cli("higgs", *LADDER, "--format", "json"),
    "limit": _cli("limit", *LADDER, "--limit", "q1"),
    "hasse": _cli("hasse", "--quiver", "A2", "--w", '{"1": 1, "2": 1}'),
    "expand-affine": _cli("expand", "--quiver", "A0hat", "--w", '{"0": 2}', "--max-deg", "4"),
    "affine-expand": _cli("affine-expand", "--quiver", "Arhat(2)", "--w", '{"0": 1, "1": 1}', "--max-deg", "3"),
    "verify": _cli("verify"),
    "library-expand": lambda: expand(BC2, WeightConfig.make(BC2, {"1": 2, "2": 2})),
    "library-affine-character": lambda: affine_character(A0, WeightConfig.make(A0, {"0": 2}), 4),
}


@pytest.mark.parametrize("name", CALLS)
def test_a_call_leaves_no_cyclic_garbage(name):
    call = CALLS[name]
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()
