"""Re-measure the single-operation baseline rows of ROADMAP.md.

    python3 perfbench/rows.py

Each row is the median of several timed repetitions after one warm-up call,
run on one thread from the root of a source checkout.  These rows are for
the README's reference table; the benchmark proper is run.py.
"""

from __future__ import annotations

import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def timed(fn, reps: int, inner: int = 1) -> float:
    fn()
    out = []
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        out.append((time.perf_counter() - start) / inner)
    return statistics.median(out)


def main() -> int:
    if not (ROOT / "src" / "qqkit" / "__init__.py").is_file():
        print("rows: run from a qqkit source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import qqkit as qq
    from qqkit import cli, verify

    x1, x2, x3 = (qq.xparam("1", a) for a in (1, 2, 3))
    a = qq.s_r(1, x1 / x2) * qq.s_r(1, x2 / x3)
    a_again = qq.s_r(1, x2 / x3) * qq.s_r(1, x1 / x2)
    b = qq.s_r(1, x1 / x3)
    A1, BC2, A0hat = (qq.builtin_quiver(n) for n in ("A1", "BC2", "A0hat"))
    bc2_wc = qq.WeightConfig.make(BC2, {"1": 2, "2": 2})
    hw = qq.highest_weight(BC2, bc2_wc)
    i, x, _ = hw.ym.numerator_entries()[0]
    a0_wc = qq.WeightConfig.make(A0hat, {"0": 2})
    burge = next(fx for fx in verify.load_corpus() if fx["id"] == "burge-r2-desk")

    with tempfile.TemporaryDirectory(dir=str(Path(__file__).resolve().parent)) as tmp:
        out = os.path.join(tmp, "verify.txt")
        rows = [
            ("qqkit verify (default pool)", "s", timed(lambda: cli.main(["verify", "--out", out]), 3)),
            ("qqkit verify --threads 1", "s", timed(lambda: cli.main(["verify", "--threads", "1", "--out", out]), 3)),
            ("fixture burge-r2-desk", "s", timed(lambda: verify.run_fixture(burge), 3)),
            ("expand A1 w=8", "s", timed(lambda: qq.expand(A1, qq.WeightConfig.make(A1, {"1": 8})), 3)),
            ("expand BC2 (2,2)", "s", timed(lambda: qq.expand(BC2, bc2_wc), 3)),
            ("expand A0hat w=2 deg 5", "s", timed(lambda: qq.expand(A0hat, a0_wc, max_qdeg=5), 5)),
            ("affine_character A0hat w=2 deg 5", "s", timed(lambda: qq.affine_character(A0hat, a0_wc, 5), 5)),
            ("reflect BC2 (2,2) highest weight", "ms", 1e3 * timed(lambda: qq.engine.reflect(BC2, hw, i, x), 21, 20)),
            ("Monomial product", "us", 1e6 * timed(lambda: x1 * x2, 21, 2000)),
            ("s_r(1, z)", "us", 1e6 * timed(lambda: qq.s_r(1, x1 / x2), 21, 200)),
            ("Coefficient *", "us", 1e6 * timed(lambda: a * b, 21, 200)),
            ("Coefficient == (equal values)", "us", 1e6 * timed(lambda: a == a_again, 21, 200)),
            ("Coefficient +", "ms", 1e3 * timed(lambda: a + b, 11, 5)),
        ]
    print(f"python {sys.version.split()[0]}, {os.cpu_count()} cores")
    for name, unit, value in rows:
        print(f"{name:36s} {value:10.4g} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
