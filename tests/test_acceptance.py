"""Acceptance battery: ten end-to-end criteria, one test each.

The criteria live in ``heightforge._acceptance``; each test pins the
contract sizes as that criterion's defaults, runs it at them (never scaled
down) and prints a single ``criterion N PASS`` line with its measured margin
(visible with ``pytest -s``).  A failing sample raises with its description.
Wall-time bounds and the numpy resultant oracle stay here.  Deterministic
seeds keep reruns identical.
"""
import inspect
import math
import random
import time

from heightforge import _acceptance as acc
from heightforge import _polys


def _defaults(criterion):
    return {k: p.default for k, p in inspect.signature(criterion).parameters.items()}


def test_criterion_01_functional_equation():
    assert _defaults(acc.functional_equation) == {"samples": 200}
    t0 = time.monotonic()
    detail = acc.functional_equation()
    elapsed = time.monotonic() - t0
    assert elapsed <= 60.0
    print(f"criterion 1 PASS — functional equation, {detail}, {elapsed:.1f}s")


def test_criterion_02_preperiodic_inventories():
    assert _defaults(acc.preperiodic_inventories) == {"z_bound": math.log(50), "samples": 1000}
    assert len(acc.INVENTORIES) == 5
    print(f"criterion 2 PASS — {acc.preperiodic_inventories()}")


def test_criterion_03_escape_lower_bound_exact():
    assert _defaults(acc.escape_lower_bound) == {"samples": 1000}
    print(f"criterion 3 PASS — {acc.escape_lower_bound()}")


def test_criterion_04_obstruction_scan():
    assert _defaults(acc.obstruction_scan) == {"n_max": 500, "z_bound": math.log(100)}
    t0 = time.monotonic()
    detail = acc.obstruction_scan()
    elapsed = time.monotonic() - t0
    assert elapsed <= 300.0
    print(f"criterion 4 PASS — {detail}, {elapsed:.1f}s")


def test_criterion_05_goodred_pairing_floor():
    assert _defaults(acc.goodred_pairing_floor) == {"samples": 10_000}
    print(f"criterion 5 PASS — {acc.goodred_pairing_floor()}")


def test_criterion_06_resultant_bound():
    assert _defaults(acc.resultant_bound) == {"samples": 1000}
    print(f"criterion 6 PASS — {acc.resultant_bound()}")


def test_criterion_07_uniform_height_floor():
    assert _defaults(acc.uniform_height_floor) == {"samples": 1000}
    print(f"criterion 7 PASS — {acc.uniform_height_floor()}")


def test_criterion_08_composed_scan():
    assert _defaults(acc.composed_scan) == {
        "t_bound": math.log(50), "z_bound": math.log(100), "samples": 500}
    t0 = time.monotonic()
    detail = acc.composed_scan()
    elapsed = time.monotonic() - t0
    assert elapsed <= 600.0
    print(f"criterion 8 PASS — {detail}, {elapsed:.1f}s")


def test_criterion_09_e_general_table():
    assert len(acc.COVER_FIXTURES) == 12
    print(f"criterion 9 PASS — {acc.e_general_table()}")


def test_criterion_10_oracles():
    assert _defaults(acc.local_global_overlap) == {"samples": 500, "rng": None}
    rng = random.Random(1010)
    detail = acc.local_global_overlap(rng=rng)

    import numpy as np
    checked = 0
    while checked < 50:
        f = [rng.randint(-9, 9) for _ in range(rng.randint(3, 5))]
        g = [rng.randint(-9, 9) for _ in range(rng.randint(3, 5))]
        if f[-1] == 0 or g[-1] == 0:
            continue
        exact = _polys.resultant(_polys.poly(f), _polys.poly(g))
        roots = np.roots(list(reversed(f)))  # descending for numpy
        prod = complex(f[-1]) ** (len(g) - 1)
        for alpha in roots:
            prod *= sum(c * alpha**i for i, c in enumerate(g))
        approx = prod.real
        assert abs(approx - float(exact)) <= 1e-6 * max(1.0, abs(float(exact))), (f, g)
        checked += 1
    print(f"criterion 10 PASS — {detail}, 50 resultants match the root-product oracle")
