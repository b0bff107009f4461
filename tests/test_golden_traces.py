"""Traces pinned byte for byte: sha256 of ``engine.to_jsonl(trace)`` per family.

A change to the engine or a cell program that alters any trace record (its
tick, cell, state, inputs, outputs or their order) changes these digests.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest

from systolic import eigen, intgcd, polygcd, toeplitz
from systolic.engine import to_jsonl
from systolic.gfield import Field

A = (2, 1, 5, 1, 6, 1, 6, 2, 4, 0, 2, 5, 3, 4)
B = (5, 6, 3, 0, 5, 5, 2, 6, 3, 5)


def _toeplitz_trace():
    n = 8
    tb = toeplitz.ToeplitzBands(
        n, tuple(4.0 if k == 0 else 1 / (1 + abs(k)) for k in range(-n, n + 1)),
        tuple(float(x) for x in range(1, n + 2)))
    return toeplitz.systolic_toeplitz_solve(tb).trace


def _eigen_trace():
    m = np.array([[1 / (1 + i + j) + (i if i == j else 0) for j in range(6)]
                  for i in range(6)])
    # TOL = 0 never converges, so all ten sweeps run
    with mock.patch.object(eigen, "TOL", 0.0):
        return eigen.run_sweeps(m, mode="delayed", trace=True).report.trace


RUNS = {
    "intgcd": (lambda: intgcd.systolic_int_gcd(46563, 31276, 16, trace=True).trace, 2648,
               "6989e48098fdd2efd7bbdcf0431638549170826266893b090a5d14220bd8e348"),
    "polygcd-fig4": (lambda: polygcd.systolic_poly_gcd(Field(7), A, B, "fig4", trace=True).trace,
                     1518, "dd810af1a686a94259f624f1b15b4beeab5f324f7e63064a5316c0d1bc874663"),
    "polygcd-appA": (lambda: polygcd.systolic_poly_gcd(Field(7), A, B, "appA", trace=True).trace,
                     1518, "82714d919d28afab1d3675d27e34c1d4da3d345b6d7f92cd8aa9b9f500530393"),
    "toeplitz": (_toeplitz_trace, 81,
                 "dc764abe7f3b65d56b37fbc62e240d399ff01ea641a90db2f5345c59b41744e6"),
    "eigen-delayed": (_eigen_trace, 450,
                      "9b8a002f1b050eff21410f8d708ba194d56ed0646635d087be6d508b3bfde7fb"),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_trace(name):
    make, records, digest = RUNS[name]
    tr = make()
    assert len(tr) == records
    assert hashlib.sha256(to_jsonl(tr).encode()).hexdigest() == digest
