"""Self-test of the benchmark's oracle: a wrong verdict is counted.

Run from the root of a checkout: python3 -m pytest perfbench/test_oracle.py
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402
from worker import run_ops  # noqa: E402


def _first_round(name):
    return workloads.build(name, 7, HERE.parent).first


def test_known_answers_hold():
    ops = _first_round("divisor_gcd")
    _, failed = run_ops(ops)
    assert failed == []


def test_planted_wrong_verdict_is_counted():
    ops = _first_round("divisor_gcd")
    victim = next(i for i, op in enumerate(ops) if op.kind == "squarefree")
    ok, witness = ops[victim].expected
    ops[victim].expected = (not ok, witness)
    _, failed = run_ops(ops)
    assert failed == [victim]


def test_raising_op_is_counted():
    ops = _first_round("chart_pipeline")[:3]

    def boom():
        raise ArithmeticError("planted")

    ops[1] = workloads.Op("planted", boom, True)
    _, failed = run_ops(ops)
    assert failed == [1]
