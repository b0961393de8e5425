"""The randomized suites refuse a draw count below 1 when it is read, and
report failures: the oracle suite by draw number, the CLI with exit status 1."""

import numpy as np
import pytest

from sparselms import verification
from sparselms.cli import main
from sparselms.sparse_ops import TheoremCheck
from sparselms.verification import (
    NOTED,
    hard_threshold_oracle_suite,
    oracle_draws,
    theorem2_draws,
    theorem2_suite,
    theorem3_draws,
    theorem3_suite,
)

COUNTED = [theorem2_suite, theorem3_suite, hard_threshold_oracle_suite,
           theorem2_draws, theorem3_draws, oracle_draws]


@pytest.mark.parametrize("draws", [0, -3])
@pytest.mark.parametrize("counted", COUNTED, ids=lambda f: f.__name__)
def test_a_draw_count_below_1_raises_when_called(counted, draws):
    # the draws generators raise on the call itself, before any iteration
    with pytest.raises(ValueError, match=rf"draws must be at least 1, got {draws}"):
        counted(draws, 1)


@pytest.mark.parametrize("draws", ["0", "-3", "many"])
@pytest.mark.parametrize("command", ["verify", "oracle"])
def test_the_cli_rejects_a_bad_draw_count_naming_the_option(command, draws, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--draws", draws])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "argument --draws:" in err and draws in err


@pytest.mark.parametrize("seed", ["-1", "-3"])
@pytest.mark.parametrize("command", ["verify", "oracle"])
def test_the_cli_rejects_a_bad_seed_naming_the_option(command, seed, capsys):
    # a negative seed used to reach numpy's SeedSequence and end in a traceback
    with pytest.raises(SystemExit) as exit_:
        main([command, "--seed", seed])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed:" in err and seed in err


def _never(*args):
    no = np.zeros(len(args[0]), dtype=bool)
    return TheoremCheck(no, no)


def test_cli_verify_returns_1_and_prints_failed_when_a_check_fails(monkeypatch, capsys):
    monkeypatch.setattr(verification, "theorem3_check", _never)
    assert main(["verify", "--draws", "50"]) == 1
    out = capsys.readouterr().out
    assert "theorem2: 50 draws, 0 failures [ok]" in out
    assert "theorem3: 50 draws, 50 failures [FAILED]" in out


def _keeps_nothing(v, s):
    return np.zeros_like(v)


def test_cli_oracle_returns_1_and_prints_failed_when_a_check_fails(monkeypatch, capsys):
    monkeypatch.setattr(verification, "hard_threshold", _keeps_nothing)
    assert main(["oracle", "--draws", "50"]) == 1
    assert "[FAILED]" in capsys.readouterr().out


def test_the_oracle_suite_names_its_first_mismatches_by_draw_number(monkeypatch):
    # a threshold that keeps nothing is wrong exactly on the nonzero vectors
    draws, seed = 400, 5
    nonzero = sorted(
        i for index, _, v in oracle_draws(draws, seed) for i, row in zip(index, v) if row.any()
    )
    monkeypatch.setattr(verification, "hard_threshold", _keeps_nothing)
    res = hard_threshold_oracle_suite(draws, seed)
    assert NOTED < len(nonzero) < draws
    assert res.failures == len(nonzero) and not res.passed
    assert res.notes == [
        f"draw {i}: hard_threshold differs from the pairwise-count reference"
        for i in nonzero[:NOTED]
    ] + [f"and {len(nonzero) - NOTED} more mismatches"]
