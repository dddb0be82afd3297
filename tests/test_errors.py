import pytest

from arbor.balance import (
    DegreeSequence,
    balance_exact,
    brute_force_k_balanced,
    greedy_pair_partition,
    ones_twos_partition,
)
from arbor.equitable import brute_force_equitable, equitable_coloring
from arbor.errors import ArborError, BadArgument
from arbor.experiments import ExperimentConfig, run_equitable_fraction
from arbor.trees import path

BAD_ARGUMENTS = {
    "config-n": lambda: ExperimentConfig(n=1, trials=10),
    "config-trials": lambda: ExperimentConfig(n=5, trials=0),
    "config-k": lambda: ExperimentConfig(n=5, trials=1, k=2),
    "config-workers": lambda: ExperimentConfig(n=5, trials=1, workers=0),
    "equitable-run-without-k": lambda: run_equitable_fraction(ExperimentConfig(n=5, trials=1)),
    "equitable-k": lambda: equitable_coloring(path(6), 2),
    "brute-equitable-k": lambda: brute_force_equitable(path(3), 1),
    "brute-k-balanced-k": lambda: brute_force_k_balanced(path(3), 1),
    "degree-sequence-empty": lambda: DegreeSequence([]),
    "degree-sequence-zero": lambda: DegreeSequence([3, 0]),
    "values-empty": lambda: balance_exact([]),
    "values-negative": lambda: greedy_pair_partition([2, -1]),
    "ones-twos-negative": lambda: ones_twos_partition((1, 2, -1)),
}


@pytest.mark.parametrize("call", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS.keys())
def test_bad_argument_is_typed(call):
    # an ArborError (exit 2 from the CLI), and still a ValueError
    with pytest.raises(BadArgument) as exc:
        call()
    assert isinstance(exc.value, ArborError) and isinstance(exc.value, ValueError)


def test_caller_sequences_still_converted():
    # only is_balanced_graph's own degree list skips the int() pass
    assert balance_exact(["3", "1", "2", "2"]) == balance_exact([3, 1, 2, 2])
    assert ones_twos_partition(("1", "2", "1", "2")) == ones_twos_partition([1, 2, 1, 2])
