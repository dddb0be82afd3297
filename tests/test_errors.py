import pytest

from arbor.balance import (
    DegreeSequence,
    balance_exact,
    brute_force_k_balanced,
    greedy_pair_partition,
    ones_twos_partition,
)
from arbor.equitable import brute_force_equitable, equitable_coloring, hub_pair_coloring
from arbor.errors import ArborError, BadArgument, BadEntry, NotATree, PreconditionViolated
from arbor.experiments import ExperimentConfig, run_equitable_fraction
from arbor.random_trees import enumerate_labeled_trees, prufer_decode, prufer_encode
from arbor.trees import (
    branch,
    build_graph,
    build_tree,
    classify_vertex,
    complete_forest_to_tree,
    double_star,
    induced_subtree,
    path,
    path_order,
    star,
)

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


# outside input refused with a typed error: (call, error type, NotATree reason)
REFUSALS = {
    "from-edges-no-vertices": (lambda: build_graph([], 0), NotATree, "bad-vertex-id"),
    "classify-vertex-id": (lambda: classify_vertex(path(3), 4), NotATree, "bad-vertex-id"),
    "branch-vertex-id": (lambda: branch(path(3), 2, 0), NotATree, "bad-vertex-id"),
    "induced-subtree-vertex-id": (lambda: induced_subtree(path(3), {5}), NotATree, "bad-vertex-id"),
    # no graph has no vertices, so removing every vertex is refused
    "induced-subtree-every-vertex": (lambda: induced_subtree(path(2), {1, 2}), NotATree, "bad-vertex-id"),
    "path-order-not-a-path": (lambda: path_order(star(4)), PreconditionViolated, None),
    "forest-completion-cycle": (
        lambda: complete_forest_to_tree(build_graph([(1, 2), (2, 3), (1, 3)], 4), 3),
        NotATree,
        "cycle",
    ),
    "prufer-encode-one-vertex": (lambda: prufer_encode(build_tree([], 1)), BadEntry, None),
    "prufer-decode-one-vertex": (lambda: prufer_decode([], 1), BadEntry, None),
    "enumerate-one-vertex": (lambda: next(enumerate_labeled_trees(1)), BadEntry, None),
    # hubs 1 and 2 of degree 3 >= 6/3; leaf 3 is not a pre-leaf, 1 and 2 are
    "hub-pair-p-not-pre-leaf": (lambda: hub_pair_coloring(double_star(2, 2), 1, 2, 3, 2), PreconditionViolated, None),
    "hub-pair-q-not-pre-leaf": (lambda: hub_pair_coloring(double_star(2, 2), 1, 2, 1, 5), PreconditionViolated, None),
}


@pytest.mark.parametrize("call,error,reason", REFUSALS.values(), ids=REFUSALS.keys())
def test_outside_input_refused(call, error, reason):
    with pytest.raises(error) as exc:
        call()
    assert getattr(exc.value, "reason", None) == reason
