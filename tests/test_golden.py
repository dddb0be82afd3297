"""Golden digest of the equitable constructions.

The README promises byte-identical colorings for identical inputs, so a
simplification of the constructions must leave every coloring and every
trace unchanged.  The digest below is the SHA-256 of the (input, coloring,
trace) lines over a fixed corpus; it was computed before the spine search
was rewritten and must not move.
"""

import hashlib
import itertools

from arbor.equitable import equitable_coloring, equitable_three
from arbor.random_trees import enumerate_unlabeled_trees, sample_labeled_tree
from arbor.trees import pre_leaves

GOLDEN_SEED = 2014
GOLDEN_LINES = 4920
GOLDEN_DIGEST = "5a5611333e52165288aedd3052e09024759272f445832f2d3e42496a8ffa4ff5"


def _line(tag, t, cert):
    colors = " ".join(str(cert.coloring.color(v)) for v in range(1, t.n + 1))
    return f"{tag}|{colors}|{' '.join(cert.trace)}\n".encode()


def _corpus():
    """Yield one line per coloring of the corpus."""
    for n in range(1, 13):
        for idx, t in enumerate(enumerate_unlabeled_trees(n)):
            for k in (3, 4, 5):
                if t.max_degree * k <= n:
                    yield _line(f"u{n}.{idx}.k{k}", t, equitable_coloring(t, k))
            if t.max_degree * 3 <= n:
                for p, q in itertools.permutations(pre_leaves(t), 2):
                    yield _line(f"u{n}.{idx}.c{p},{q}", t, equitable_three(t, constraint=(p, q)))
    for k in (3, 4, 5, 6):
        for trial in range(500):
            t = sample_labeled_tree(120, GOLDEN_SEED, trial)
            if t.max_degree * k <= t.n:
                yield _line(f"r120.{trial}.k{k}", t, equitable_coloring(t, k))
    big = sample_labeled_tree(10_000, GOLDEN_SEED)
    for k in (3, 5):
        yield _line(f"r10000.k{k}", big, equitable_coloring(big, k))


def corpus_digest():
    h = hashlib.sha256()
    lines = 0
    for line in _corpus():
        h.update(line)
        lines += 1
    return lines, h.hexdigest()


def test_golden_digest():
    lines, digest = corpus_digest()
    assert (lines, digest) == (GOLDEN_LINES, GOLDEN_DIGEST)

