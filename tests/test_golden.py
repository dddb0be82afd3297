"""Golden digest of the equitable constructions.

The README promises byte-identical colorings for identical inputs, so a
simplification of the constructions must leave every coloring and every
trace unchanged.  The digest below is the SHA-256 of the (input, coloring,
trace) lines over a fixed corpus; it was computed before the spine search
was rewritten and must not move.

That corpus never reaches the hub-peel records of ``hub_pair_coloring``, so
a second digest covers them: every ordered pre-leaf pair of 80 trees with
two planted hubs.  It was computed before the peeling machine dropped its
restore pass and must not move either.

A third digest covers the exact balance DP: the value F and the traced
side I of ``balance_exact`` over seeded sequences of every length up to
400, and the balanced colorings of seeded trees that the ones/twos
shortcut cannot decide.  It was computed before the DP learned to skip
rows off the witness path and must not move.

A fourth digest covers the crowded-leaf trees of ``crowded_tree``, where
every leaf crowds a hub or the pre-leaf pair: every construction that
``every_construction`` runs on the trees of 400 seeds, with and without
planted hubs.  It is the only corpus that reaches the exact skeleton DP
``_skeleton_colors``.  It was computed before the peeling machine moved to
flat degree arrays and must not move.

A fifth digest covers the ones/twos construction, which the balance digest
never reaches: the sides I and J and their sums from
``ones_twos_partition`` over seeded sequences with at least max(seq) ones
and twos, and the ``is_balanced_graph`` colorings of seeded trees whose
ones/twos shortcut applies.  It was computed before the construction moved
to value buckets and must not move.
"""

import hashlib
import itertools
import random

import arbor.equitable as equitable_module
from arbor.balance import balance_exact, is_balanced_graph, ones_twos_partition
from arbor.equitable import _skeleton_colors as skeleton_colors
from arbor.equitable import equitable_coloring, equitable_three, hub_pair_coloring
from arbor.random_trees import enumerate_unlabeled_trees, sample_labeled_tree
from arbor.trees import build_tree, pre_leaves

GOLDEN_SEED = 2014
GOLDEN_LINES = 4920
GOLDEN_DIGEST = "5a5611333e52165288aedd3052e09024759272f445832f2d3e42496a8ffa4ff5"
HUB_LINES = 4756
HUB_DIGEST = "b29d17946fc44327035430c702aff1cfc0bebc02648edbcf0bc7a14afcd14ad6"
CROWDED_SEEDS = 400
CROWDED_LINES = 2699
CROWDED_DIGEST = "fa837a19648f70c1fc516178d0119609a8f492b10981a694e636ad0c7d8e39a1"
BALANCE_LINES = 1324
BALANCE_DIGEST = "afc032955f7c8c67618f0875ac28ff8dc94ecf839e0854e1373ed88b3da96a74"
BALANCE_RANGES = ((0, 3), (1, 3), (3, 8), (3, 39))
ONES_TWOS_LINES = 2106
ONES_TWOS_DIGEST = "695b1dea89b99c3aa57999727c4ebb4cb3243912bcccfe4fd1034bbd9ddf7eab"


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


def planted_hub_tree(rng):
    """A tree on 13..59 vertices whose vertices 1 and 2 carry n/3 - 1 leaves
    each, with the rest attached at random; vertices 1 and 2 may end up as
    hubs of degree >= n/3."""
    n = rng.randrange(13, 60)
    need = -(-n // 3)
    edges = [(1, 2)]
    nxt = 3
    for _ in range(need - 1):
        edges.append((1, nxt))
        nxt += 1
    for _ in range(need - 1):
        edges.append((2, nxt))
        nxt += 1
    verts = list(range(1, nxt))
    while nxt <= n:
        edges.append((rng.choice(verts), nxt))
        verts.append(nxt)
        nxt += 1
    return build_tree(edges, n)


def _skeleton(kind, legs):
    """Edges of a path, spider or H-shaped skeleton on 1..s, and s."""
    edges = []
    top = 1

    def leg(frm, length):
        nonlocal top
        for _ in range(length):
            top += 1
            edges.append((frm, top))
            frm = top
        return frm

    if kind == "path":
        leg(1, legs[0])
    elif kind == "spider":
        for length in legs:
            leg(1, length)
    else:  # H: two forks joined by a bar
        leg(1, legs[0])
        leg(1, legs[1])
        joint = leg(1, legs[2])
        leg(joint, legs[3])
        leg(joint, legs[0])
    return edges, top


def crowded_tree(rng, hubs):
    """A skeleton with at most four leaves plus leaf bundles on at most four
    of its vertices, randomly labelled.  With ``hubs`` two bundles are sized
    so that two vertices have degree exactly n/3; None when that breaks the
    degree cap."""
    kind = rng.choice(["path", "spider", "H"])
    legs = [rng.randint(1, 8) for _ in range(4)]
    edges, s = _skeleton(kind, legs[: rng.choice([3, 4])] if kind == "spider" else legs)
    deg = [0] * (s + 1)
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    hosts = rng.sample(range(1, s + 1), min(s, rng.randint(1, 4)))
    bundles = {x: rng.randint(0, s) for x in hosts}
    if hubs:
        if len(hosts) < 2:
            return None
        h1, h2 = hosts[:2]
        for x in hosts[2:]:
            bundles[x] = rng.randint(0, 4)
        third = s - deg[h1] - deg[h2] + sum(bundles[x] for x in hosts[2:])  # n/3
        bundles[h1], bundles[h2] = third - deg[h1], third - deg[h2]
        if min(bundles.values()) < 0:
            return None
    n = s
    for x, size in bundles.items():
        for _ in range(size):
            n += 1
            edges.append((x, n))
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    t = build_tree([(labels[a - 1], labels[b - 1]) for a, b in edges], n)
    if hubs and t.max_degree * 3 > n:
        return None
    return t


def every_construction(t):
    """Yield (tag, k, pre-leaf pair, hub pair, certificate) for every
    construction whose precondition t meets: ``equitable_coloring`` at
    k = 3, 4, 5, ``equitable_three`` under every pre-leaf pair, and
    ``hub_pair_coloring`` for every hub pair and pre-leaf pair."""
    n = t.n
    for k in (3, 4, 5):
        if t.max_degree * k <= n:
            yield f"k{k}", k, None, None, equitable_coloring(t, k)
    if t.max_degree * 3 > n:
        return
    pls = pre_leaves(t)
    for pair in itertools.combinations(pls, 2):
        yield "c{},{}".format(*pair), 3, pair, None, equitable_three(t, constraint=pair)
    hubs = [x for x in range(1, n + 1) if 3 * t.degree(x) >= n]
    for u, v in itertools.combinations(hubs, 2):
        for pair in itertools.combinations(pls, 2):
            yield "h{},{}.c{},{}".format(u, v, *pair), 3, pair, (u, v), hub_pair_coloring(t, u, v, *pair)


def _crowded_corpus():
    """Yield one line per construction run on the crowded-leaf corpus."""
    for seed in range(CROWDED_SEEDS):
        for hubs in (False, True):
            t = crowded_tree(random.Random(seed), hubs)
            if t is not None:
                for tag, _, _, _, cert in every_construction(t):
                    yield _line(f"x{seed}.{int(hubs)}.{tag}", t, cert)


def _hub_corpus():
    """Yield one line per hub-pair coloring of the planted-hub corpus."""
    for seed in range(80):
        t = planted_hub_tree(random.Random(seed))
        if t.degree(1) * 3 < t.n or t.degree(2) * 3 < t.n:
            continue
        for p, q in itertools.permutations(pre_leaves(t), 2):
            yield _line(f"h{seed}.c{p},{q}", t, hub_pair_coloring(t, 1, 2, p, q))


def _balance_corpus():
    """Yield one line per balance witness of the sequence and tree corpus."""
    rng = random.Random(GOLDEN_SEED)
    for n in range(1, 401):
        # below 17 the memoized small path answers; above, the checkpointed DP
        reps = 10 if n <= 16 else 1
        for r, (lo, hi) in enumerate(BALANCE_RANGES):
            if n > 16 and r != n % len(BALANCE_RANGES):
                continue
            for rep in range(reps):
                values = [rng.randint(lo, hi) for _ in range(n)]
                f, part = balance_exact(values)
                yield f"s{n}.{lo}-{hi}.{rep}|{f}|{' '.join(map(str, part.I))}\n".encode()
    trees = 0
    for trial in itertools.count():
        t = sample_labeled_tree(5 + trial % 56, GOLDEN_SEED, trial)
        degrees = t.degree_sequence()
        m = max(degrees)
        if degrees.count(1) >= m and degrees.count(2) >= m:
            continue
        coloring = is_balanced_graph(t)
        colors = "-" if coloring is None else " ".join(str(coloring.color(v)) for v in range(1, t.n + 1))
        yield f"t{t.n}.{trial}|{colors}\n".encode()
        trees += 1
        if trees == 300:
            return


def _ones_twos_sequence(rng, n):
    """n values with at least max ones and max twos: a top value m, m ones,
    m twos, the rest from a few values in lo..m (many ties), shuffled."""
    m = rng.randint(2, n // 3)
    lo = rng.choice((0, 1, 1, 2, m))
    pool = [rng.randint(lo, m) for _ in range(rng.randint(1, 4))]
    values = [m] + [1] * m + [2] * m + [rng.choice(pool) for _ in range(n - 2 * m - 1)]
    rng.shuffle(values)
    return values


def _ones_twos_corpus():
    """Yield one line per ones/twos split of the sequence and tree corpus."""
    rng = random.Random(GOLDEN_SEED)
    for n in range(6, 401):
        for rep in range(6 if n <= 40 else 2):
            part = ones_twos_partition(_ones_twos_sequence(rng, n))
            sides = " ".join(map(str, part.I)) + "|" + " ".join(map(str, part.J))
            yield f"q{n}.{rep}|{sides}|{part.sum_I}|{part.sum_J}\n".encode()
    for n in range(3, 301):
        for trial in range(4):
            t = sample_labeled_tree(n, GOLDEN_SEED, trial)
            degrees = t.degree_sequence()
            m = max(degrees)
            if degrees.count(1) < m or degrees.count(2) < m:
                continue
            coloring = is_balanced_graph(t)
            yield f"t{n}.{trial}|{' '.join(str(coloring.color(v)) for v in range(1, n + 1))}\n".encode()


def corpus_digest(corpus=_corpus):
    h = hashlib.sha256()
    lines = 0
    for line in corpus():
        h.update(line)
        lines += 1
    return lines, h.hexdigest()


def test_golden_digest():
    lines, digest = corpus_digest()
    assert (lines, digest) == (GOLDEN_LINES, GOLDEN_DIGEST)


def test_hub_peel_digest():
    lines, digest = corpus_digest(_hub_corpus)
    assert (lines, digest) == (HUB_LINES, HUB_DIGEST)

def test_crowded_digest(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(len(args[0]))
        return skeleton_colors(*args)

    monkeypatch.setattr(equitable_module, "_skeleton_colors", counted)
    lines, digest = corpus_digest(_crowded_corpus)
    assert (lines, digest) == (CROWDED_LINES, CROWDED_DIGEST)
    assert calls  # the exact skeleton DP is covered


def test_balance_digest():
    lines, digest = corpus_digest(_balance_corpus)
    assert (lines, digest) == (BALANCE_LINES, BALANCE_DIGEST)


def test_ones_twos_digest():
    lines, digest = corpus_digest(_ones_twos_corpus)
    assert (lines, digest) == (ONES_TWOS_LINES, ONES_TWOS_DIGEST)
