"""``live_frontier`` against the chained boundary masks of
``recursion_reference.reference_frontier``.

The engine reads each frontier mask off the source's support and the
policies' zeros, and each positivity witness off the source's ``gaps``;
the reference ANDs every boundary's support, previous mask and policy in
a chain and assumes nothing of the support.  Both must give the same
masks, byte for byte, and the same witness on random diagrams of one to
three actions, confounded or not, with some observational action or
covariate rows made point masses, on exact sources and on sources
estimated from 50 sampled rows at alpha 0 and 0.5, under no policies and
soft, deterministic and mixed random strategies.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import random_extended_id, random_strategy, zero_action_rows, zero_covariate_rows
from recursion_reference import reference_frontier
from regimes.data import estimate_conditionals, sample
from regimes.grecursion import _policy_arrays, live_frontier
from regimes.model import ExactSource

SEEDS = range(40)


def cases(seed: int):
    """(source, policies) pairs of one seed: 3 action counts x 2 confounding
    settings x 3 table variants x 3 sources x 4 policy kinds."""
    for n_actions in (1, 2, 3):
        for confounded in (False, True):
            plain = random_extended_id(seed, n_actions=n_actions, hidden_to_action=confounded)
            for d in (plain, zero_action_rows(plain, seed), zero_covariate_rows(plain, seed)):
                rows = sample(d, "obs", 50, seed)
                sources = [ExactSource(d)] + [
                    estimate_conditionals(rows, d.base, alpha) for alpha in (0.0, 0.5)
                ]
                policies = [None] + [
                    _policy_arrays(d.base, random_strategy(d, 1000 + seed, deterministic))
                    for deterministic in (False, True, None)
                ]
                for source in sources:
                    for chosen in policies:
                        yield source, chosen


@pytest.mark.parametrize("seed", SEEDS)
def test_frontier_matches_the_chained_reference(seed):
    for source, policies in cases(seed):
        got, got_witness = live_frontier(source, policies)
        want, want_witness = reference_frontier(source, policies)
        assert got.keys() == want.keys()
        for m, mask in want.items():
            assert got[m].shape == mask.shape and got[m].dtype == mask.dtype
            assert got[m].tobytes() == mask.tobytes()
        assert got_witness == want_witness


def test_the_corpus_reaches_witnesses_and_pruning():
    """Some cases have a witness, and some have a policy that prunes a
    history of the support; so do cases without a witness."""
    reached = set()
    for seed in SEEDS:
        for source, policies in cases(seed):
            masks, witness = reference_frontier(source, policies)
            support = source.support()
            pruned = any(
                np.count_nonzero(masks[m]) < np.count_nonzero(support[m]) for m in masks
            )
            reached.add((witness is not None, pruned))
    assert reached == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("seed", SEEDS[:10])
def test_supports_are_prefix_closed(seed):
    """A prefix is possible exactly when one of its extensions at the next
    boundary is."""
    for source, _ in cases(seed):
        support, bounds = source.support(), source.base.boundaries
        for lo, hi in zip(bounds, bounds[1:]):
            extended = np.any(support[hi], axis=tuple(range(lo, hi)))
            assert extended.tobytes() == np.asarray(support[lo]).tobytes()


@pytest.mark.parametrize("seed", SEEDS[:10])
def test_frontier_masks_are_read_only(seed):
    """A mask may be the support's own cached one, so none may be written."""
    for source, policies in cases(seed):
        masks, _ = live_frontier(source, policies)
        for mask in masks.values():
            with pytest.raises(ValueError, match="read-only"):
                mask[...] = False
