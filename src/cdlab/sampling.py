"""The draws of random mode: each trial from its own bit stream, each set
uniform over the masks the subset filter admits.

A trial reads the blake2b digests of its seed, its index and a block
counter, so it depends on (seed, index) alone, whatever the items and the
workers: first the ambient, then each set in slot order.  The identity bit
is set, not drawn, for contains_identity; under a max_size below the free
bits a size t is picked with weight C(m, t) and then a uniform t-subset;
otherwise the bits are drawn plain and only the empty mask is drawn again
under nonempty.  commutative_generated alone is met by drawing again.

Random mode alone imports this module, on its first trial, and hashlib
with it, so neither `import cdlab` nor an exhaustive search loads them.
"""

import bisect
import hashlib
import math
from dataclasses import dataclass

from .errors import SpecInvalid
from .search import _admits, _decode


class TrialBits:
    """The bit stream of one trial: the blake2b digests of
    "seed:index:block" for block = 0, 1, ..., each read as one
    little-endian integer and stacked above the bits before it.  Bits are
    read from the bottom and never reused."""

    __slots__ = ("key", "block", "bits", "left")

    def __init__(self, seed: int, index: int):
        # every trial reads block 0, for its ambient index if nothing else
        self.key = key = b"%d:%d:" % (seed, index)
        self.bits = int.from_bytes(hashlib.blake2b(key + b"0").digest(), "little")
        self.block = 1
        self.left = 512

    def below(self, n: int) -> int:
        """A uniform integer in [0, n), by rejection on (n - 1).bit_length()
        bits: every draw of a trial, ambient index and masks, comes from
        here."""
        k = (n - 1).bit_length()
        low = (1 << k) - 1
        while True:
            if self.left < k:
                data = bytearray()
                for b in range(self.block, self.block + (k - self.left + 511) // 512):
                    data += hashlib.blake2b(b"%s%d" % (self.key, b)).digest()
                self.block = b + 1
                self.bits |= int.from_bytes(data, "little") << self.left
                self.left += 8 * len(data)
            r = self.bits & low
            self.bits >>= k
            self.left -= k
            if r < n:
                return r


@dataclass(frozen=True, slots=True)
class Draw:
    """How one slot of one ambient draws its masks, uniformly over those
    the subset filter admits.  The identity bit `forced` is set without a
    draw; the other m bits are drawn plain, rejecting only the empty mask
    when `nonempty`, or, when `sizes` is set, as a size t picked with
    weight C(m, t) (the running sums of those weights, from t = 1 when
    `nonempty` and t = 0 otherwise) and then a uniform t-subset.
    `generated` marks the one filter met by drawing again,
    commutative_generated."""

    m: int
    forced: object        # the identity's bit index, or None
    nonempty: bool
    sizes: object         # running sums of C(m, t), or None
    generated: bool


def plan(ctx, ai: int, last: bool) -> Draw:
    """The draw of one slot of ambient ai: the last slot with `last`,
    any other without.  SpecInvalid when the filter admits no mask
    there."""
    a = ctx.ambients[ai]
    forced = None
    if last and ctx.f_identity:
        if not a.axioms.has_identity:
            raise SpecInvalid(f"subset filters admit no set over {a.describe()}")
        forced = a.index_of(a.identity)
    m = a.carrier_size - (forced is not None)
    nonempty = ctx.f_nonempty and forced is None
    sizes = None
    top = ctx.f_max_size
    if top is not None and top - (forced is not None) < m:
        top -= forced is not None
        if top < nonempty:
            raise SpecInvalid(f"subset filters admit no set over {a.describe()}")
        # each weight from the one before it: a math.comb call per size
        # costs seconds over a carrier of thousands
        sizes, total, w = [], 0, math.comb(m, nonempty)
        for t in range(nonempty, top + 1):
            total += w
            sizes.append(total)
            w = w * (m - t) // (t + 1)
    return Draw(m, forced, nonempty, sizes, last and ctx.f_commutative)


def draw_mask(bits: TrialBits, d: Draw) -> int:
    """One mask drawn from the trial's stream, uniform over the masks the
    draw's filter admits before its commutative_generated test."""
    if d.sizes is None:
        r = bits.below(1 << d.m)
        while d.nonempty and not r:
            r = bits.below(1 << d.m)
    else:
        t = d.nonempty + bisect.bisect_right(d.sizes, bits.below(d.sizes[-1]))
        # Floyd's sampling of a uniform t-subset of range(m)
        r = 0
        for j in range(d.m - t, d.m):
            p = bits.below(j + 1)
            r |= 1 << (j if r >> p & 1 else p)
    if d.forced is not None:
        i = d.forced
        r = (r & ((1 << i) - 1)) | (r >> i << i + 1) | (1 << i)
    return r


def sample_instance(ctx, index: int):
    """The ambient index and decoded sets of trial `index` of the random
    search ctx.  Each ambient's draws are planned on the first trial that
    lands in it and kept in ctx.draws for the run, so a size's weights are
    summed once per ambient."""
    bits = TrialBits(ctx.spec.mode["seed"], index)
    ai = bits.below(len(ctx.ambients))
    a = ctx.ambients[ai]
    draws = ctx.draws.get(ai)
    if draws is None:
        k = ctx.spec.n_summands
        draws = ctx.draws[ai] = [plan(ctx, ai, False)] * (k - 1) + [plan(ctx, ai, True)]
    sets = []
    for slot, d in enumerate(draws):
        if d.sizes is None and d.forced is None and not d.generated:
            # the common draw, draw_mask's first branch without the call
            mask = bits.below(1 << d.m)
            while not mask and d.nonempty:
                mask = bits.below(1 << d.m)
        elif d.generated:
            # the filter's own test decodes the set
            for _ in range(100000):
                mask = draw_mask(bits, d)
                if _admits(ctx, ai, slot, mask):
                    break
            else:
                raise SpecInvalid("subset filters rejected 100000 straight samples")
        else:
            mask = draw_mask(bits, d)
        sets.append(_decode(a, mask))
    return ai, sets
