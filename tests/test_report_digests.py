"""Byte-identical reports, pinned: each digest is the sha256 of one
spec's stable report, so any change to the search that alters what it
reports changes one of them.

Between them the specs cover every checker, exhaustive and random mode,
each subset filter, symmetry reduction (one reduced slot 0 among them),
and runs at one and two workers that span more than one work item.  A
deliberate change of the report format or of the sampled instances must
record the new digests here.
"""

import hashlib
import json

import pytest

from cdlab import SearchSpec, fixtures, run_search

_NONEMPTY = {"nonempty": True}
_S3 = fixtures.s3().describe()
_LZB = fixtures.left_zero_band(3).describe()

DIGESTS = [
    (
        dict(family={"kind": "zmod_range", "lo": 2, "hi": 6}, checker="theorem",
             subset_filter=_NONEMPTY),
        "194471cf4d4e56116092440d4a264a4a0e844961e8b571432d9a9e432a533837",
    ),
    (
        dict(family={"kind": "zmod_range", "lo": 1, "hi": 5}, checker="prop13"),
        "c668bdf7dfa71933cd66cca4e2c19799f56f51a132e542dd22fb11b06e5c307e",
    ),
    (
        dict(family={"kind": "zmod_range", "lo": 2, "hi": 9}, checker="udt",
             subset_filter=_NONEMPTY),
        "00c4e96378f6b93ea4c3eedad27e0a626b553c586c421eec0063e1dfa765096e",
    ),
    (
        dict(family={"kind": "zmod_range", "lo": 2, "hi": 9}, checker="udt",
             subset_filter=_NONEMPTY, workers=2),
        "a026f792d5c84aea1d8462f29a6ba6af2af9c2edb11a34237603a45e909c9a63",
    ),
    (
        dict(family={"kind": "zmod_range", "lo": 1, "hi": 6}, checker="hs",
             subset_filter={"contains_identity": True}),
        "f33c5113047fd21b2c5d68193433217e8076a3a755e10c740e3925f72d487723",
    ),
    (
        dict(family={"kind": "zmod_range", "lo": 1, "hi": 6}, checker="zn",
             subset_filter={"nonempty": True, "max_size": 3}),
        "ea9b34ed309e820fea9020d126bee12b7c9cf90930c6956828f493d643c53fe3",
    ),
    (
        dict(family={"kind": "abelian_up_to_order", "max_order": 6}, checker="weaker",
             subset_filter=_NONEMPTY, symmetry_reduction=True),
        "e74a1b095a690c9206a3d175358e956cee133506f37b1732f37500dc06180407",
    ),
    (
        dict(family={"kind": "zmod_range", "lo": 1, "hi": 7}, checker="conjecture",
             n_summands=1, symmetry_reduction=True),
        "f735b66638354bad68bbb65721177da72b948627b1e17eac0516a50f2f7bf575",
    ),
    (
        dict(family={"kind": "explicit", "ambients": [_S3]}, checker="theorem",
             subset_filter={"commutative_generated": True, "max_size": 3},
             symmetry_reduction=True),
        "4f4a7216394253441c420c5bea746ba23d0448159814a2a9f34c7c24b6d4268c",
    ),
    (
        dict(family={"kind": "explicit", "ambients": [_S3]}, checker="conjecture",
             n_summands=1, subset_filter={"contains_identity": True,
                                          "commutative_generated": True}),
        "687eea63ce347c7703d499e602e0bee3c6655f5d63492290cff63063424b5d8f",
    ),
    (
        dict(family={"kind": "explicit", "ambients": [_S3]}, checker="prop13",
             subset_filter={"nonempty": True, "contains_identity": True,
                            "commutative_generated": True, "max_size": 4},
             mode={"kind": "random", "seed": 7, "trials": 2000}),
        "4b771bdbdd1271026dfd49f8db160ea692d99d800bc1121478ef7acfe945626f",
    ),
    (
        dict(family={"kind": "abelian_up_to_order", "max_order": 8}, checker="conjecture",
             n_summands=3, subset_filter=_NONEMPTY,
             mode={"kind": "random", "seed": 99, "trials": 5000}),
        "a8cf9c23a9a880aa0354c42262737c38e5e706fbde24158de03eac47784f53dd",
    ),
    (
        dict(family={"kind": "abelian_up_to_order", "max_order": 8}, checker="conjecture",
             n_summands=3, subset_filter=_NONEMPTY,
             mode={"kind": "random", "seed": 99, "trials": 5000}, workers=2),
        "40010b4cedb186bc593edd18c524cc5828fc29db587d43801e7d972465d16c3a",
    ),
    (
        # reports four counterexamples to the conjectured n-ary bound
        dict(family={"kind": "zmod_range", "lo": 8, "hi": 8}, checker="conjecture",
             n_summands=3, subset_filter={"nonempty": True, "max_size": 3},
             mode={"kind": "random", "seed": 5, "trials": 6000}),
        "c5b1db9f5fe6b0e4a132f2de5b60f50e395bd756fe2303cf875cd6be630fbfaf",
    ),
    # slabs whose tail fails the checker's hypotheses (no cancellativity,
    # or an empty Y): their skips come from the runner the search falls
    # back to when a slab entry raises
    (
        dict(family={"kind": "explicit", "ambients": [_LZB]}, checker="udt"),
        "8d7d8983de01d2544d0f3cfea114ec7f72451c4aff944f61fbc871eb37f3111d",
    ),
    (
        dict(family={"kind": "explicit", "ambients": [_LZB]}, checker="theorem"),
        "278f18d245cd7b0e31ad6227f578e9843b7ba58daf1083daf1b9651796ec5d35",
    ),
    (
        dict(family={"kind": "explicit", "ambients": [_LZB]}, checker="hs"),
        "bef2e5406cfb02ae4a5bf38b500ef58f1426187ecf9abaa0287a779da5cecc2f",
    ),
    (
        dict(family={"kind": "zmod_range", "lo": 1, "hi": 5}, checker="theorem"),
        "56731a8ed32847529d297ccd88e32d047f17f622608a0ce370ea6a114fb66134",
    ),
]


def report_digest(spec: dict) -> str:
    doc = run_search(SearchSpec(**spec)).stable_json()
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(
    "spec, digest", DIGESTS, ids=[f"{i}-{spec['checker']}" for i, (spec, _) in enumerate(DIGESTS)]
)
def test_stable_report_digest(spec, digest):
    assert report_digest(spec) == digest
