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
        "30299db6a1bd91e1db0c5fe2fc3378591f1a54e6e2658d33adea4c1777236239",
    ),
    (
        dict(family={"kind": "zmod_range", "lo": 1, "hi": 5}, checker="prop13"),
        "9d0304ff577285a003c8d8c3de8c85f1ef2519d50e422f44a9f7786d69d9924c",
    ),
    (
        dict(family={"kind": "zmod_range", "lo": 2, "hi": 9}, checker="udt",
             subset_filter=_NONEMPTY),
        "5aa00cbd071f563872d718096f0da880885262b9f9383652d0dccb313280e0c0",
    ),
    (
        dict(family={"kind": "zmod_range", "lo": 2, "hi": 9}, checker="udt",
             subset_filter=_NONEMPTY, workers=2),
        "aef8f4d5a9ab69f99459735b10d860702590234f31cd9bb2c2cd268adc8e20d2",
    ),
    (
        dict(family={"kind": "zmod_range", "lo": 1, "hi": 6}, checker="hs",
             subset_filter={"contains_identity": True}),
        "dca2449741f1bf19f3e3d5ac3ac02a1281fd3bd21c0b1c08febfdc58fe45e712",
    ),
    (
        dict(family={"kind": "zmod_range", "lo": 1, "hi": 6}, checker="zn",
             subset_filter={"nonempty": True, "max_size": 3}),
        "d55a147ccef770f4833a47063da2858b77da551e01c54a7ae1e546f70d83fab4",
    ),
    (
        dict(family={"kind": "abelian_up_to_order", "max_order": 6}, checker="weaker",
             subset_filter=_NONEMPTY, symmetry_reduction=True),
        "0c0f8ae1e676c14ece1ce4c4a0752f23737deae26dc65d0208c17d89f93b0af4",
    ),
    (
        dict(family={"kind": "zmod_range", "lo": 1, "hi": 7}, checker="conjecture",
             n_summands=1, symmetry_reduction=True),
        "78683a345e2084e3a561ee6af00abbb8a23e3893b5d055001df0bb9ac65c91d7",
    ),
    (
        dict(family={"kind": "explicit", "ambients": [_S3]}, checker="theorem",
             subset_filter={"commutative_generated": True, "max_size": 3},
             symmetry_reduction=True),
        "f3bdf2e757e13892569b058943027adf8b181b5ef478d1764f21ddd1e24e9596",
    ),
    (
        dict(family={"kind": "explicit", "ambients": [_S3]}, checker="conjecture",
             n_summands=1, subset_filter={"contains_identity": True,
                                          "commutative_generated": True}),
        "e6bd75937fd771623ee2e45540a77570315038d5c44bbaa24d7f7ae7b74260e5",
    ),
    (
        dict(family={"kind": "explicit", "ambients": [_S3]}, checker="prop13",
             subset_filter={"nonempty": True, "contains_identity": True,
                            "commutative_generated": True, "max_size": 4},
             mode={"kind": "random", "seed": 7, "trials": 2000}),
        "313d98f54b018fcd08e0cfc3c424e9e023ba95fa07b21ce11ef71fc15c3a8b50",
    ),
    (
        dict(family={"kind": "abelian_up_to_order", "max_order": 8}, checker="conjecture",
             n_summands=3, subset_filter=_NONEMPTY,
             mode={"kind": "random", "seed": 99, "trials": 5000}),
        "269c33f9e677cb0a2eacbcede8e27440d03ed2d3dae8f0fb4a79eaddbeaf3847",
    ),
    (
        dict(family={"kind": "abelian_up_to_order", "max_order": 8}, checker="conjecture",
             n_summands=3, subset_filter=_NONEMPTY,
             mode={"kind": "random", "seed": 99, "trials": 5000}, workers=2),
        "0281652b02fb3e24f7bf4ee16f655387c396a35cb99ec42d545e608e3aba9b0b",
    ),
    (
        # reports nine counterexamples to the conjectured n-ary bound
        dict(family={"kind": "zmod_range", "lo": 8, "hi": 8}, checker="conjecture",
             n_summands=3, subset_filter={"nonempty": True, "max_size": 3},
             mode={"kind": "random", "seed": 5, "trials": 6000}),
        "c10d13e8edc8fe6a76c6b7d092da33d2d27876c74fc2745d15e4e6a7896dbf15",
    ),
    # slabs whose tail fails the checker's hypotheses (no cancellativity,
    # or an empty Y): their skips come from the runner the search falls
    # back to when a slab entry raises
    (
        dict(family={"kind": "explicit", "ambients": [_LZB]}, checker="udt"),
        "347328e948913c1dd925bd096e89688995e6b8f2822a38824d9b846e3ba5b5e7",
    ),
    (
        dict(family={"kind": "explicit", "ambients": [_LZB]}, checker="theorem"),
        "ab82cdff2e6bed4157b417717ad5ba004cb7242e97f06017db15a900f2406a63",
    ),
    (
        dict(family={"kind": "explicit", "ambients": [_LZB]}, checker="hs"),
        "9c30fb3791a838a5ec0a23010a7f8784af881240e28bde1fc7b9cc35c3f0bfe4",
    ),
    (
        dict(family={"kind": "zmod_range", "lo": 1, "hi": 5}, checker="theorem"),
        "1eb35ce53c31febcb2d3f3ab4fbd58c954086698f144735cf4b1b9af91603a46",
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
