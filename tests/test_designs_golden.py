"""Golden content hashes: every registered design regenerates bit-identically.

The ``ckt*`` values were captured from the generator that predates
the design corpus, so they prove the refactor preserved every array
bit-for-bit; the ``soc_*``/``imp_*`` values pin the new families
against accidental drift.  The hash covers the *full* serialized design
(``design_to_dict``, name included) — it guards geometry, not cache
identity; cache-key naming invariance is tested separately below.
"""

import dataclasses

import pytest

from repro.designs import generate_design, spec_by_name
from repro.io import fingerprint
from repro.io.design_json import design_to_dict
from repro.runner import design_ref_fingerprint

GOLDEN = {
    "ckt64": "320be46a576fa46fef20435bed9d80708a31fe45e72e60f40ef6fed7ce5360f7",
    "ckt128": "604fc5d2657a38647da666ca86cb2f26f58982524d2bf42030e163fad3f759be",
    "ckt256": "b2d55bc7c42f772addfa1874f6eaebeb907c230b5ef45356225812e46b9508bf",
    "ckt512": "6629234da7fc021d553e14b1118bd67957695100a990a115e3da9969f6f4e6b5",
    "ckt1024": "a3c9226867b1a8e6064eb88ecefe1f63f42cf09a18fe22c1a0c388c59df75970",
    "ckt2048": "783ae323ab402f4d63120a48be7020a85fff1b5bce3aabdbee80ef7af189f63f",
    "ckt256m": "7b76e48c5c9d96cd124bd45022e05d5cbd2e178cd9876f97534dfdb53d4e3681",
    "ckt512m": "d1b8d3c04448ddaae24a7c62603441580bbbb600fc13547c66b50d21c27a82ac",
    "soc_h64": "f43dcbf4d490d119222b7f7d9895a3f778661d2cdfde508cec01bf3e1dcf6e84",
    "soc_h256": "2edde5899be95e14772e9b82e3d6a882365d5bec0a799d7325f0bde925fa79b7",
    "soc_h256m": "e57f23167d5c0183dbff70ab4dd15b003b8236333a304d9b88d610bbbf266744",
    "soc_h1024": "7cac47b3761155adebfd4272d704351ba60ead5bac071202f0726966f53c830f",
    "soc_g128": "b50d07c2e175461ad366945ffdbf431dfbd533282d2acc5da786c210c865dbf8",
    "soc_g256": "423f29be631a3c8cacf46df9f0fb5baea05a5063814f508699ecaf80d724b8e7",
    "imp_uart": "380f75914805297c4bf25591df3ffb35f9b1e10d3610ca5c4a55f5166e138086",
    "imp_noc": "2d6a61c7bed1ef1ab7531a460cc66e7c0c620a69c15a1e0136cf2daed07846fd",
}

GOLDEN_SLOW = {
    "ckt4096": "63fb5d34136230c85b3450013cf569a77475764149501beaafdd89c5df1d8bbd",
    "ckt16384": "ebd5acb096a928c0ccd71a379a688537f791a8276919f1fecc2bbe8a66687ef8",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_design_regenerates_bit_identically(name):
    design = generate_design(spec_by_name(name))
    assert fingerprint(design_to_dict(design)) == GOLDEN[name]


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(GOLDEN_SLOW))
def test_scaling_rungs_regenerate_bit_identically(name):
    design = generate_design(spec_by_name(name))
    assert fingerprint(design_to_dict(design)) == GOLDEN_SLOW[name]


def test_every_registered_design_is_pinned():
    from repro.designs import spec_names
    assert set(spec_names()) == set(GOLDEN) | set(GOLDEN_SLOW)


def test_rename_changes_neither_geometry_nor_cache_key():
    """The seed-salt decoupling: a display rename is cache-invisible."""
    from repro.io import design_fingerprint

    spec = spec_by_name("ckt64")
    renamed = dataclasses.replace(spec, name="renamed_ckt64")
    original = design_to_dict(generate_design(spec))
    regenerated = design_to_dict(generate_design(renamed))
    assert regenerated["name"] == "renamed_ckt64"
    original.pop("name")
    regenerated.pop("name")
    assert regenerated == original  # geometry is unchanged
    # Both cache-identity layers ignore the name: the spec-content
    # fingerprint the runner keys cells by, and the built-design
    # fingerprint the build stage keys by.
    from repro.designs import spec_fingerprint
    assert spec_fingerprint(renamed) == spec_fingerprint(spec)
    assert (design_fingerprint(generate_design(renamed))
            == design_fingerprint(generate_design(spec)))


def test_design_ref_fingerprint_is_spec_content_hash():
    from repro.designs import spec_fingerprint
    assert design_ref_fingerprint("ckt64") == \
        spec_fingerprint(spec_by_name("ckt64"))
    assert design_ref_fingerprint("ckt64") != design_ref_fingerprint("ckt128")
