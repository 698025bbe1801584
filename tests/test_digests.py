"""The three output digests of ``list_digest.py``, pinned.

Every recommended list with its scores and diversity, every byte ingest
writes, and the generator's output up to benchmark size go into these three
values, so a change that alters any output fails here and must re-pin them
on purpose.
"""

from list_digest import ingest_digest, list_digest, synth_digest


def test_list_digest_is_pinned():
    assert list_digest() == "0d1a16796482c6892c795ad1542ba76b65a662d54b9504fcc6b3b5070a177d26"


def test_ingest_digest_is_pinned():
    assert ingest_digest() == "7e3e76f98ea2842e62bf4b698ac36e550e943053c27532b25f5d4d30aabc4278"


def test_synth_digest_is_pinned():
    assert synth_digest() == "60dc980a6ad90c4a30d78b44415fed03b37df15d76b6bc56a40b6359a595cf12"
