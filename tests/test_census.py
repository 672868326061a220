"""The static field census: every field ``src/`` stores has a reader.

``tests/data/census.py --fields`` lists each ``self.<name>`` that
``src/`` stores and nothing in the repo ever loads; a new write-only
field fails here.
"""

from tests.data.census import write_only_fields


def test_every_stored_field_is_read():
    assert write_only_fields() == {}
