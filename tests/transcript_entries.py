"""A decoded, record-order view of an ``OracleTranscript`` for the tests.

The transcript keeps each recorded query once, in its vector's ``answers``,
and the record order across vectors as a list of vector numbers; the tests
compare whole recorded queries, so this rebuilds each one from its
vector's prefix and ``TranscriptVector.input``."""

from typing import NamedTuple

from fischlin.oracle import OracleInput


class Entry(NamedTuple):
    """A recorded query: its encoding as the shared commitment-vector
    prefix and its own tail, the structured input and the answer."""

    prefix: bytes
    tail: bytes
    inp: OracleInput
    y: int

    @property
    def key(self) -> bytes:
        """The canonical encoding ``encode_input(inp)``."""
        return self.prefix + self.tail


def entries(transcript) -> list[Entry]:
    """Every recorded query of ``transcript``, decoded, in record order."""
    vectors = transcript.vectors
    points = [iter(vec.answers.items()) for vec in vectors]
    return [Entry(vectors[vid].prefix, tail, vectors[vid].input(tail), y)
            for vid in transcript.vids for tail, y in (next(points[vid]),)]
