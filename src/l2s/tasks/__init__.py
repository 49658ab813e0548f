from .sequence import SequenceTask, SequenceReference
from .labeltree import LabelTreeTask, TreeReference, split
from .parse import ParseTask, ParseReference
from .io import (
    read_multiclass,
    read_sentences,
    write_multiclass,
    write_sentences,
)
from .synth import gen_multiclass, gen_sequences, gen_trees
from . import io, synth

__all__ = [
    "SequenceTask", "SequenceReference",
    "LabelTreeTask", "TreeReference", "split",
    "ParseTask", "ParseReference",
    "read_multiclass", "read_sentences",
    "write_multiclass", "write_sentences",
    "gen_multiclass", "gen_sequences", "gen_trees",
    "io", "synth",
]
