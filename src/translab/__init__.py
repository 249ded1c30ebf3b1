"""translab: lower bounds for invariant-representation translation, and the
generative counterpoint where graph-anchored training provably composes."""

__version__ = "0.1.0"
