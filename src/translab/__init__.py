"""translab: lower bounds for invariant-representation translation, and the
generative counterpoint where jointly trained encoders provably compose."""

__version__ = "0.1.0"
