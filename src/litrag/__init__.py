"""litrag: question a publication corpus with an ensemble of LLM endpoints
under retrieval-augmented generation, vote the answers, and report agreement,
similarity, coverage, and compute-footprint analytics."""

__version__ = "0.1.0"
