"""Cost-efficient distributed SGD simulator with bandit worker selection."""

__version__ = "0.1.0"
