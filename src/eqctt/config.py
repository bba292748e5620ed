"""Runtime configuration shared by the kernel and the combinatorics lab."""


class Config:
    """The class attributes are the defaults; ``cli.main`` sets each field
    on ``CONFIG`` for every invocation."""
    k_max: int = 4        # bound on the directions of a canonicalized stuck comp
    dim: int = 3          # cubelab truncation dimension D
    budget: int = 500_000  # node cap for combinatorial searches
    json_output: bool = False


CONFIG = Config()
