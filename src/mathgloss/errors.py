"""Exception types shared across the package."""


class MathGlossError(Exception):
    """Base class for every error raised by this package."""


class MalformedRecord(MathGlossError):
    """A corpus line that cannot be turned into a document."""

    def __init__(self, line_number: int, reason: str):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason


class DuplicateTitle(MathGlossError):
    def __init__(self, title: str):
        super().__init__(f"duplicate document title: {title!r}")
        self.title = title


class NotUtf8(MathGlossError):
    """A corpus, vector or stopword file holds bytes that are not UTF-8 text."""


class EmptyCorpus(MathGlossError):
    """Corpus file contained no records, or an empty corpus reached a stage that needs one."""


class ParseError(MathGlossError):
    """Math expression rejected by the grammar."""

    def __init__(self, position: int, reason: str):
        super().__init__(f"position {position}: {reason}")
        self.position = position
        self.reason = reason


class QueryParseError(MathGlossError):
    """The query expression handed to the pipeline did not parse."""


class DimensionMismatch(MathGlossError):
    """Vector rows or operands disagree on dimension, or a row is not a vector of finite numbers."""


class EmptyVectorFile(MathGlossError):
    pass


class UnknownVertex(MathGlossError):
    def __init__(self, title: str):
        super().__init__(f"not a graph vertex: {title!r}")
        self.title = title


class EmptyPool(MathGlossError):
    """No sentence in the pool produced a single concept."""


class InstanceTooLarge(MathGlossError):
    """Solver gave up before proving optimality."""

    def __init__(self, nodes: int):
        super().__init__(f"search budget exhausted after {nodes} nodes")
        self.nodes = nodes
