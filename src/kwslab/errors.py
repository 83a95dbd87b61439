"""Exception types shared across the package."""


class KwslabError(Exception):
    """Base class for all errors raised by kwslab."""


class ConfigError(KwslabError):
    """Invalid configuration value. Carries the dotted field name."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")


class WavFormatError(KwslabError):
    """WAV file is not RIFF PCM, 16-bit signed little-endian, mono, 16 kHz."""


class CorpusError(KwslabError):
    """Corpus directory does not match the expected layout or is too small."""


class ShapeError(KwslabError):
    """Tensor shapes are incompatible for the requested operation."""


class NanError(KwslabError):
    """An operation produced a NaN or Inf value."""


class NanLossError(KwslabError):
    """Training loss became non-finite; a diagnostic checkpoint was written."""


class NonScalarLossError(KwslabError):
    """backward() was called on a tensor that is not a scalar."""


class GraphFreedError(KwslabError):
    """backward() was called on a graph that has already been freed."""


class EmptyDataError(KwslabError):
    """An operation that needs at least one sample received none."""


class StreamMismatchError(KwslabError):
    """A prebuilt feature cache belongs to a different stream than the run's."""


class UnknownTaskError(KwslabError):
    """A task id was requested that has not been learned."""


class CheckpointError(KwslabError):
    """Checkpoint file is malformed or has an unsupported version."""


class MetricsError(KwslabError):
    """Accuracy matrix misuse: out-of-range cell, rewrite, or missing data."""
