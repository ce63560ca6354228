"""Exception types shared across the toolkit."""


class ObstructError(Exception):
    """Base class for all toolkit errors."""


class InputError(ObstructError):
    """Bad user input: unparseable flags, malformed files, broken schemas."""


class HorizonError(ObstructError):
    """A query on a truncated system needs symbols beyond the stored horizon."""

    def __init__(self, message, certified=None):
        self.certified = certified
        super().__init__(message)


class EnumerationCapError(ObstructError):
    """Explicit word enumeration was requested above the configured cap."""


class EmptyCollectionError(ObstructError):
    """An entropy estimate was requested for a collection with no members."""


class DepthError(ObstructError):
    """A measure table is too shallow for the requested cylinder masses."""


class NonMixingError(ObstructError):
    """The presentation is not primitive; no stationary construction is attempted."""


class SpecificationError(ObstructError):
    """A required gluing-time certificate could not be established."""
