"""Protocol configuration: Section III-C's constants as a dataclass."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError

__all__ = ["ProtocolConfig"]


@dataclass(frozen=True)
class ProtocolConfig:
    """The execution protocol parameters.

    Defaults are the paper's: 100 repetitions, blocks of 10, random
    block order, waits uniformly drawn from 1-30 minutes.
    """

    repetitions: int = 100
    block_size: int = 10
    shuffle_blocks: bool = True
    min_wait_s: float = 60.0
    max_wait_s: float = 1800.0

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.block_size < 1:
            raise ConfigError("block size must be >= 1")
        if not 0 <= self.min_wait_s <= self.max_wait_s:
            raise ConfigError("need 0 <= min_wait_s <= max_wait_s")

    @classmethod
    def for_repetitions(cls, repetitions: int) -> "ProtocolConfig":
        """The protocol a campaign of ``repetitions`` runs under.

        Blocks of up to 10 repetitions, in random order; the paper's
        1-30 minute waits only from 20 repetitions on (shorter campaigns
        are smoke runs, not measurement campaigns).
        """
        waits = repetitions >= 20
        return cls(
            repetitions=repetitions,
            block_size=min(10, max(1, repetitions)),
            min_wait_s=60.0 if waits else 0.0,
            max_wait_s=1800.0 if waits else 0.0,
        )
