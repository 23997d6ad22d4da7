"""The pre-store primitive (Section 2 of the paper).

A *pre-store* is the converse of a pre-fetch: an asynchronous,
non-blocking request that the CPU move data *down* the memory hierarchy.
The paper exposes a single function::

    prestore(void *location, size_t size, op_t op)

with two operations:

``demote``
    Move the data down the cache hierarchy (from private CPU buffers or
    the L1 towards a globally visible cache level).  Implemented on x86 by
    ``cldemote`` and on ARM by ``dc cvau``-style instructions.

``clean``
    Write dirty data back from the cache to memory *without* invalidating
    the cached copy.  Implemented on x86 by ``clwb``.

A third strategy, *skipping* the cache with non-temporal stores, is not an
``op`` of the ``prestore`` call: as the paper notes it requires rewriting
the stores themselves.  In this library skipping is represented by
:class:`PrestoreMode` (the per-patch-site configuration knob) and by
non-temporal write events in the simulator.

This module defines the operation vocabulary shared by the simulator, the
workloads, and DirtBuster, plus :class:`PatchSite`/:class:`PatchConfig`:
the software analogue of the paper's "add one pre-store line at this
location" patches, which lets every workload be run unmodified, cleaned,
demoted, or skipped from configuration alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.errors import ConfigurationError

__all__ = [
    "PrestoreOp",
    "PrestoreMode",
    "PatchSite",
    "PatchConfig",
    "CYCLES_PER_PRESTORE",
]

#: Cost of issuing one pre-store, in CPU cycles.  Section 5: "cleaning a
#: cache line simply enqueues a cache line in the write combining buffers
#: of the CPU, which takes on average 1 cycle on our machines".
CYCLES_PER_PRESTORE = 1


class PrestoreOp(enum.Enum):
    """Operation argument of ``prestore()`` (paper Section 2)."""

    #: Move data down the cache hierarchy; data stays cached and dirty.
    DEMOTE = "demote"
    #: Write dirty data back to memory; data stays cached, now clean.
    CLEAN = "clean"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class PrestoreMode(enum.Enum):
    """How a patch site is compiled: the four variants the paper evaluates.

    ``NONE`` is the unmodified baseline.  ``CLEAN`` and ``DEMOTE`` insert a
    one-line ``prestore`` call.  ``SKIP`` rewrites the stores at the site
    as non-temporal stores that bypass the cache entirely.
    """

    NONE = "none"
    CLEAN = "clean"
    DEMOTE = "demote"
    SKIP = "skip"

    @property
    def op(self) -> Optional[PrestoreOp]:
        """The ``prestore`` op this mode issues, if any.

        ``NONE`` and ``SKIP`` issue no ``prestore`` call (skipping changes
        the stores themselves), so they map to ``None``.
        """
        if self is PrestoreMode.CLEAN:
            return PrestoreOp.CLEAN
        if self is PrestoreMode.DEMOTE:
            return PrestoreOp.DEMOTE
        return None

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class PatchSite:
    """A named program location where a pre-store can be inserted.

    Mirrors the way the paper patches applications: DirtBuster reports a
    function and line, and the developer toggles a pre-store there.  Each
    workload declares its patchable sites so experiments can enumerate
    them.
    """

    #: Stable identifier, e.g. ``"clht.craft_value"``.
    name: str
    #: Function containing the site, e.g. ``"psinv"``.
    function: str
    #: Source file of the site (as reported in DirtBuster output).
    file: str = "<unknown>"
    #: Source line of the site.
    line: int = 0
    #: Free-form description of what is pre-stored at this site.
    description: str = ""

    def __str__(self) -> str:
        return f"{self.name} ({self.file}:{self.line} in {self.function})"


class PatchConfig:
    """Maps patch sites to :class:`PrestoreMode`.

    A workload consults its :class:`PatchConfig` at each declared
    :class:`PatchSite`; experiments construct one config per evaluated
    variant (baseline / clean / demote / skip).

    >>> cfg = PatchConfig({"clht.craft_value": PrestoreMode.CLEAN})
    >>> cfg.mode("clht.craft_value")
    <PrestoreMode.CLEAN: 'clean'>
    >>> cfg.mode("unpatched.site")
    <PrestoreMode.NONE: 'none'>
    """

    def __init__(
        self,
        modes: Optional[Dict[str, PrestoreMode]] = None,
        default: PrestoreMode = PrestoreMode.NONE,
    ) -> None:
        if not isinstance(default, PrestoreMode):
            raise ConfigurationError(f"default must be a PrestoreMode, got {default!r}")
        self._default = default
        self._modes: Dict[str, PrestoreMode] = {}
        for name, mode in (modes or {}).items():
            self.set_mode(name, mode)

    @classmethod
    def baseline(cls) -> "PatchConfig":
        """The unmodified application: every site compiled as ``NONE``."""
        return cls()

    @classmethod
    def uniform(cls, mode: PrestoreMode, sites: Iterable[PatchSite]) -> "PatchConfig":
        """Apply ``mode`` at each of ``sites`` (a workload's ``patch_sites()``).

        Every site is set explicitly, so :meth:`enabled_sites` — and with
        it a run's patch summary and a cell's cache key — names them all.
        """
        return cls({site.name: mode for site in sites})

    def set_mode(self, site: str, mode: PrestoreMode) -> None:
        """Set the mode for one site (by :attr:`PatchSite.name`)."""
        if not isinstance(mode, PrestoreMode):
            raise ConfigurationError(f"{site}: mode must be a PrestoreMode, got {mode!r}")
        self._modes[site] = mode

    def mode(self, site: str) -> PrestoreMode:
        """The mode configured for ``site`` (default if unset)."""
        return self._modes.get(site, self._default)

    def enabled_sites(self) -> Dict[str, PrestoreMode]:
        """All explicitly configured sites that are not ``NONE``."""
        return {s: m for s, m in self._modes.items() if m is not PrestoreMode.NONE}

    def describe(self, sites: Iterable[PatchSite] = ()) -> str:
        """Human-readable summary, optionally resolving known sites."""
        known = {s.name: s for s in sites}
        lines = [f"default: {self._default}"]
        for name, mode in sorted(self._modes.items()):
            where = f" @ {known[name]}" if name in known else ""
            lines.append(f"{name}: {mode}{where}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PatchConfig(default={self._default}, modes={self._modes!r})"
