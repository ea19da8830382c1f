"""The aligner registry.

Alignment methods are registered, not hard-coded: an aligner is a callable
``(ProcedureTask) -> ProcedureResult`` registered under a canonical name
(plus optional aliases).  ``ALIGN_METHODS`` in :mod:`repro.core.align` is a
live view over this registry, and the CLI, the experiment runner, and the
cache-key normalizers all resolve method names through it — adding an
aligner is one :func:`register_aligner` call, with no parallel edits in
``align.py`` / ``cli.py`` / ``runner.py``.

The seven built-in methods (original / greedy / cost-greedy /
cg-exhaustive / tsp / exttsp / chain-merge) register themselves when
:mod:`repro.core.align` is imported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

from repro.errors import UnknownNameError

if TYPE_CHECKING:  # pragma: no cover — import cycle is fine at type time
    from repro.pipeline.task import ProcedureResult, ProcedureTask

AlignerFn = Callable[["ProcedureTask"], "ProcedureResult"]


@dataclass(frozen=True)
class AlignerSpec:
    """One registered alignment method."""

    name: str
    fn: AlignerFn
    aliases: tuple[str, ...] = ()
    description: str = ""


_REGISTRY: dict[str, AlignerSpec] = {}
_ALIASES: dict[str, str] = {}


def _ensure_builtins() -> None:
    """The built-in aligners register when :mod:`repro.core.align` imports;
    pull it in lazily so registry lookups work regardless of import order."""
    if not _REGISTRY:
        import repro.core.align  # noqa: F401 — import side effect


def register_aligner(
    name: str,
    fn: AlignerFn | None = None,
    *,
    aliases: tuple[str, ...] = (),
    description: str = "",
    replace: bool = False,
):
    """Register an alignment method (usable directly or as a decorator).

    ``name`` becomes the canonical method name everywhere: ``align_program``
    dispatch, CLI ``--method`` choices, experiment sweeps, cache keys.
    ``aliases`` are accepted wherever a method name is, and normalize to
    ``name`` before any cache boundary.
    """
    if fn is None:
        def decorator(decorated: AlignerFn) -> AlignerFn:
            register_aligner(
                name,
                decorated,
                aliases=aliases,
                description=description,
                replace=replace,
            )
            return decorated
        return decorator

    canonical = name.strip().lower()
    if not replace:
        for candidate in (canonical, *aliases):
            if candidate in _REGISTRY or candidate in _ALIASES:
                raise ValueError(
                    f"alignment method {candidate!r} is already registered "
                    f"(pass replace=True to override)"
                )
    spec = AlignerSpec(
        name=canonical,
        fn=fn,
        aliases=tuple(a.strip().lower() for a in aliases),
        description=description,
    )
    # Replacing must be symmetric with unregistering: purge the replaced
    # spec's aliases first, or a stale alias keeps resolving to a canonical
    # name whose spec was swapped in with a *different* alias set.
    replaced = _REGISTRY.get(canonical)
    if replaced is not None:
        for alias in replaced.aliases:
            _ALIASES.pop(alias, None)
    _REGISTRY[canonical] = spec
    for alias in spec.aliases:
        _ALIASES[alias] = canonical
    return fn


def unregister_aligner(name: str) -> None:
    """Remove a registered method (tests and plug-in teardown)."""
    spec = _REGISTRY.pop(name.strip().lower(), None)
    if spec is not None:
        for alias in spec.aliases:
            _ALIASES.pop(alias, None)


def aligner_names() -> tuple[str, ...]:
    """Canonical method names, in registration order."""
    _ensure_builtins()
    return tuple(_REGISTRY)


def normalize_method(name: str) -> str:
    """Resolve a method name or alias to its canonical form.

    Raises :class:`~repro.errors.UnknownNameError` (a ``ValueError``) for
    unknown names, listing the registered methods.
    """
    _ensure_builtins()
    candidate = name.strip().lower() if isinstance(name, str) else name
    if candidate in _REGISTRY:
        return candidate
    if candidate in _ALIASES:
        return _ALIASES[candidate]
    raise UnknownNameError(
        f"unknown method {name!r}; choose from {aligner_names()}"
    )


def get_aligner(name: str) -> AlignerSpec:
    """Look up the :class:`AlignerSpec` for a method name or alias."""
    return _REGISTRY[normalize_method(name)]


class MethodsView:
    """A live, tuple-like view of the registered method names.

    ``repro.core.align.ALIGN_METHODS`` is one of these: iteration, ``in``,
    indexing, and equality all reflect the registry *now*, so an aligner
    registered after import is immediately visible to the CLI and sweeps.
    """

    def __iter__(self) -> Iterator[str]:
        return iter(aligner_names())

    def __contains__(self, name: object) -> bool:
        try:
            normalize_method(name)  # type: ignore[arg-type]
        except (UnknownNameError, AttributeError):
            return False
        return True

    def __len__(self) -> int:
        return len(_REGISTRY)

    def __getitem__(self, index):
        return aligner_names()[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MethodsView):
            return True
        if isinstance(other, (tuple, list)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self):  # pragma: no cover — views are not dict keys
        return hash(aligner_names())

    def __repr__(self) -> str:
        return repr(aligner_names())
