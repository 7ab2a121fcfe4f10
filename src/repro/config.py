"""One validated run configuration: the execution model and its options.

The paper's algorithms run under five execution models — CONGEST, the
deterministic and randomized congested clique, centralized, and CONGEST
compiled onto low-space MPC — tuned by a handful of options: the CONGEST
``engine``, the MPC memory exponent ``alpha``, the round-compression
window ``compress``, the shard ``workers`` and a ``faults`` plan.
:class:`RunConfig` carries them together and is the only place they are
checked, so the CLI, the sweep cells and the compiled MPC solvers neither
re-validate nor re-thread them.

Carrying them as one object is sound because ``engine``, ``compress``,
``workers`` and ``faults`` are execution variants: component stability
([CzumajDP21]_, arXiv:2106.01880) obliges every one of them to leave the
CONGEST ledger unchanged, and the parity suites pin that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.congest.clique import CongestedCliqueNetwork
from repro.congest.engine import resolve_engine_name
from repro.congest.network import CongestNetwork
from repro.mpc.parallel import resolve_workers

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sweep.spec import Cell

#: Every execution model, in the order the CLI lists them.
MODELS = ("congest", "clique-det", "clique-rand", "centralized", "mpc")


def require_mpc(model: str, option: str, what: str) -> None:
    """Refuse an MPC-only ``option`` (doing ``what``) outside ``mpc``."""
    if model != "mpc":
        raise ValueError(f"{option} {what}; it requires --model mpc")


@dataclass(frozen=True)
class RunConfig:
    """The execution model of one run and its validated options.

    ``engine`` is canonicalized (``None`` resolves through
    ``REPRO_ENGINE``) for the CONGEST and clique models and refused for
    ``mpc`` and ``centralized``.  ``compress`` (an int window >= 1 or
    ``"auto"``), an explicit ``workers`` and ``faults`` (a spec string)
    need ``mpc``; there ``workers`` is resolved once, an unset value
    falling back to ``REPRO_MPC_WORKERS`` and then 1.
    """

    model: str = "congest"
    engine: str | None = None
    alpha: float = 0.8
    compress: int | str = 1
    workers: int | None = None
    faults: str | None = None

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(
                f"unknown model {self.model!r}; choose one of {MODELS}"
            )
        if self.model in ("centralized", "mpc"):
            if self.engine is not None:
                raise ValueError(
                    f"engine selects a CONGEST engine; the {self.model} "
                    f"model has none (engines apply to congest, "
                    f"clique-det and clique-rand)"
                )
        else:
            object.__setattr__(
                self, "engine", resolve_engine_name(self.engine)
            )
        if not 0 < self.alpha <= 2:
            raise ValueError(
                f"alpha must be a positive memory exponent in (0, 2], "
                f"got {self.alpha!r}"
            )
        compress = self.compress
        if compress != "auto" and (
            not isinstance(compress, int) or compress < 1
        ):
            raise ValueError(
                f"compress must be an integer >= 1 or 'auto', got {compress!r}"
            )
        if compress != 1:
            require_mpc(
                self.model, "compress",
                "batches CONGEST rounds per MPC shuffle",
            )
        if self.workers is not None:
            require_mpc(
                self.model, "workers",
                "shard MPC machines over worker processes",
            )
        if self.model == "mpc":
            object.__setattr__(self, "workers", resolve_workers(self.workers))
        if self.faults is not None:
            require_mpc(
                self.model, "faults",
                "inject crashes into the MPC shard pool and shuffle plane",
            )
            if not isinstance(self.faults, str):
                raise ValueError(
                    f"faults must be a spec string, got {self.faults!r}"
                )
            from repro.faults import FaultPlan

            try:
                FaultPlan.from_spec(self.faults)
            except ValueError as exc:
                raise ValueError(f"bad faults spec: {exc}") from None

    @classmethod
    def from_cell(cls, cell: Cell, model: str | None = None) -> RunConfig:
        """The configuration a sweep cell selects.

        ``model`` defaults to ``mpc`` for ``mpc-*`` tasks and ``congest``
        otherwise.  Cell params are JSON scalars: ``alpha`` arrives as a
        number (default 0.8), ``compress`` as an int or ``"auto"``, and
        ``mpc_workers``/``faults`` are absent for the default.
        """
        if model is None:
            model = "mpc" if cell.task.startswith("mpc-") else "congest"
        return cls(
            model,
            engine=cell.engine,
            alpha=float(cell.param("alpha", cls.alpha)),
            compress=cell.param("compress", 1),
            workers=cell.param("mpc_workers"),
            faults=cell.param("faults"),
        )

    def network(
        self,
        graph: Any,
        seed: int = 0,
        collector: Any = None,
        tracer: Any = None,
    ) -> CongestNetwork:
        """A fresh network of this model on ``graph``, observers attached.

        ``collector`` (a :class:`~repro.metrics.MetricsCollector`) hooks
        the round and shuffle streams; ``tracer`` (a
        :class:`~repro.trace.TraceRecorder`) records the timeline.  The
        centralized model runs no network.
        """
        if self.model == "mpc":
            from repro.mpc.compile_congest import MPCCongestNetwork

            network: CongestNetwork = MPCCongestNetwork(
                graph,
                alpha=self.alpha,
                seed=seed,
                compress=self.compress,
                workers=self.workers,
                faults=self.faults,
            )
        elif self.model == "centralized":
            raise ValueError("the centralized model runs no network")
        else:
            kind = (
                CongestNetwork
                if self.model == "congest"
                else CongestedCliqueNetwork
            )
            network = kind(graph, seed=seed, engine=self.engine)
        if collector is not None:
            collector.attach(network)
        network.tracer = tracer
        return network
