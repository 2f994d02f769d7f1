"""``JobConf`` — typed key/value job configuration.

Mirrors Hadoop's ``JobConf`` so that the paper's API (§3.5) can be
written verbatim::

    conf = JobConf()
    conf.set("mapred.iterjob.statepath", "/data/pagerank/state")
    conf.set("mapred.iterjob.staticpath", "/data/pagerank/static")
    conf.set_int("mapred.iterjob.maxiter", 20)
    conf.set_float("mapred.iterjob.disthresh", 0.01)
    conf.set("mapred.iterjob.mapping", "one2all")
    conf.set_boolean("mapred.iterjob.sync", True)

The iterative engine reads these exact keys (see
:mod:`repro.imapreduce.job`).  Unknown keys are allowed — Hadoop's conf is
an open namespace — but typed getters validate on read.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterator, Mapping

from .errors import ConfigError

__all__ = ["JobConf", "IterKeys", "iter_conf", "stable_seed"]


class IterKeys:
    """The ``mapred.iterjob.*`` parameter names from §3.5 of the paper."""

    STATE_PATH = "mapred.iterjob.statepath"
    STATIC_PATH = "mapred.iterjob.staticpath"
    MAX_ITER = "mapred.iterjob.maxiter"
    DIST_THRESH = "mapred.iterjob.disthresh"
    MAPPING = "mapred.iterjob.mapping"  # "one2one" (default) | "one2all"
    SYNC = "mapred.iterjob.sync"  # force synchronous map execution
    CHECKPOINT_INTERVAL = "mapred.iterjob.checkpointinterval"
    #: Real-backend durable checkpoint cadence for :func:`run_parallel`
    #: (iterations between spool dumps; unset/0 = no checkpointing).
    #: Kept separate from CHECKPOINT_INTERVAL, which prices the
    #: *simulated* runtime's DFS dumps.
    PARALLEL_CHECKPOINT = "mapred.iterjob.parallelcheckpoint"
    BUFFER_RECORDS = "mapred.iterjob.bufferrecords"
    #: Master seed for every stochastic choice a run makes (service-time
    #: noise, seeded sub-generators).  ``0`` (the default) keeps the
    #: historical fixed constants, so existing experiments are unchanged;
    #: any other value makes the whole run a pure function of the seed —
    #: the replay contract the chaos harness depends on.
    SEED = "mapred.iterjob.seed"
    #: Fraction of an accumulative pair's *active* pending keys drained
    #: per async round (by descending priority).  1.0 degenerates to sync.
    TOP_FRACTION = "mapred.accum.topfrac"


_MISSING = object()


def stable_seed(*parts: Any) -> int:
    """A deterministic 63-bit seed derived from arbitrary parts.

    Unlike ``hash()``, the result is stable across processes and Python
    versions (no ``PYTHONHASHSEED`` dependence), which is what makes a
    failing chaos campaign replayable from a one-line seed.
    """
    digest = hashlib.blake2b(repr(parts).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


class JobConf:
    """An open string-keyed configuration with typed accessors."""

    def __init__(self, initial: Mapping[str, Any] | None = None):
        self._values: dict[str, Any] = dict(initial or {})

    # -- setters ---------------------------------------------------------
    def set(self, key: str, value: Any) -> "JobConf":
        self._check_key(key)
        self._values[key] = value
        return self

    def set_int(self, key: str, value: int) -> "JobConf":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{key}: expected int, got {type(value).__name__}")
        return self.set(key, value)

    def set_float(self, key: str, value: float) -> "JobConf":
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{key}: expected float, got {type(value).__name__}")
        return self.set(key, float(value))

    def set_boolean(self, key: str, value: bool) -> "JobConf":
        if not isinstance(value, bool):
            raise ConfigError(f"{key}: expected bool, got {type(value).__name__}")
        return self.set(key, value)

    # -- getters ---------------------------------------------------------
    def get(self, key: str, default: Any = None) -> Any:
        return self._values.get(key, default)

    def get_required(self, key: str) -> Any:
        value = self._values.get(key, _MISSING)
        if value is _MISSING:
            raise ConfigError(f"required job parameter {key!r} is not set")
        return value

    def get_int(self, key: str, default: int | None = None) -> int | None:
        value = self._values.get(key, _MISSING)
        if value is _MISSING:
            return default
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{key}: expected int, got {value!r}")
        return value

    def get_float(self, key: str, default: float | None = None) -> float | None:
        value = self._values.get(key, _MISSING)
        if value is _MISSING:
            return default
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{key}: expected float, got {value!r}")
        return float(value)

    def get_boolean(self, key: str, default: bool = False) -> bool:
        value = self._values.get(key, _MISSING)
        if value is _MISSING:
            return default
        if not isinstance(value, bool):
            raise ConfigError(f"{key}: expected bool, got {value!r}")
        return value

    # -- seed plumbing -----------------------------------------------------
    def get_seed(self, default: int = 0) -> int:
        """The run's master seed (:data:`IterKeys.SEED`)."""
        return self.get_int(IterKeys.SEED, default) or default

    def derive_seed(self, *salt: Any) -> int:
        """A stable sub-seed for one named component of the run.

        Different components salt with different names so they draw
        independent streams from the one master seed.
        """
        return stable_seed(self.get_seed(), *salt)

    def rng(self, *salt: Any):
        """A seeded ``numpy`` generator for the salted component."""
        import numpy as np

        return np.random.default_rng(self.derive_seed(*salt))

    # -- mapping protocol -------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return key in self._values

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def items(self):
        return self._values.items()

    def copy(self) -> "JobConf":
        return JobConf(self._values)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        body = ", ".join(f"{k}={v!r}" for k, v in sorted(self._values.items()))
        return f"JobConf({body})"

    @staticmethod
    def _check_key(key: str) -> None:
        if not isinstance(key, str) or not key:
            raise ConfigError(f"configuration key must be a non-empty str, got {key!r}")


#: :func:`iter_conf` keyword -> (parameter, typed setter).
_ITER_SETTINGS = {
    "state_path": (IterKeys.STATE_PATH, JobConf.set),
    "static_path": (IterKeys.STATIC_PATH, JobConf.set),
    "mapping": (IterKeys.MAPPING, JobConf.set),
    "sync": (IterKeys.SYNC, JobConf.set_boolean),
    "max_iterations": (IterKeys.MAX_ITER, JobConf.set_int),
    "threshold": (IterKeys.DIST_THRESH, JobConf.set_float),
    "checkpoint_interval": (IterKeys.CHECKPOINT_INTERVAL, JobConf.set_int),
    "buffer_records": (IterKeys.BUFFER_RECORDS, JobConf.set_int),
    "top_fraction": (IterKeys.TOP_FRACTION, JobConf.set_float),
}


def iter_conf(**settings: Any) -> JobConf:
    """A job's ``JobConf`` from builder keywords, in keyword order: each
    sets its ``mapred.*`` parameter through the typed setter, and a
    ``None`` or ``False`` setting leaves the parameter unset."""
    conf = JobConf()
    for name, value in settings.items():
        if value is not None and value is not False:
            key, setter = _ITER_SETTINGS[name]
            setter(conf, key, value)
    return conf
