"""The Open OODB facade: transaction bracketing plus object management.

:class:`OpenOODB` is what an application (and the Sentinel layer) talks
to. It owns the storage manager and the object-management modules and
exposes transaction bracketing with the four *system events* Sentinel
hooks: ``begin``, ``pre_commit``, ``commit``, ``abort``. In the paper
these are methods of the REACTIVE system class ("we specify an event
interface to make the methods beginTransaction and commitTransaction of
the system class generate events"); here they are hook lists the event
detector subscribes to.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar, Token
from typing import Callable, Iterator, Optional

from repro.errors import InvalidTransactionState
from repro.oodb.address_space import AddressSpaceManager
from repro.oodb.name_manager import NameManager
from repro.oodb.object_model import OID, ClassRegistry, Persistent
from repro.oodb.persistence import IndexJournal, PersistenceManager
from repro.storage.manager import StorageManager, StorageTransaction, TxnStatus
from repro.telemetry.hub import TelemetryHub

TxnHook = Callable[["OODBTransaction"], None]


class OODBTransaction:
    """A top-level transaction over the OODB.

    Wraps the storage transaction and tracks the dirty objects to be
    written back at commit plus the index journal used on abort.
    """

    def __init__(self, db: "OpenOODB", storage_txn: StorageTransaction):
        self._db = db
        self.storage_txn = storage_txn
        self.journal = IndexJournal()
        self._dirty: dict[OID, Persistent] = {}
        self._token: Optional[Token] = None  # OpenOODB.begin's binding

    @property
    def txn_id(self) -> int:
        return self.storage_txn.txn_id

    @property
    def is_active(self) -> bool:
        return self.storage_txn.status is TxnStatus.ACTIVE

    # -- object operations (delegate to the owning database) -----------------

    def persist(self, obj: Persistent, name: Optional[str] = None) -> OID:
        return self._db.persist(self, obj, name)

    def fetch(self, oid: OID) -> Persistent:
        return self._db.fetch(self, oid)

    def lookup(self, name: str) -> Persistent:
        return self._db.lookup(self, name)

    def save(self, obj: Persistent) -> None:
        return self._db.save(self, obj)

    def mark_dirty(self, obj: Persistent) -> None:
        """Queue ``obj`` for write-back at commit."""
        if obj.oid is not None:
            self._dirty[obj.oid] = obj
            self.journal.touched_oids.add(obj.oid)

    def remove(self, obj: Persistent) -> None:
        return self._db.remove(self, obj)

    def extent(self, cls: type | str) -> list[Persistent]:
        """All persistent instances of a class (for query conditions)."""
        return self._db.extent(self, cls)

    def bind(self, name: str, obj: Persistent) -> None:
        return self._db.bind(self, name, obj)

    def unbind(self, name: str) -> None:
        return self._db.unbind(self, name)

    def commit(self) -> None:
        self._db.commit(self)

    def abort(self) -> None:
        self._db.abort(self)


class OpenOODB:
    """Passive object database: the substrate Sentinel makes active."""

    def __init__(self, directory: str | os.PathLike, pool_size: int = 128,
                 lock_timeout: float = 10.0,
                 telemetry: Optional[TelemetryHub] = None):
        self.storage = StorageManager(
            directory, pool_size=pool_size, lock_timeout=lock_timeout,
            telemetry=telemetry,
        )
        self.registry = ClassRegistry()
        self.address_space = AddressSpaceManager()
        self.names = NameManager()
        self.persistence = PersistenceManager(
            self.storage, self.registry, self.address_space, self.names
        )
        # System-event hooks (Sentinel's transaction events).
        self.on_begin: list[TxnHook] = []
        self.on_pre_commit: list[TxnHook] = []
        self.on_commit: list[TxnHook] = []
        self.on_abort: list[TxnHook] = []
        #: the transaction ``begin`` bound in this context
        self._txn: ContextVar[Optional[OODBTransaction]] = ContextVar(
            "oodb.txn", default=None
        )
        #: set by an owner that binds transactions itself (a Sentinel):
        #: ``current()`` asks it, and ``begin`` binds nothing
        self.binding: Optional[Callable[[], Optional[OODBTransaction]]] = None
        self._closed = False

    # -- transactions ------------------------------------------------------------

    def begin(self) -> OODBTransaction:
        if self.current() is not None:
            raise InvalidTransactionState(
                "a top-level transaction is already active on this thread; "
                "use nested transactions for rule execution"
            )
        txn = OODBTransaction(self, self.storage.begin())
        if self.binding is None:
            txn._token = self._txn.set(txn)
        for hook in list(self.on_begin):
            hook(txn)
        return txn

    def current(self) -> Optional[OODBTransaction]:
        """The active transaction this context runs under, if any."""
        if self.binding is not None:
            return self.binding()
        txn = self._txn.get()
        return txn if txn is not None and txn.is_active else None

    def commit(self, txn: OODBTransaction) -> None:
        txn.storage_txn.require_active()
        # Write back dirty objects before the pre-commit point so that
        # deferred rules (which run at pre-commit) see current state.
        self._flush_dirty(txn)
        for hook in list(self.on_pre_commit):
            hook(txn)
        # Rules run at pre-commit may have dirtied more objects.
        self._flush_dirty(txn)
        self.storage.commit(txn.storage_txn)
        self._unbind(txn)
        for hook in list(self.on_commit):
            hook(txn)

    def abort(self, txn: OODBTransaction) -> None:
        txn.storage_txn.require_active()
        self.storage.abort(txn.storage_txn)
        self.persistence.rollback_indexes(txn.journal)
        txn._dirty.clear()
        self._unbind(txn)
        for hook in list(self.on_abort):
            hook(txn)

    def _flush_dirty(self, txn: OODBTransaction) -> None:
        while txn._dirty:
            __, obj = txn._dirty.popitem()
            self.persistence.save(txn.storage_txn, txn.journal, obj)

    def _unbind(self, txn: OODBTransaction) -> None:
        if txn._token is not None:
            try:
                self._txn.reset(txn._token)
            except ValueError:
                pass  # begun in another context; current() reads it as none

    @contextmanager
    def transaction(self) -> Iterator[OODBTransaction]:
        """``with db.transaction() as txn:`` — commit on success, abort on error."""
        txn = self.begin()
        try:
            yield txn
        except BaseException:
            if txn.is_active:
                self.abort(txn)
            raise
        else:
            if txn.is_active:
                self.commit(txn)

    # -- object operations -----------------------------------------------------------

    def persist(
        self, txn: OODBTransaction, obj: Persistent, name: Optional[str] = None
    ) -> OID:
        return self.persistence.persist(txn.storage_txn, txn.journal, obj, name)

    def fetch(self, txn: OODBTransaction, oid: OID) -> Persistent:
        obj = self.persistence.fetch(txn.storage_txn, oid)
        # Record the access: if this transaction aborts, the resident
        # copy may have been mutated in memory and must be re-faulted.
        txn.journal.touched_oids.add(oid)
        return obj

    def lookup(self, txn: OODBTransaction, name: str) -> Persistent:
        obj = self.persistence.lookup(txn.storage_txn, name)
        if obj.oid is not None:
            txn.journal.touched_oids.add(obj.oid)
        return obj

    def save(self, txn: OODBTransaction, obj: Persistent) -> None:
        self.persistence.save(txn.storage_txn, txn.journal, obj)

    def remove(self, txn: OODBTransaction, obj: Persistent) -> None:
        self.persistence.remove(txn.storage_txn, txn.journal, obj)

    def extent(self, txn: OODBTransaction, cls: type | str) -> list[Persistent]:
        class_name = cls if isinstance(cls, str) else cls.__name__
        objects = list(self.persistence.extent(txn.storage_txn, class_name))
        for obj in objects:
            if obj.oid is not None:
                txn.journal.touched_oids.add(obj.oid)
        return objects

    def bind(self, txn: OODBTransaction, name: str, obj: Persistent) -> None:
        if obj.oid is None:
            self.persist(txn, obj, name)
        else:
            self.persistence.bind(txn.storage_txn, txn.journal, name, obj.oid)

    def unbind(self, txn: OODBTransaction, name: str) -> None:
        self.persistence.unbind(txn.storage_txn, txn.journal, name)

    # -- lifecycle ----------------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        current = self.current()
        if current is not None and current.is_active:
            self.abort(current)
        self.storage.close()
        self.address_space.clear()
        self._closed = True

    def __enter__(self) -> "OpenOODB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
