"""Dict-backed census model: the oracle of the columnar census store.

The obvious dict transcription of the pre-columnar registry and
membership code, behind the interface of
:class:`~repro.core.census.ColumnarCensusStore`.  ``test_census_store``
runs both in lockstep, tests swap it into a Controller by monkeypatching
``repro.core.controller.ColumnarCensusStore``, and it is the per-payload
baseline of ``benchmarks/test_census_throughput.py``.  Instance handles
are the instance ids; iteration follows insertion order, so only the
sorted :meth:`snapshot` is comparable across engines.
"""

from repro.core.census import STATE_BUSY, STATE_IDLE, NodeInterner
from repro.core.messages import PNAState

_STATE = {STATE_IDLE: PNAState.IDLE, STATE_BUSY: PNAState.BUSY}


class DictCensusOracle:
    def __init__(self, interner=None):
        self.interner = interner if interner is not None else NodeInterner()
        self._registry = {}   # idx -> (seen, PNAState, instance id)
        self._members = {}    # instance id -> {idx: last heartbeat}
        self._member_of = {}  # reverse index: idx -> instances it is in

    # -- registry --------------------------------------------------------
    def touch(self, idx, state, instance_id, now):
        self._registry[idx] = (now, state, instance_id)

    def touch_group(self, idxs, code, instance_id, now):
        for idx in idxs:
            self._registry[int(idx)] = (now, _STATE[code], instance_id)

    def registry_set(self, node_id, seen, state, instance_id):
        self.touch(self.interner.intern(node_id), state, instance_id, seen)

    def registry_size(self):
        return len(self._registry)

    def idle_estimate(self, horizon):
        return sum(1 for seen, state, _i in self._registry.values()
                   if state is PNAState.IDLE and seen >= horizon)

    def alive_estimate(self, horizon):
        return sum(1 for seen, _s, _i in self._registry.values()
                   if seen >= horizon)

    def registry_get(self, node_id):
        return self._registry.get(self.interner.index_of(node_id))

    def registry_items(self):
        for idx, row in self._registry.items():
            yield self.interner.id_of(idx), row

    def clear_registry(self):
        self._registry.clear()

    # -- membership ------------------------------------------------------
    def bind_instance(self, instance_id):
        self._members.setdefault(instance_id, {})
        return instance_id

    def release_instance(self, instance_id):
        self.clear_members(instance_id)
        self._members.pop(instance_id, None)

    def mark_member(self, handle, idx, now):
        members = self._members[handle]
        if idx not in members:
            self._member_of[idx] = self._member_of.get(idx, 0) + 1
        members[idx] = now

    def mark_members(self, handle, idxs, now):
        for idx in idxs:
            self.mark_member(handle, int(idx), now)

    def drop_member(self, handle, idx):
        members = self._members.get(handle)
        if members is None or members.pop(idx, None) is None:
            return False
        left = self._member_of.pop(idx) - 1
        if left:
            self._member_of[idx] = left
        return True

    def drop_from_all(self, idx):
        if self._member_of.pop(idx, 0):
            for members in self._members.values():
                members.pop(idx, None)

    def drop_many_from_all(self, idxs):
        for idx in idxs:
            self.drop_from_all(int(idx))

    def expire_members(self, handle, cutoff):
        stale = [idx for idx, seen in self._members.get(handle, {}).items()
                 if seen < cutoff]
        for idx in stale:
            self.drop_member(handle, idx)
        return len(stale)

    def member_count(self, handle):
        return len(self._members.get(handle, ()))

    def member_seen(self, handle, idx):
        return self._members.get(handle, {}).get(idx)

    def members_items(self, handle):
        for idx, seen in self._members.get(handle, {}).items():
            yield self.interner.id_of(idx), seen

    def clear_members(self, handle):
        for idx in list(self._members.get(handle, ())):
            self.drop_member(handle, idx)

    def total_members(self):
        return sum(len(m) for m in self._members.values())

    def clear(self):
        self._registry.clear()
        for members in self._members.values():
            members.clear()
        self._member_of.clear()

    def snapshot(self):
        return {"registry": dict(sorted(self.registry_items())),
                "members": {iid: sorted(self.members_items(iid))
                            for iid in sorted(self._members)}}
