"""Source-specialized matchers — the monitor's production evaluator.

For every (property, event class) pair in the dispatch plans
(:func:`repro.core.compile.dispatch_plan`) this module emits
straight-line Python source — field reads hoisted into locals, constants
folded into the compare expressions, instance-store probes inlined
against the store's own dictionaries — on the monitor's first
evaluation, and ``exec``'s each function of it once, when an event of
its class first needs it.  No plan tuples are walked and no per-guard
call is made at run time.

One generated function exists per watched concrete event class:
``_eval__<Cls>(_ev)`` first unpacks its class's field loader
(:func:`repro.core.refs.field_loader`, bound as ``_ld_<Cls>``) into its
``_f_*`` locals.  The loader reads exactly the fields the class's
sections read plus every predicate's declared ``fields_used``, to the
monitor's ``max_layer``, and builds no map.  Only a class whose watchers
hold a :class:`~repro.core.refs.Predicate` builds ``_fields``, once per
event: the map of the predicates' declared fields that are present,
which is all a predicate sees.  One function call per event, zero per guard.
``Monitor.observe`` is its only caller; ``observe_batch`` is a loop over
``observe``.

What the function does with the ops it plans depends on the monitor's
mode, fixed when the program is built (the op sink,
:meth:`_ClassEmitter._emit_state_op`):

* SPLIT: it plans every op of the event and returns them all; the
  monitor defers each across the agenda and the control channel.
* INLINE: kills and advances are planned; at a property's refresh/create
  point the function applies the ops planned so far (``_flush``, through
  ``Monitor._apply``, in order), then counts the refresh or create and
  applies it itself through ``Monitor._refresh`` / ``Monitor._create``.
  It returns the ops planned after the last such point.

Applying property p's ops before property q is planned is the reference
order, not an approximation of it.  A property's section reads only its
own store, the loaded fields and the key filter, which is a pure ownership
predicate; applying p's ops writes only p's store, the counters, the
agenda and the violation list, none of which q's section reads.  So the
state, the counters, the agenda sequence numbers (hence same-instant
timer order) and the violation order are the same as planning the whole
event first.  One visible difference: a violation sink runs before the
later properties of the same event are planned.  Properties whose
stage-0 condition, env and key read the same (a create group) build the
env and the key once per event and share them.

Equivalence is the design invariant, not an aspiration: the generated
code follows the reference walk (:mod:`repro.core.reference`) phase for
phase — cancels in stage order with unless before discharge, then
advances, then create; the same candidate iteration order, the same
``candidates_examined`` increments (batched into one counter add per
event), the same doomed-set and key-filter semantics — and the
differential lattice (``tests/property/test_lattice.py``) holds the two
to identical applied ops, violations, counters, and ledgers under every
execution configuration.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..switch.events import PacketArrival, PacketDrop, PacketEgress
from .compile import (
    bindable_source,
    dispatch_plan,
    guard_source,
    refinement_sources,
)
from .instances import (
    InstanceStore,
    merge_by_stage_entry,
    stage_index_plan,
    uid_var,
)
from .refs import MISSING, EventPattern, MismatchAny, Predicate, field_loader
from .spec import PropertySpec

#: event classes whose field map always carries a packet ``uid``.
_UID_CLASSES = (PacketArrival, PacketEgress, PacketDrop)

_INF = float("inf")
_NINF = float("-inf")


# ---------------------------------------------------------------------------
# Safe-compare helpers bound into the exec globals (CMP_HELPERS names)
# ---------------------------------------------------------------------------
def _lt(a, b):
    try:
        return bool(a < b)
    except TypeError:  # unorderable pair never satisfies
        return False


def _le(a, b):
    try:
        return bool(a <= b)
    except TypeError:
        return False


def _gt(a, b):
    try:
        return bool(a > b)
    except TypeError:
        return False


def _ge(a, b):
    try:
        return bool(a >= b)
    except TypeError:
        return False


# ---------------------------------------------------------------------------
# Program-level data
# ---------------------------------------------------------------------------
class _LazyFns(dict):
    """Event class -> its generated function, compiled on first use.

    The program text is emitted whole, but a trace rarely carries every
    watched class and ``compile()`` is most of a build: each ``def`` is
    compiled and exec'd when its class is first looked up (``fns[cls]``).
    A class no property watches maps to None.
    """

    def __init__(self, define: Callable[[type], Optional[Callable]]) -> None:
        super().__init__()
        self._define = define

    def __missing__(self, cls: type):
        fn = self[cls] = self._define(cls)
        return fn


@dataclass
class CodegenProgram:
    """The generated program: its source, and the functions exec'd from
    it as each event class first needs them (:class:`_LazyFns`)."""

    source: str
    eval_fns: Dict[type, Optional[Callable]]
    exec_globals: Dict[str, object] = field(repr=False, default_factory=dict)


# ---------------------------------------------------------------------------
# Emission plumbing
# ---------------------------------------------------------------------------
class _Writer:
    __slots__ = ("lines", "_ind")

    def __init__(self) -> None:
        self.lines: List[str] = []
        self._ind = 0

    def w(self, line: str = "") -> None:
        self.lines.append("    " * self._ind + line if line else "")

    def ind(self) -> None:
        self._ind += 1

    def ded(self) -> None:
        self._ind -= 1


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


class _FieldMap:
    """Field name -> stable local name, in first-use order."""

    def __init__(self) -> None:
        self.order: List[str] = []
        self._names: Dict[str, str] = {}
        self._used: set = set()

    def __call__(self, fieldname: str) -> str:
        name = self._names.get(fieldname)
        if name is None:
            base = "_f_" + _sanitize(fieldname)
            while base in self._used:
                base += "_"
            self._used.add(base)
            self._names[fieldname] = name = base
            self.order.append(fieldname)
        return name


class _ConstPool:
    """Non-literal constants and predicate functions, bound as globals.

    Literals (None/bool/int/str/bytes and finite floats) fold into the
    source via ``repr``; everything else — enum members, addresses,
    predicate callables — binds to a deterministically numbered global
    (``_k<n>`` / ``_pd<n>``), keeping the emitted text stable across
    interpreter versions for the golden tests.
    """

    def __init__(self) -> None:
        self.globals: Dict[str, object] = {}
        self._ids: Dict[int, str] = {}
        self._nk = 0
        self._npd = 0

    def __call__(self, value: object) -> str:
        if value is None or value is True or value is False:
            return repr(value)
        t = type(value)
        if t in (int, str, bytes):
            return repr(value)
        if t is float and value == value and value not in (_INF, _NINF):
            return repr(value)
        name = self._ids.get(id(value))
        if name is None:
            if callable(value):
                name = f"_pd{self._npd}"
                self._npd += 1
            else:
                name = f"_k{self._nk}"
                self._nk += 1
            self._ids[id(value)] = name
            self.globals[name] = value
        return name


@dataclass
class _Sections:
    """One property's watchers for ONE event class, as raw patterns.

    In the reference walk's phase order: cancels in stage order with
    unless before discharge, then advances by stage, then create.
    """

    cancels: List[Tuple[bool, int, Tuple[EventPattern, ...]]]
    advances: List[Tuple[int, EventPattern]]
    create: Optional[EventPattern]


def _sections_by_class(prop: PropertySpec) -> Dict[type, _Sections]:
    out: Dict[type, _Sections] = {}
    for cls, watchers in dispatch_plan(prop).items():
        unless_at: Dict[int, List[EventPattern]] = {}
        discharge_at: Dict[int, EventPattern] = {}
        advances: List[Tuple[int, EventPattern]] = []
        create: Optional[EventPattern] = None
        for watcher in watchers:
            if watcher.role == "unless":
                unless_at.setdefault(watcher.stage_idx, []).append(
                    watcher.pattern)
            elif watcher.role == "discharge":
                discharge_at[watcher.stage_idx] = watcher.pattern
            elif watcher.role == "advance":
                advances.append((watcher.stage_idx, watcher.pattern))
            else:
                create = watcher.pattern
        cancels: List[Tuple[bool, int, Tuple[EventPattern, ...]]] = []
        for stage_idx in sorted(set(unless_at) | set(discharge_at)):
            matchers = unless_at.get(stage_idx)
            if matchers:
                cancels.append((True, stage_idx, tuple(matchers)))
            pattern = discharge_at.get(stage_idx)
            if pattern is not None:
                cancels.append((False, stage_idx, (pattern,)))
        out[cls] = _Sections(
            cancels=cancels,
            advances=sorted(advances, key=lambda a: a[0]),
            create=create,
        )
    return out


@dataclass
class _Entry:
    pidx: int
    prop: PropertySpec
    store: InstanceStore
    refresh_ok: bool
    sections: _Sections


# ---------------------------------------------------------------------------
# The per-class emitter
# ---------------------------------------------------------------------------
class _ClassEmitter:
    """Emits the evaluator for one concrete event class."""

    def __init__(
        self,
        cls: type,
        entries: List[_Entry],
        pool: _ConstPool,
        exec_globals: Dict[str, object],
        inline: bool,
    ) -> None:
        self.cls = cls
        self.entries = entries
        self.pool = pool
        self.g = exec_globals
        #: the op sink: INLINE refreshes and creates in place, SPLIT plans
        self.inline = inline
        #: property index -> the (env, key) names of its create group
        self.group_vars: Dict[int, Tuple[str, str]] = {}
        #: whether a section emitted so far can plan a kill or an advance
        self.plans = False
        self.fmap = _FieldMap()
        #: whether a predicate reads ``_fields``, and the fields that map
        #: holds (when present): every predicate's ``fields_used``
        self.builds_map = False
        self.map_names: List[str] = []
        self.has_uid = cls in _UID_CLASSES
        self.has_create = any(e.sections.create is not None for e in entries)
        self.counts = any(
            e.sections.advances
            or any(not is_unless for is_unless, _, _ in e.sections.cancels)
            for e in entries
        )

    # -- shared expression builders -------------------------------------
    def _matcher(self, pattern: EventPattern, env_expr: str) -> str:
        """``match_instance`` (or ``guards_match``) as one expression."""
        terms: List[str] = []
        if pattern.same_packet_as is not None:
            uid_key = uid_var(pattern.same_packet_as)
            got = self.fmap("uid")
            terms.append(
                f"(_xp := {env_expr}.get({uid_key!r})) is not None")
            terms.append(f"{got} is not _M and {got} == _xp")
        terms.extend(refinement_sources(pattern, self.fmap, self.pool))
        for guard in pattern.guards:
            if isinstance(guard, Predicate):
                self.builds_map = True
                for fieldname in guard.fields_used:
                    self.fmap(fieldname)
                    if fieldname not in self.map_names:
                        self.map_names.append(fieldname)
            terms.append(guard_source(
                guard, self.fmap, self.pool, env_expr, "_fields"))
        return " and ".join(terms) if terms else "True"

    @staticmethod
    def _needs_env(patterns: Sequence[EventPattern]) -> bool:
        from .refs import FieldCmp, FieldEq, FieldNe, Var
        for pattern in patterns:
            if pattern.same_packet_as is not None:
                return True
            for guard in pattern.guards:
                if isinstance(guard, (FieldEq, FieldNe, FieldCmp)) \
                        and isinstance(guard.value, Var):
                    return True
                if isinstance(guard, MismatchAny) and any(
                    isinstance(ref, Var) for _, ref in guard.pairs
                ):
                    return True
                if isinstance(guard, Predicate):
                    return True
        return False

    def _binds_dict(self, pattern: EventPattern, uid_key: str) -> str:
        items = [f"{b.var!r}: {self.fmap(b.field)}" for b in pattern.binds]
        if self.has_uid:
            items.append(f"{uid_key!r}: {self.fmap('uid')}")
        return "{" + ", ".join(items) + "}"

    def _key_tuple(self, prop: PropertySpec) -> str:
        stage0 = prop.stages[0]
        var_field = {b.var: b.field for b in stage0.pattern.binds}
        parts = [self.fmap(var_field[v]) for v in prop.key_vars]
        if len(parts) == 1:
            return f"({parts[0]},)"
        return "(" + ", ".join(parts) + ")"

    # -- candidate iteration wrappers -----------------------------------
    def _stage_pop_ref(self, entry: _Entry, stage_idx: int) -> str:
        """Bind one stage's population dict as a stable exec global.

        ``InstanceStore`` pre-creates the per-stage dicts and never
        replaces them, so the generated code can hold the dict itself —
        no ``_stage_pop.get`` per event.
        """
        name = f"_sp{entry.pidx}_{stage_idx}"
        if name not in self.g:
            self.g[name] = entry.store._stage_pop[stage_idx]
        return name

    def _emit_candidates(self, w: _Writer, entry: _Entry, stage_idx: int,
                         body: Callable[[], None]) -> None:
        """Inline the store's candidates for one stage's own pattern: the
        bucket its index yields for the event's plan fields, or the whole
        stage population where the plan is empty.

        The index and population dicts referenced here are created once
        in the store's ``__init__`` and never replaced, so binding them as
        exec globals stays correct across instance churn.
        """
        stage = entry.prop.stages[stage_idx]
        index = entry.store.index(stage_idx, stage.pattern)
        if index is None:
            w.w(f"_c = {self._stage_pop_ref(entry, stage_idx)}")
        else:
            name = f"_bk{entry.pidx}_{stage_idx}"
            self.g[name] = index
            w.w(f"_c = {self._index_probe(name, stage_index_plan(stage))}")
        w.w("if _c:")
        w.ind()
        w.w("for _inst in _c.values():")
        w.ind()
        body()
        w.ded()
        w.ded()

    def _index_probe(self, name: str, plan: Tuple[Tuple[str, str], ...]) -> str:
        """One index lookup as an expression: the bucket the event's
        values of the plan's fields hit, or None on a miss.  An absent
        field never equals a binding, hence the presence check before the
        probe."""
        parts = [self.fmap(f) for f, _ in plan]
        key = f"({parts[0]},)" if len(parts) == 1 else f"({', '.join(parts)})"
        presence = " and ".join(f"{part} is not _M" for part in parts)
        return f"{name}.get({key}) if {name} and {presence} else None"

    # -- section emitters -------------------------------------------------
    def _emit_unless(self, w: _Writer, entry: _Entry, stage_idx: int,
                     patterns: Tuple[EventPattern, ...]) -> None:
        """Feature 4: cancel every waiting instance a pattern matches (no
        candidate counting).  When the store has a cancel index for every
        pattern the candidates are the bucket hits — two patterns hitting
        at once are merged back into stage-population order, the order
        the scan emits kills in — otherwise (a pattern with no
        ``field == $var`` guard) the stage population is scanned.
        The index dicts are bound as stable exec globals like the advance
        indexes in ``_emit_candidates``."""
        p = entry.pidx
        unless = entry.prop.stages[stage_idx].unless
        indexes = {
            f"_ub{p}_{stage_idx}_{j}": entry.store.index(stage_idx, unless[j])
            for j in map(unless.index, patterns)
        }
        if None in indexes.values():
            w.w(f"_c = {self._stage_pop_ref(entry, stage_idx)}")
        else:
            self.g.update(indexes)
            first, *rest = (
                self._index_probe(name, pattern.env_guards())
                for name, pattern in zip(indexes, patterns))
            w.w(f"_c = {first}")
            for probe in rest:
                w.w(f"_h = {probe}")
                w.w("if _h:")
                w.ind()
                w.w("_c = _merge(_c, _h) if _c else _h")
                w.ded()
        w.w("if _c:")
        w.ind()
        w.w("for _inst in _c.values():")
        w.ind()
        w.w("if _d is not None and _inst.instance_id in _d:")
        w.ind()
        w.w("continue")
        w.ded()
        if self._needs_env(patterns):
            w.w("_env = _inst.env")
        cond = " or ".join(
            f"({self._matcher(pat, '_env')})"
            for pat in patterns
        )
        w.w(f"if {cond}:")
        w.ind()
        w.w("if _d is None:")
        w.ind()
        w.w("_d = set()")
        w.ded()
        w.w("_d.add(_inst.instance_id)")
        w.w(f'_ops.append(_Op("kill", _prop{p}, instance=_inst, '
            'reason="unless", time=_t))')
        self.plans = True
        w.ded()
        w.ded()
        w.ded()

    def _emit_discharge(self, w: _Writer, entry: _Entry, stage_idx: int,
                        pattern: EventPattern) -> None:
        p = entry.pidx
        matcher = self._matcher(pattern, "_env")
        needs_env = self._needs_env((pattern,))

        def body() -> None:
            w.w(f"if _inst.stage != {stage_idx} or "
                "(_d is not None and _inst.instance_id in _d):")
            w.ind()
            w.w("continue")
            w.ded()
            w.w("_nc += 1")
            if needs_env:
                w.w("_env = _inst.env")
            w.w(f"if {matcher}:")
            w.ind()
            w.w("if _d is None:")
            w.ind()
            w.w("_d = set()")
            w.ded()
            w.w("_d.add(_inst.instance_id)")
            w.w(f'_ops.append(_Op("kill", _prop{p}, instance=_inst, '
                'reason="discharged", time=_t))')
            w.ded()

        self._emit_candidates(w, entry, stage_idx, body)
        self.plans = True

    def _emit_advance(self, w: _Writer, entry: _Entry, stage_idx: int,
                      pattern: EventPattern) -> None:
        p = entry.pidx
        stage = entry.prop.stages[stage_idx]
        matcher = self._matcher(pattern, "_env")
        bindable = bindable_source(pattern, self.fmap)
        binds = self._binds_dict(pattern, uid_var(stage.name))
        needs_env = self._needs_env((pattern,))

        def body() -> None:
            w.w(f"if _inst.stage != {stage_idx} or "
                "(_d is not None and _inst.instance_id in _d):")
            w.ind()
            w.w("continue")
            w.ded()
            w.w("_nc += 1")
            if needs_env:
                w.w("_env = _inst.env")
            if matcher != "True":
                w.w(f"if not ({matcher}):")
                w.ind()
                w.w("continue")
                w.ded()
            if bindable != "True":
                w.w(f"if not ({bindable}):")
                w.ind()
                w.w("continue")
                w.ded()
            w.w(f"_b = {binds}")
            w.w("if _d is None:")
            w.ind()
            w.w("_d = set()")
            w.ded()
            w.w("_d.add(_inst.instance_id)")
            w.w(f'_ops.append(_Op("advance", _prop{p}, instance=_inst, '
                'binds=_b, event=_ev, time=_t))')

        self._emit_candidates(w, entry, stage_idx, body)
        self.plans = True

    def _emit_refresh_or_create(self, w: _Writer, entry: _Entry,
                                env: str, key: str) -> None:
        """The by-key half of create (decided against current state).

        Ownership (``_kf``) is asked on the create branch only: a live
        instance under ``key`` exists because this monitor's filter
        admitted it, so a refresh needs no second answer.
        """
        p = entry.pidx
        owned = f"_kf is None or _kf({entry.prop.name!r}, {key})"
        w.w(f"_ex = _byk{p}({key})")
        if entry.refresh_ok:
            w.w("if _ex is not None and _ex.alive:")
            w.ind()
            w.w("if _ex.stage == 1 and "
                "(_d is None or _ex.instance_id not in _d):")
            w.ind()
            self._emit_state_op(
                w, f'"refresh", _prop{p}, instance=_ex, binds={env}',
                f"_refresh(_ex, {env}, _t)")
            w.ded()
            w.ded()
            w.w(f"elif {owned}:")
        else:
            # Sound Absent timing: a repeat stage-0 match never refreshes.
            w.w(f"if (_ex is None or not _ex.alive) and ({owned}):")
        w.ind()
        self._emit_state_op(
            w, f'"create", _prop{p}, key={key}, env={env}',
            f"_create(_prop{p}, {key}, {env}, _ev, _t)")
        w.ded()

    def _emit_state_op(self, w: _Writer, op_args: str, leaf: str) -> None:
        """The op sink for a refresh or a create.  SPLIT plans it like
        every other op; INLINE applies the kills and advances planned so
        far (if an earlier section can plan any), counts the op as
        ``Monitor._apply`` would, and calls the leaf."""
        if not self.inline:
            w.w(f"_ops.append(_Op({op_args}, event=_ev, time=_t))")
            return
        if self.plans:
            w.w("if _ops:")
            w.ind()
            w.w("_flush(_ops)")
            w.ded()
        w.w("_cop()")
        w.w(leaf)

    def _create_cond(self, entry: _Entry) -> str:
        pattern = entry.sections.create
        assert pattern is not None
        terms = []
        matcher = self._matcher(pattern, "_E")
        if matcher != "True":
            terms.append(matcher)
        bindable = bindable_source(pattern, self.fmap)
        if bindable != "True":
            terms.append(bindable)
        return " and ".join(terms) if terms else "True"

    def _env0_dict(self, entry: _Entry) -> str:
        pattern = entry.sections.create
        assert pattern is not None
        return self._binds_dict(
            pattern, uid_var(entry.prop.stages[0].name))

    def _emit_create(self, w: _Writer, entry: _Entry) -> None:
        group = self.group_vars.get(entry.pidx)
        if group is not None:
            env, key = group
            w.w(f"if {key} is not None:")
            w.ind()
            self._emit_refresh_or_create(w, entry, env, key)
            w.ded()
            return
        cond = self._create_cond(entry)
        guarded = cond != "True"
        if guarded:
            w.w(f"if {cond}:")
            w.ind()
        w.w(f"_env0 = {self._env0_dict(entry)}")
        w.w(f"_key = {self._key_tuple(entry.prop)}")
        self._emit_refresh_or_create(w, entry, "_env0", "_key")
        if guarded:
            w.ded()

    def _create_groups(self) -> List[List[_Entry]]:
        """Properties whose stage-0 condition, ``_env0`` and ``_key``
        read as the same source, in groups of two or more.  The source
        is compared as a throwaway emitter writes it, so that grouping
        numbers no constant and orders no field load of the real one."""
        scratch = _ClassEmitter(
            self.cls, self.entries, _ConstPool(), {}, self.inline)
        by_source: Dict[Tuple[str, str, str], List[_Entry]] = {}
        for entry in self.entries:
            if entry.sections.create is not None:
                source = (scratch._create_cond(entry),
                          scratch._env0_dict(entry),
                          scratch._key_tuple(entry.prop))
                by_source.setdefault(source, []).append(entry)
        return [group for group in by_source.values() if len(group) > 1]

    def _emit_groups(self, w: _Writer) -> None:
        """Build each group's stage-0 env and key once per event; its
        members' create sections read them (``_key_g<n>`` is None when
        the condition fails)."""
        for n, group in enumerate(self._create_groups()):
            first = group[0]
            env, key = f"_env0_g{n}", f"_key_g{n}"
            w.w("# one stage-0 env and key for " + ", ".join(
                repr(entry.prop.name) for entry in group))
            cond = self._create_cond(first)
            if cond != "True":
                w.w(f"if {cond}:")
                w.ind()
            w.w(f"{env} = {self._env0_dict(first)}")
            w.w(f"{key} = {self._key_tuple(first.prop)}")
            if cond != "True":
                w.ded()
                w.w("else:")
                w.ind()
                w.w(f"{key} = None")
                w.ded()
            for entry in group:
                self.group_vars[entry.pidx] = (env, key)

    def _emit_prop_sections(self, w: _Writer, entry: _Entry) -> None:
        w.w(f"# --- property {entry.prop.name!r} ---")
        w.w("_d = None")
        for is_unless, stage_idx, patterns in entry.sections.cancels:
            if is_unless:
                self._emit_unless(w, entry, stage_idx, patterns)
            else:
                self._emit_discharge(w, entry, stage_idx, patterns[0])
        for stage_idx, pattern in entry.sections.advances:
            self._emit_advance(w, entry, stage_idx, pattern)
        if entry.sections.create is not None:
            self._emit_create(w, entry)

    def emit_eval(self) -> Tuple[str, str, Tuple[str, ...]]:
        """The class's evaluator (returns (name, source, the field names
        its loader ``_ld_<Cls>`` reads)): the create groups, then each
        property's sections in registration order."""
        cls_name = self.cls.__name__
        name = f"_eval__{cls_name}"
        body = _Writer()
        body.ind()
        self._emit_groups(body)
        for entry in self.entries:
            self._emit_prop_sections(body, entry)
        names = tuple(self.fmap.order)
        head = _Writer()
        head.w(f"def {name}(_ev):")
        head.ind()
        if names:
            unpack = ", ".join(map(self.fmap, names))
            if len(names) == 1:
                unpack += ","
            head.w(f"{unpack} = _ld_{cls_name}(_ev)")
        if self.builds_map:
            head.w("_fields = {}")
            for fieldname in self.map_names:
                head.w(f"if {self.fmap(fieldname)} is not _M:")
                head.ind()
                head.w(f"_fields[{fieldname!r}] = {self.fmap(fieldname)}")
                head.ded()
        head.w("_t = _ev.time")
        if self.has_create:
            head.w("_kf = _mon.key_filter")
        head.w("_ops = []")
        if self.counts:
            head.w("_nc = 0")
        tail = _Writer()
        tail.ind()
        if self.counts:
            tail.w("if _nc:")
            tail.ind()
            tail.w("_inc_cand(_nc)")
            tail.ded()
        tail.w("return _ops")
        return name, "\n".join(head.lines + body.lines + tail.lines), names


# ---------------------------------------------------------------------------
# Program assembly
# ---------------------------------------------------------------------------
@functools.lru_cache(maxsize=256)
def _compile_function(lineno: int, source: str):
    """One generated ``def`` -> its code object, placed at ``lineno``.

    ``compile()`` is ~70 % of a program build, and monitors over the same
    properties (a test's many short-lived monitors, the two sides of a
    differential) emit identical text: everything monitor-specific is
    bound through the exec globals, never baked into the source, so the
    code object is a pure function of the arguments and safe to share.
    The newline padding keeps traceback line numbers pointing into the
    program text as ``repro explain --codegen`` prints it.
    """
    return compile("\n" * lineno + source, "<repro-codegen>", "exec")


def build_program(
    entries: Sequence[Tuple[PropertySpec, InstanceStore, bool]],
    host,
    op_cls: type,
    inc_candidates: Callable[[float], None],
    inline: bool,
    max_layer: int,
) -> CodegenProgram:
    """Emit the full program for a monitor's properties; its functions
    are compiled and exec'd as each is first needed (:class:`_LazyFns`).

    ``entries`` come in property registration order — the generated
    functions walk properties in exactly the order the reference
    evaluator does, keeping op order (and therefore same-timestamp
    violation order) identical across strategies.

    Each generated function is compiled on its own
    (:func:`_compile_function`): one ``compile()`` over the whole catalog
    program (~900 lines) peaks several MB of transient parser/AST
    memory, which would land in a daemon's peak RSS; per function the
    transient is a few hundred KB.

    ``inline`` picks the op sink (:meth:`_ClassEmitter._emit_state_op`):
    True refreshes and creates through ``host``'s ``_refresh`` and
    ``_create`` as they are decided, False plans every op for ``host``
    to defer.  ``max_layer`` is the parse depth every class's field
    loader (:func:`repro.core.refs.field_loader`) reads to.
    """
    pool = _ConstPool()
    exec_globals: Dict[str, object] = {
        "_M": MISSING,
        "_Op": op_cls,
        "_E": {},   # the empty env stage-0 predicates see (never written)
        "_mon": host,
        "_inc_cand": inc_candidates,
        "_merge": merge_by_stage_entry,
        "_lt": _lt,
        "_le": _le,
        "_gt": _gt,
        "_ge": _ge,
    }
    if inline:
        exec_globals.update(
            _flush=host._flush_ops, _cop=host._count_op,
            _refresh=host._refresh, _create=host._create)
    by_class: Dict[type, List[_Entry]] = {}
    for pidx, (prop, store, refresh_ok) in enumerate(entries):
        exec_globals[f"_prop{pidx}"] = prop
        exec_globals[f"_byk{pidx}"] = store._by_key.get
        for cls, sec in _sections_by_class(prop).items():
            by_class.setdefault(cls, []).append(
                _Entry(pidx, prop, store, refresh_ok, sec))

    parts: List[str] = [
        "# repro codegen program (generated by repro.core.codegen)",
        "# properties: " + ", ".join(
            prop.name for prop, _, _ in entries),
    ]
    #: class -> (def name, line, source, loaded field names)
    placed: Dict[type, Tuple[str, int, str, Tuple[str, ...]]] = {}
    for cls in sorted(by_class, key=lambda c: c.__name__):
        name, source, names = _ClassEmitter(
            cls, by_class[cls], pool, exec_globals, inline).emit_eval()
        parts += ["", f"# ===== {cls.__name__} ====="]
        placed[cls] = (name, sum(p.count("\n") + 1 for p in parts), source,
                       names)
        parts.append(source)
    exec_globals.update(pool.globals)

    def define(cls: type) -> Optional[Callable]:
        if cls not in placed:
            return None
        name, lineno, source, names = placed.pop(cls)
        exec_globals[f"_ld_{cls.__name__}"] = field_loader(
            cls, names, max_layer)
        exec(_compile_function(lineno, source), exec_globals)  # noqa: S102
        return exec_globals[name]

    return CodegenProgram(
        source="\n".join(parts) + "\n",
        eval_fns=_LazyFns(define),
        exec_globals=exec_globals,
    )
