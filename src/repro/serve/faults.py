"""Deterministic fault injection: kill/slow/raise at named points, from env.

A multi-process serving stack earns trust only if its failure paths are
*testable*: "a dead replica" must be something tier-1 can provoke on
demand, in one line, without monkeypatching across process boundaries.
This module is that lever.  Production code places a cheap
:func:`fault_point` call where real systems die (the replica poll loop),
and the ``KBQA_FAULTS`` environment variable — which forked server
replicas inherit — arms it.

Spec grammar (semicolon-separated entries)::

    KBQA_FAULTS = "<site>=<action>[,<modifier>...][;<site>=<action>...]"

Actions:

* ``kill`` — ``SIGKILL`` the calling process (the real thing, not an
  exception: no ``finally`` blocks run, exactly like the OOM killer);
* ``exit`` / ``exit:<code>`` — ``os._exit`` with the code (default 1);
* ``sleep:<ms>`` — block for ``ms`` milliseconds (slow-task injection);
* ``raise`` / ``raise:<name>`` — raise an exception from a small registry
  (``RuntimeError`` default; ``OSError`` and ``ValueError`` for the
  recoverable-error paths).

Modifiers:

* ``times=N`` — fire at most ``N`` times per process (default 1; ``N <= 0``
  means every hit);
* ``after=K`` — skip the first ``K`` hits of the site in this process
  (lets a replica serve a few poll loops before dying "mid-load");
* ``once=<path>`` — fire only in the single process that atomically claims
  the token file (``O_CREAT|O_EXCL``), across *all* processes that inherit
  the spec — "kill exactly one replica" instead of "every replica kills
  itself on its first poll".

Sites are free-form labels; an entry naming a site nothing calls simply
never fires.  The one instrumented site:

=====================  ====================================================
``serve.replica``      a ``--procs`` replica's poll loop (between requests,
                       never while holding the shared op lock)
=====================  ====================================================

With ``KBQA_FAULTS`` unset (production), :func:`fault_point` is one dict
probe against a parsed-empty plan — no syscalls, no allocation.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field

FAULTS_ENV = "KBQA_FAULTS"

_ACTIONS = ("kill", "exit", "sleep", "raise")


def _raisable(name: str) -> type[BaseException]:
    """Resolve a ``raise:<name>`` target (small, closed registry)."""
    registry: dict[str, type[BaseException]] = {
        "RuntimeError": RuntimeError,
        "OSError": OSError,
        "ValueError": ValueError,
    }
    try:
        return registry[name]
    except KeyError:
        raise ValueError(
            f"unknown raise target {name!r} (choose from {', '.join(registry)})"
        ) from None


@dataclass
class Fault:
    """One armed fault: what to do at a site, and when to actually fire."""

    site: str
    action: str
    arg: str | None = None
    times: int = 1  # max fires per process; <= 0 means unlimited
    after: int = 0  # hits to skip before the first fire
    once: str | None = None  # cross-process one-shot token file
    hits: int = field(default=0, compare=False)
    fires: int = field(default=0, compare=False)

    def fire(self) -> None:
        """Count a hit of this site and trigger the action when armed."""
        self.hits += 1
        if self.hits <= self.after:
            return
        if self.times > 0 and self.fires >= self.times:
            return
        if self.once is not None and not _claim_token(self.once):
            return
        self.fires += 1
        if self.action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif self.action == "exit":
            os._exit(int(self.arg) if self.arg else 1)
        elif self.action == "sleep":
            time.sleep(float(self.arg) / 1000.0 if self.arg else 0.01)
        elif self.action == "raise":
            exc = _raisable(self.arg or "RuntimeError")
            raise exc(f"injected fault at {self.site!r} ({FAULTS_ENV})")


def _claim_token(path: str) -> bool:
    """Atomically claim a cross-process one-shot token (first caller wins)."""
    try:
        os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        return True
    except FileExistsError:
        return False
    except OSError:
        return False  # unwritable token path: fail safe (never fire)


def parse_faults(spec: str) -> dict[str, Fault]:
    """Parse a ``KBQA_FAULTS`` spec into per-site faults (one per site).

    Raises :class:`ValueError` on malformed entries so a typo in the
    environment fails the run loudly instead of silently injecting nothing.
    """
    faults: dict[str, Fault] = {}
    for raw_entry in spec.split(";"):
        entry = raw_entry.strip()
        if not entry:
            continue
        head, sep, modifier_text = entry.partition(",")
        site, sep, action_text = head.partition("=")
        site = site.strip()
        if not sep or not site:
            raise ValueError(f"malformed fault entry {entry!r} (want site=action)")
        action, _, arg = action_text.strip().partition(":")
        if action not in _ACTIONS:
            raise ValueError(
                f"unknown fault action {action!r} (choose from {', '.join(_ACTIONS)})"
            )
        fault = Fault(site=site, action=action, arg=arg or None)
        if modifier_text:
            for modifier in modifier_text.split(","):
                name, sep, value = modifier.partition("=")
                name = name.strip()
                if name == "times" and sep:
                    fault.times = int(value)
                elif name == "after" and sep:
                    fault.after = int(value)
                elif name == "once" and sep:
                    fault.once = value
                else:
                    raise ValueError(
                        f"unknown fault modifier {modifier.strip()!r} "
                        f"(choose from times=, after=, once=)"
                    )
        # validate raise targets and numeric args eagerly, not at fire time
        if fault.action == "raise":
            _raisable(fault.arg or "RuntimeError")
        if fault.action == "sleep" and fault.arg is not None:
            float(fault.arg)
        if fault.action == "exit" and fault.arg is not None:
            int(fault.arg)
        faults[site] = fault
    return faults


# The active plan, parsed lazily from the environment and cached against the
# exact spec string — a forked replica inherits the env and parses its own
# copy (counters are per-process by design), and a test that swaps the env
# gets a fresh plan on its next fault_point.
_PLAN: tuple[str, dict[str, Fault]] = ("", {})


def _active_faults() -> dict[str, Fault]:
    global _PLAN
    spec = os.environ.get(FAULTS_ENV, "")
    if spec != _PLAN[0]:
        _PLAN = (spec, parse_faults(spec) if spec else {})
    return _PLAN[1]


def fault_point(site: str) -> None:
    """Trigger the fault armed for ``site``, if any (cheap no-op otherwise)."""
    fault = _active_faults().get(site)
    if fault is not None:
        fault.fire()


def faults_active() -> bool:
    """True when any fault is armed (surfaced in /stats and bench output)."""
    return bool(_active_faults())


class inject_faults:
    """Context manager arming a spec for this process *and* its children::

        with inject_faults(f"serve.replica=kill,once={token}"):
            ...  # forked replicas inherit KBQA_FAULTS and die on cue

    Setting the environment (rather than module state) is the point: forked
    replicas re-parse it on their side of the boundary.
    Restores the previous value on exit.
    """

    def __init__(self, spec: str) -> None:
        parse_faults(spec)  # validate before arming anything
        self.spec = spec
        self._previous: str | None = None

    def __enter__(self) -> "inject_faults":
        self._previous = os.environ.get(FAULTS_ENV)
        os.environ[FAULTS_ENV] = self.spec
        return self

    def __exit__(self, *exc_info) -> None:
        if self._previous is None:
            os.environ.pop(FAULTS_ENV, None)
        else:
            os.environ[FAULTS_ENV] = self._previous
