"""Two-counter (Minsky) machines and their interpreter.

The undecidability theorems of Sections 3-5 rest on reductions from the
halting problem for two-counter machines.  This module provides the
machines themselves: a program is a mapping from control states to
instructions, where an instruction either increments a counter and jumps,
or tests a counter -- jumping one way on zero and decrementing-and-jumping
the other way on positive.  Reaching the distinguished ``halt`` state
halts the machine.

The interpreter reports whether the machine halts within a step budget
and how much counter space the run used, which is exactly what the
executable reduction gadgets need to size their data domains.
"""

from __future__ import annotations

from typing import Mapping, Union

from .._record import record
from ..errors import SpecificationError

#: The distinguished halting control state.
HALT = "halt"


@record(frozen=True, slots=True)
class Inc:
    """Increment counter ``counter`` (1 or 2) and jump to ``target``."""

    counter: int
    target: str

    def __post_init__(self) -> None:
        if self.counter not in (1, 2):
            raise SpecificationError("counter must be 1 or 2")


@record(frozen=True, slots=True)
class Test:
    """If the counter is zero jump to ``on_zero``; otherwise decrement it
    and jump to ``on_positive``."""

    counter: int
    on_zero: str
    on_positive: str

    def __post_init__(self) -> None:
        if self.counter not in (1, 2):
            raise SpecificationError("counter must be 1 or 2")


Instruction = Union[Inc, Test]

# keep pytest from trying to collect the Test instruction as a test class
Test.__test__ = False  # type: ignore[attr-defined]


@record(frozen=True)
class CounterMachine:
    """A deterministic two-counter machine."""

    program: Mapping[str, Instruction]
    initial: str

    def __post_init__(self) -> None:
        if self.initial != HALT and self.initial not in self.program:
            raise SpecificationError(
                f"initial state {self.initial!r} has no instruction"
            )
        for state, instr in self.program.items():
            if state == HALT:
                raise SpecificationError("the halt state has no instruction")
            targets = (
                (instr.target,) if isinstance(instr, Inc)
                else (instr.on_zero, instr.on_positive)
            )
            for t in targets:
                if t != HALT and t not in self.program:
                    raise SpecificationError(
                        f"state {state!r} jumps to undefined state {t!r}"
                    )

    def states(self) -> tuple[str, ...]:
        return tuple(sorted(self.program)) + (HALT,)


@record(frozen=True)
class MachineRun:
    """Outcome of running a machine for at most ``budget`` steps."""

    halted: bool
    steps: int
    max_c1: int
    max_c2: int
    final_c1: int
    final_c2: int

    @property
    def peak_space(self) -> int:
        """Distinct chain values a faithful simulation needs."""
        return self.max_c1 + self.max_c2


def run_machine(machine: CounterMachine, budget: int = 10_000
                ) -> MachineRun:
    """Execute *machine* for at most *budget* steps."""
    state = machine.initial
    c1 = c2 = 0
    max_c1 = max_c2 = 0
    steps = 0
    while state != HALT and steps < budget:
        instr = machine.program[state]
        if isinstance(instr, Inc):
            if instr.counter == 1:
                c1 += 1
                max_c1 = max(max_c1, c1)
            else:
                c2 += 1
                max_c2 = max(max_c2, c2)
            state = instr.target
        else:
            value = c1 if instr.counter == 1 else c2
            if value == 0:
                state = instr.on_zero
            else:
                if instr.counter == 1:
                    c1 -= 1
                else:
                    c2 -= 1
                state = instr.on_positive
        steps += 1
    return MachineRun(
        halted=state == HALT,
        steps=steps,
        max_c1=max_c1,
        max_c2=max_c2,
        final_c1=c1,
        final_c2=c2,
    )


# -- sample machines ---------------------------------------------------------

def count_up_down(n: int) -> CounterMachine:
    """Increment c1 to *n*, count it back down, halt.  Always halts."""
    program: dict[str, Instruction] = {}
    for i in range(n):
        program[f"up{i}"] = Inc(1, f"up{i + 1}" if i + 1 < n else "down")
    if n == 0:
        program["up0"] = Inc(1, "down")
    program["down"] = Test(1, HALT, "down")
    return CounterMachine(program, "up0")


def transfer_machine(n: int) -> CounterMachine:
    """c1 := n; move c1 into c2; drain c2; halt.  Always halts."""
    program: dict[str, Instruction] = {}
    for i in range(n):
        program[f"load{i}"] = Inc(1, f"load{i + 1}" if i + 1 < n else "mv")
    program["mv"] = Test(1, "drain", "mv_inc")
    program["mv_inc"] = Inc(2, "mv")
    program["drain"] = Test(2, HALT, "drain")
    return CounterMachine(program, "load0" if n > 0 else "mv")


def diverging_machine() -> CounterMachine:
    """Increments c1 forever.  Never halts, uses unbounded space."""
    return CounterMachine({"loop": Inc(1, "loop")}, "loop")


def ping_pong_machine() -> CounterMachine:
    """Bounces one token between the counters forever.  Never halts,
    uses bounded space (so even an unbounded-domain search would spin)."""
    return CounterMachine({
        "start": Inc(1, "take1"),
        "take1": Test(1, "take2", "put2"),
        "put2": Inc(2, "take1"),
        "take2": Test(2, "take1", "put1"),
        "put1": Inc(1, "take2"),
    }, "start")
