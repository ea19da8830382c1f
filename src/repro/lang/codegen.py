"""Translate a compiled module into Python source: the VM's instrumented
build.

:func:`translate` writes one module of source text whose only definition
is ``bind(K, G, A, I, O, T, R, M, D)``.  ``bind`` takes the constants
table, the globals' initial values, the arrays, the inputs, the outputs
list, the trace list, the resume list, the block limit and the call-depth
limit, and returns the entry procedure bound to that one run's state.

Each procedure becomes one nested function ``p<index>(d, <params>)``, ``d``
being its call depth.  Frame slots are locals ``v<slot>``; constants,
globals and arrays are closure cells ``k<i>``, ``g<i>``, ``a<j>`` bound
from the tables, so no value or name from the program text is spliced
into the source (a 400-digit float literal is ``inf``, which has no
literal spelling).  Control flow is a ``while True`` loop that dispatches
on the block index ``b`` through a binary ``if b < K`` tree.

Tracing: before each block the code checks the block limit against
``len(T)`` and appends the block's module-wide *code* to ``T``; after each
call returns it appends ``len(T) * n_sites + site`` to ``R`` — the position
the caller resumes at and the call site it resumes from.  The translation
carries the per-block and per-site tables the VM derives every trace
product with.

Error paths call the two helpers the VM binds into the namespace:
``_fail(template, value, cause)`` raises a ``VMError`` and
``_runaway(template, limit)`` a ``VMRunawayError``, each with a message
template from the constants table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cfg.blocks import TerminatorKind
from repro.lang.lower import CompiledModule

#: Binary operators as Python expressions over the operand sources.
_BINARY = {
    "+": "{a} + {b}",
    "-": "{a} - {b}",
    "*": "{a} * {b}",
    "/": "{a} // {b} if isinstance({a}, int) and isinstance({b}, int) else {a} / {b}",
    "%": "{a} % {b}",
    "==": "1 if {a} == {b} else 0",
    "!=": "1 if {a} != {b} else 0",
    "<": "1 if {a} < {b} else 0",
    "<=": "1 if {a} <= {b} else 0",
    ">": "1 if {a} > {b} else 0",
    ">=": "1 if {a} >= {b} else 0",
    "<<": "{a} << {b}",
    ">>": "{a} >> {b}",
    "&": "{a} & {b}",
    "|": "{a} | {b}",
    "^": "{a} ^ {b}",
}
_ZERO_DIVISOR = {"/": "division by zero", "%": "modulo by zero"}
_UNARY = {"-": "-{a}", "!": "0 if {a} else 1", "~": "~{a}"}


@dataclass
class Translation:
    """Generated source plus the static tables of its block codes."""

    source: str = ""
    #: The ``K`` table: constants, operator names, messages, jump tables.
    constants: list = field(default_factory=list)
    #: Per block code: procedure index, CFG block id, instruction count,
    #: and whether the block makes a call.
    block_proc: list[int] = field(default_factory=list)
    block_ids: list[int] = field(default_factory=list)
    block_sizes: list[int] = field(default_factory=list)
    block_calls: list[bool] = field(default_factory=list)
    #: Per call site: its block code, the callee's procedure index, and
    #: whether it is the block's last.
    site_block: list[int] = field(default_factory=list)
    site_callee: list[int] = field(default_factory=list)
    site_last: list[bool] = field(default_factory=list)
    #: Every CFG edge as a (source, target) pair of block codes.
    edges: list[tuple[int, int]] = field(default_factory=list)

    @property
    def n_sites(self) -> int:
        return max(len(self.site_block), 1)


class _Translator:
    def __init__(self, module: CompiledModule):
        self.module = module
        self.out = Translation()
        self.lines: list[str] = []
        self.proc_index = {proc.name: p for p, proc in enumerate(module.program)}
        self.global_index = {name: i for i, name in enumerate(module.globals_init)}
        self.array_index = {name: j for j, name in enumerate(module.arrays)}
        self._constant_index: dict[tuple, int] = {}

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)

    def emit_guarded(self, depth: int, statements: list[str], template: str,
                     value: str = "exc") -> None:
        """``statements``, with a TypeError turned into a VMError whose
        message is ``template`` formatted with ``value``."""
        self.emit(depth, "try:")
        for statement in statements:
            self.emit(depth + 1, statement)
        self.emit(depth, "except TypeError as exc:")
        self.emit(depth + 1, f"_fail({self.const(template)}, {value}, exc)")

    def const(self, value) -> str:
        key = (type(value), value)
        if key not in self._constant_index:
            self._constant_index[key] = len(self.out.constants)
            self.out.constants.append(value)
        return f"k{self._constant_index[key]}"

    def operand(self, op: tuple) -> str:
        tag, value = op
        if tag == "l":
            return f"v{value}"
        if tag == "g":
            return f"g{self.global_index[value]}"
        return self.const(value)

    def instruction(self, depth: int, ins: tuple, code: int) -> None:
        op, operand = ins[0], self.operand
        if op == "mov":
            self.emit(depth, f"{operand(ins[1])} = {operand(ins[2])}")
        elif op == "bin":
            a, b = operand(ins[3]), operand(ins[4])
            statements = [f"{operand(ins[2])} = " + _BINARY[ins[1]].format(a=a, b=b)]
            if ins[1] in _ZERO_DIVISOR:
                message = self.const(_ZERO_DIVISOR[ins[1]])
                statements.insert(0, f"if {b} == 0: _fail({message})")
            self.emit_guarded(
                depth, statements, f"invalid operand types for {ins[1]!r}: {{}}"
            )
        elif op == "un":
            expression = _UNARY[ins[1]].format(a=operand(ins[3]))
            self.emit_guarded(
                depth, [f"{operand(ins[2])} = {expression}"],
                f"invalid operand type for {ins[1]!r}: {{}}",
            )
        elif op in ("load", "store"):
            name = ins[2] if op == "load" else ins[1]
            j = self.array_index[name]
            if op == "load":
                index = operand(ins[3])
                statement = f"{operand(ins[1])} = a{j}[{index}]"
            else:
                index = operand(ins[2])
                statement = f"a{j}[{index}] = {operand(ins[3])}"
            array = f"{name!r}[{self.module.arrays[name]}]"
            bounds = self.const(f"array index {{}} out of bounds for {array}")
            self.emit(depth, f"if not 0 <= {index} < n{j}: _fail({bounds}, {index})")
            self.emit_guarded(
                depth, [statement],
                f"array index {{}} is not an integer for {array}", index,
            )
        elif op == "call":
            args = "".join(f", {operand(arg)}" for arg in ins[3])
            callee = self.proc_index[ins[2]]
            site = len(self.out.site_block)
            self.emit(depth, f"{operand(ins[1])} = p{callee}(d + 1{args})")
            self.emit(depth, f"resume(len(T) * n_sites + {site})")
            self.out.site_block.append(code)
            self.out.site_callee.append(callee)
            self.out.site_last.append(False)
        elif op == "in":
            index = operand(ins[2])
            bounds = self.const("input index {} out of bounds")
            self.emit(depth, f"if not 0 <= {index} < n_inputs: _fail({bounds}, {index})")
            self.emit_guarded(
                depth, [f"{operand(ins[1])} = I[{index}]"],
                "input index {} is not an integer", index,
            )
        elif op == "inlen":
            self.emit(depth, f"{operand(ins[1])} = n_inputs")
        elif op == "out":
            self.emit(depth, f"out({operand(ins[1])})")
        else:  # pragma: no cover - lowering emits only known ops
            raise ValueError(f"unknown instruction {op!r}")

    def block(self, depth: int, p: int, block, local: dict[int, int]) -> None:
        out = self.out
        code = len(out.block_ids)
        out.block_proc.append(p)
        out.block_ids.append(block.block_id)
        out.block_sizes.append(len(block.instructions))
        first_site = len(out.site_block)
        self.emit(depth, f"app({code})")
        for ins in block.instructions:
            self.instruction(depth, ins, code)
        out.block_calls.append(len(out.site_block) > first_site)
        if out.block_calls[-1]:
            out.site_last[-1] = True

        term, operand = block.terminator, self.operand
        base = code - local[block.block_id]
        out.edges += [(code, base + local[target]) for target in term.successors]
        if term.kind is TerminatorKind.RETURN:
            self.emit(depth, f"return {operand(term.operand)}")
        elif term.kind is TerminatorKind.UNCONDITIONAL:
            self.emit(depth, f"b = {local[term.targets[0]]}")
        elif term.kind is TerminatorKind.CONDITIONAL:
            taken, other = (local[target] for target in term.targets)
            self.emit(depth, f"b = {taken} if {operand(term.operand)} else {other}")
        else:  # MULTIWAY jump table; its last slot is the default
            selector, base = term.operand
            table = tuple(local[target] for target in term.targets)
            self.emit(depth, f"s = {operand(selector)} - {self.const(base)}")
            self.emit(depth, f"if 0 <= s < {len(table) - 1}:")
            self.emit_guarded(
                depth + 1, [f"b = {self.const(table)}[s]"],
                "switch selector {} is not an integer", operand(selector),
            )
            self.emit(depth, "else:")
            self.emit(depth + 1, f"b = {table[-1]}")

    def dispatch(self, depth: int, p: int, blocks, local, lo: int, hi: int) -> None:
        """The ``if b < K`` tree over block indices ``lo .. hi - 1``."""
        if hi - lo == 1:
            self.block(depth, p, blocks[lo], local)
            return
        mid = (lo + hi) // 2
        self.emit(depth, f"if b < {mid}:")
        self.dispatch(depth + 1, p, blocks, local, lo, mid)
        self.emit(depth, "else:")
        self.dispatch(depth + 1, p, blocks, local, mid, hi)

    def procedure(self, p: int, proc) -> None:
        blocks = list(proc.cfg)
        local = {block.block_id: i for i, block in enumerate(blocks)}
        n_params = len(proc.params)
        params = "".join(f", v{i}" for i in range(n_params))
        self.emit(1, f"def p{p}(d{params}):")
        # Lowering writes a global only by assignment (``mov``).
        written = sorted({
            self.global_index[ins[1][1]]
            for block in blocks for ins in block.instructions
            if ins[0] == "mov" and ins[1][0] == "g"
        })
        if written:
            self.emit(2, "nonlocal " + ", ".join(f"g{i}" for i in written))
        self.emit(2, f"if d > D: _runaway({self.const('call depth exceeded ({})')}, D)")
        frame_size = self.module.frame_sizes[proc.name]
        if frame_size > n_params:
            slots = " = ".join(f"v{i}" for i in range(n_params, frame_size))
            self.emit(2, f"{slots} = 0")
        self.emit(2, f"b = {local[proc.cfg.entry]}")
        self.emit(2, "while True:")
        blocks_exceeded = self.const("execution exceeded {} blocks")
        self.emit(3, f"if len(T) >= M: _runaway({blocks_exceeded}, M)")
        self.dispatch(3, p, blocks, local, 0, len(blocks))

    def translate(self) -> Translation:
        module = self.module
        for p, proc in enumerate(module.program):
            self.procedure(p, proc)
        out = self.out
        prologue = ["def bind(K, G, A, I, O, T, R, M, D):"]
        prologue += [f"    k{i} = K[{i}]" for i in range(len(out.constants))]
        prologue += [f"    g{i} = G[{i}]" for i in range(len(module.globals_init))]
        for j in range(len(module.arrays)):
            prologue += [f"    a{j} = A[{j}]", f"    n{j} = len(a{j})"]
        prologue += [
            f"    n_inputs, n_sites = len(I), {out.n_sites}",
            "    app, out, resume = T.append, O.append, R.append",
        ]
        main = self.proc_index[module.program.main]
        out.source = "\n".join(prologue + self.lines + [f"    return p{main}", ""])
        return out


def translate(module: CompiledModule) -> Translation:
    """Generate ``module``'s Python source and block tables."""
    return _Translator(module).translate()
