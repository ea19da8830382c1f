"""AST → CFG lowering.

Each function becomes a :class:`~repro.cfg.graph.Procedure` whose blocks
hold flat VM instructions (tuples) and whose terminators carry the operand
needed at run time (condition operand, switch selector).  Control
constructs lower the usual way:

* ``if``/``while`` — conditional terminators; short-circuit ``&&``/``||``
  conditions lower directly into branch chains (extra blocks, as a real
  compiler emits),
* ``switch`` — a jump table (MULTIWAY terminator) when the case values are
  dense, otherwise an if-chain; jump tables are the program's register
  branches,
* ``break``/``continue`` — jumps to the enclosing loop's exit/header.

Instruction tuples (dst/src operands are ``('l', slot)`` locals,
``('c', value)`` constants, ``('g', name)`` global scalars):

    ('mov', dst, src)
    ('bin', op, dst, a, b)
    ('un', op, dst, a)
    ('load', dst, array, index)
    ('store', array, index, src)
    ('call', dst, fname, (args...))
    ('in', dst, index)        # input(i)
    ('inlen', dst)            # input_len()
    ('out', src)              # output(x)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.cfg.blocks import BasicBlock, Terminator, TerminatorKind
from repro.cfg.graph import ControlFlowGraph, Procedure, Program
from repro.lang import ast_nodes as ast
from repro.lang.lexer import LangError
from repro.lang.parser import parse

_BUILTINS = {"input": 1, "input_len": 0, "output": 1}

#: A switch lowers to a jump table when the value span is at most this much
#: denser-than-sparse bound (mirrors real compiler density heuristics).
def _dense_enough(n_cases: int, span: int) -> bool:
    return n_cases >= 3 and span <= max(16, 3 * n_cases)


@dataclass
class CompiledModule:
    """A compiled tiny-language module: the CFG program plus the run-time
    environment the VM needs (array sizes, global initial values, frame
    sizes)."""

    program: Program
    arrays: dict[str, int] = field(default_factory=dict)
    globals_init: dict[str, int] = field(default_factory=dict)
    frame_sizes: dict[str, int] = field(default_factory=dict)
    #: The VM's generated code (:class:`repro.lang.vm.Instrumented`), made
    #: by the first run, never by compilation.
    instrumented: Any = field(default=None, init=False, repr=False, compare=False)


class _ProtoBlock:
    __slots__ = ("block_id", "instructions", "terminator", "label")

    def __init__(self, block_id: int, label: str = ""):
        self.block_id = block_id
        self.instructions: list[tuple] = []
        self.terminator: Terminator | None = None
        self.label = label


class _FunctionLowering:
    def __init__(self, module: "_ModuleContext", decl: ast.FunctionDecl):
        self.module = module
        self.decl = decl
        self.blocks: list[_ProtoBlock] = []
        self.current = self.new_block("entry")
        self.locals: dict[str, int] = {}
        self.n_slots = 0
        #: (continue_target, break_target) per enclosing while loop.
        self.loop_stack: list[tuple[int, int]] = []
        for param in decl.params:
            if param in self.locals:
                raise LangError(f"duplicate parameter {param!r}", decl.line)
            self.locals[param] = self._new_slot()

    # -- low-level helpers ----------------------------------------------------

    def _new_slot(self) -> int:
        slot = self.n_slots
        self.n_slots += 1
        return slot

    def new_temp(self) -> tuple[str, int]:
        return ("l", self._new_slot())

    def new_block(self, label: str = "") -> _ProtoBlock:
        block = _ProtoBlock(len(self.blocks), label)
        self.blocks.append(block)
        return block

    def emit(self, instruction: tuple) -> None:
        self.current.instructions.append(instruction)

    def seal(self, terminator: Terminator) -> None:
        if self.current.terminator is None:
            self.current.terminator = terminator

    def seal_jump(self, target: _ProtoBlock) -> None:
        self.seal(Terminator(TerminatorKind.UNCONDITIONAL, (target.block_id,)))

    def position_at(self, block: _ProtoBlock) -> None:
        self.current = block

    # -- expressions ----------------------------------------------------------

    def lower_expr(self, expr: ast.Expr) -> tuple:
        if isinstance(expr, ast.IntLit):
            return ("c", expr.value)
        if isinstance(expr, ast.FloatLit):
            return ("c", expr.value)
        if isinstance(expr, ast.VarRef):
            return self._read_var(expr.name, expr.line)
        if isinstance(expr, ast.Index):
            self._check_array(expr.array, expr.line)
            index = self.lower_expr(expr.index)
            dst = self.new_temp()
            self.emit(("load", dst, expr.array, index))
            return dst
        if isinstance(expr, ast.Unary):
            operand = self.lower_expr(expr.operand)
            dst = self.new_temp()
            self.emit(("un", expr.op, dst, operand))
            return dst
        if isinstance(expr, ast.Binary):
            left = self.lower_expr(expr.left)
            right = self.lower_expr(expr.right)
            dst = self.new_temp()
            self.emit(("bin", expr.op, dst, left, right))
            return dst
        if isinstance(expr, ast.Logical):
            return self._materialize_logical(expr)
        if isinstance(expr, ast.Call):
            return self._lower_call(expr)
        raise LangError(f"cannot lower expression {expr!r}", expr.line)

    def _read_var(self, name: str, line: int) -> tuple:
        if name in self.locals:
            return ("l", self.locals[name])
        if name in self.module.globals_init:
            return ("g", name)
        raise LangError(f"undefined variable {name!r}", line)

    def _check_array(self, name: str, line: int) -> None:
        if name not in self.module.arrays:
            raise LangError(f"undefined array {name!r}", line)

    def _lower_call(self, expr: ast.Call) -> tuple:
        args = [self.lower_expr(arg) for arg in expr.args]
        dst = self.new_temp()
        if expr.name in _BUILTINS:
            arity = _BUILTINS[expr.name]
            if len(args) != arity:
                raise LangError(
                    f"builtin {expr.name!r} takes {arity} argument(s), "
                    f"got {len(args)}", expr.line,
                )
            if expr.name == "input":
                self.emit(("in", dst, args[0]))
            elif expr.name == "input_len":
                self.emit(("inlen", dst))
            else:
                self.emit(("out", args[0]))
                self.emit(("mov", dst, ("c", 0)))
            return dst
        arity = self.module.functions.get(expr.name)
        if arity is None:
            raise LangError(f"undefined function {expr.name!r}", expr.line)
        if len(args) != arity:
            raise LangError(
                f"function {expr.name!r} takes {arity} argument(s), "
                f"got {len(args)}", expr.line,
            )
        self.emit(("call", dst, expr.name, tuple(args)))
        return dst

    def _materialize_logical(self, expr: ast.Logical) -> tuple:
        """Materialize a short-circuit expression as a 0/1 temp."""
        dst = self.new_temp()
        true_block = self.new_block("sc_true")
        false_block = self.new_block("sc_false")
        join = self.new_block("sc_join")
        self.lower_condition(expr, true_block, false_block)
        self.position_at(true_block)
        self.emit(("mov", dst, ("c", 1)))
        self.seal_jump(join)
        self.position_at(false_block)
        self.emit(("mov", dst, ("c", 0)))
        self.seal_jump(join)
        self.position_at(join)
        return dst

    def lower_condition(
        self, expr: ast.Expr, true_block: _ProtoBlock, false_block: _ProtoBlock
    ) -> None:
        """Lower ``expr`` as a branch condition ending the current block."""
        if isinstance(expr, ast.Logical):
            middle = self.new_block("sc_mid")
            if expr.op == "&&":
                self.lower_condition(expr.left, middle, false_block)
            else:
                self.lower_condition(expr.left, true_block, middle)
            self.position_at(middle)
            self.lower_condition(expr.right, true_block, false_block)
            return
        if isinstance(expr, ast.Unary) and expr.op == "!":
            self.lower_condition(expr.operand, false_block, true_block)
            return
        operand = self.lower_expr(expr)
        self.seal(
            Terminator(
                TerminatorKind.CONDITIONAL,
                (true_block.block_id, false_block.block_id),
                operand,
            )
        )

    # -- statements -----------------------------------------------------------

    def lower_body(self, statements: tuple[ast.Stmt, ...]) -> None:
        for statement in statements:
            if self.current.terminator is not None:
                # Unreachable code after return/break/continue: keep lowering
                # into a fresh block (pruned later) so errors still surface.
                self.position_at(self.new_block("unreachable"))
            self.lower_stmt(statement)

    def lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.VarDecl):
            if stmt.name in self.locals:
                raise LangError(f"redeclared variable {stmt.name!r}", stmt.line)
            value = self.lower_expr(stmt.value)
            self.locals[stmt.name] = self._new_slot()
            self.emit(("mov", ("l", self.locals[stmt.name]), value))
        elif isinstance(stmt, ast.Assign):
            value = self.lower_expr(stmt.value)
            if stmt.name in self.locals:
                self.emit(("mov", ("l", self.locals[stmt.name]), value))
            elif stmt.name in self.module.globals_init:
                self.emit(("mov", ("g", stmt.name), value))
            else:
                raise LangError(f"undefined variable {stmt.name!r}", stmt.line)
        elif isinstance(stmt, ast.StoreStmt):
            self._check_array(stmt.array, stmt.line)
            index = self.lower_expr(stmt.index)
            value = self.lower_expr(stmt.value)
            self.emit(("store", stmt.array, index, value))
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.For):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.Switch):
            self._lower_switch(stmt)
        elif isinstance(stmt, ast.Return):
            operand = (
                ("c", 0) if stmt.value is None else self.lower_expr(stmt.value)
            )
            self.seal(Terminator(TerminatorKind.RETURN, (), operand))
        elif isinstance(stmt, ast.Break):
            if not self.loop_stack:
                raise LangError("break outside loop", stmt.line)
            target_id = self.loop_stack[-1][1]
            self.seal(Terminator(TerminatorKind.UNCONDITIONAL, (target_id,)))
        elif isinstance(stmt, ast.Continue):
            if not self.loop_stack:
                raise LangError("continue outside loop", stmt.line)
            target_id = self.loop_stack[-1][0]
            self.seal(Terminator(TerminatorKind.UNCONDITIONAL, (target_id,)))
        elif isinstance(stmt, ast.ExprStmt):
            self.lower_expr(stmt.value)
        else:
            raise LangError(f"cannot lower statement {stmt!r}", stmt.line)

    def _lower_if(self, stmt: ast.If) -> None:
        then_block = self.new_block("then")
        join = self.new_block("join")
        else_block = self.new_block("else") if stmt.else_body else join
        self.lower_condition(stmt.condition, then_block, else_block)
        self.position_at(then_block)
        self.lower_body(stmt.then_body)
        self.seal_jump(join)
        if stmt.else_body:
            self.position_at(else_block)
            self.lower_body(stmt.else_body)
            self.seal_jump(join)
        self.position_at(join)

    def _lower_while(self, stmt: ast.While) -> None:
        header = self.new_block("while_head")
        body = self.new_block("while_body")
        exit_block = self.new_block("while_exit")
        self.seal_jump(header)
        self.position_at(header)
        self.lower_condition(stmt.condition, body, exit_block)
        self.loop_stack.append((header.block_id, exit_block.block_id))
        self.position_at(body)
        self.lower_body(stmt.body)
        self.seal_jump(header)
        self.loop_stack.pop()
        self.position_at(exit_block)

    def _lower_for(self, stmt: ast.For) -> None:
        """``for (init; cond; step)`` desugars to init + while, with
        ``continue`` targeting the step block (C semantics)."""
        if stmt.init is not None:
            self.lower_stmt(stmt.init)
        header = self.new_block("for_head")
        body = self.new_block("for_body")
        step_block = self.new_block("for_step")
        exit_block = self.new_block("for_exit")
        self.seal_jump(header)
        self.position_at(header)
        if stmt.condition is None:
            self.seal_jump(body)
        else:
            self.lower_condition(stmt.condition, body, exit_block)
        self.loop_stack.append((step_block.block_id, exit_block.block_id))
        self.position_at(body)
        self.lower_body(stmt.body)
        self.seal_jump(step_block)
        self.loop_stack.pop()
        self.position_at(step_block)
        if stmt.step is not None:
            self.lower_stmt(stmt.step)
        self.seal_jump(header)
        self.position_at(exit_block)

    def _lower_switch(self, stmt: ast.Switch) -> None:
        selector = self.lower_expr(stmt.selector)
        join = self.new_block("switch_join")
        default_block = self.new_block("switch_default") if stmt.default else join
        case_blocks = {
            case.value: self.new_block(f"case_{case.value}")
            for case in stmt.cases
        }

        values = sorted(case_blocks)
        if values and _dense_enough(len(values), values[-1] - values[0] + 1):
            base = values[0]
            span = values[-1] - base + 1
            table = [
                case_blocks.get(base + offset, default_block).block_id
                for offset in range(span)
            ]
            table.append(default_block.block_id)  # out-of-range slot
            self.seal(
                Terminator(
                    TerminatorKind.MULTIWAY, tuple(table), (selector, base)
                )
            )
        else:
            # Sparse (or tiny) switch: an equality if-chain.
            for value in values:
                next_test = self.new_block("switch_test")
                flag = self.new_temp()
                self.emit(("bin", "==", flag, selector, ("c", value)))
                self.seal(
                    Terminator(
                        TerminatorKind.CONDITIONAL,
                        (case_blocks[value].block_id, next_test.block_id),
                        flag,
                    )
                )
                self.position_at(next_test)
            self.seal_jump(default_block)

        for case in stmt.cases:
            self.position_at(case_blocks[case.value])
            self.lower_body(case.body)
            self.seal_jump(join)
        if stmt.default:
            self.position_at(default_block)
            self.lower_body(stmt.default)
            self.seal_jump(join)
        self.position_at(join)

    # -- finish ---------------------------------------------------------------

    def finish(self) -> Procedure:
        if self.current.terminator is None:
            self.seal(Terminator(TerminatorKind.RETURN, (), ("c", 0)))
        # Seal any dangling blocks (e.g. unreachable joins) with returns so
        # the CFG is well-formed, then prune everything unreachable.
        for proto in self.blocks:
            if proto.terminator is None:
                proto.terminator = Terminator(TerminatorKind.RETURN, (), ("c", 0))
        reachable = self._reachable_ids()
        blocks = [
            BasicBlock(
                block_id=proto.block_id,
                terminator=proto.terminator,
                instructions=proto.instructions,
                label=f"{self.decl.name}.{proto.label or proto.block_id}",
            )
            for proto in self.blocks
            if proto.block_id in reachable
        ]
        cfg = ControlFlowGraph(self.blocks[0].block_id, blocks)
        return Procedure(name=self.decl.name, cfg=cfg, params=self.decl.params)

    def _reachable_ids(self) -> set[int]:
        by_id = {proto.block_id: proto for proto in self.blocks}
        seen = {self.blocks[0].block_id}
        stack = [self.blocks[0].block_id]
        while stack:
            proto = by_id[stack.pop()]
            assert proto.terminator is not None
            for target in proto.terminator.targets:
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        return seen


class _ModuleContext:
    def __init__(self, module: ast.Module):
        self.functions: dict[str, int] = {}
        self.arrays: dict[str, int] = {}
        self.globals_init: dict[str, int] = {}
        for decl in module.functions:
            if decl.name in self.functions or decl.name in _BUILTINS:
                raise LangError(f"duplicate function {decl.name!r}", decl.line)
            self.functions[decl.name] = len(decl.params)
        for array in module.arrays:
            if array.name in self.arrays:
                raise LangError(f"duplicate array {array.name!r}", array.line)
            self.arrays[array.name] = array.size
        for scalar in module.globals:
            if scalar.name in self.globals_init or scalar.name in self.arrays:
                raise LangError(f"duplicate global {scalar.name!r}", scalar.line)
            self.globals_init[scalar.name] = scalar.initial


def lower_module(module: ast.Module, *, main: str = "main") -> CompiledModule:
    """Lower a parsed module to a :class:`CompiledModule`."""
    context = _ModuleContext(module)
    if main not in context.functions:
        raise LangError(f"missing entry function {main!r}")
    if context.functions[main] != 0:
        raise LangError(f"entry function {main!r} must take no parameters")
    program = Program(main=main)
    frame_sizes: dict[str, int] = {}
    for decl in module.functions:
        lowering = _FunctionLowering(context, decl)
        lowering.lower_body(decl.body)
        program.add(lowering.finish())
        frame_sizes[decl.name] = lowering.n_slots
    return CompiledModule(
        program=program,
        arrays=dict(context.arrays),
        globals_init=dict(context.globals_init),
        frame_sizes=frame_sizes,
    )


def compile_source(source: str, *, main: str = "main") -> CompiledModule:
    """Parse and lower source text in one step."""
    return lower_module(parse(source), main=main)
