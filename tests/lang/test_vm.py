"""Tests for the VM: semantics, tracing, and errors."""

import pytest

from repro.faults import inject_faults
from repro.lang import VMError, compile_source, execute, run_and_profile
from repro.lang.vm import VMRunawayError


def run(source, inputs=None):
    return execute(compile_source(source), inputs or [])


class TestSemantics:
    def test_arithmetic(self):
        result = run("fn main() { return 2 + 3 * 4 - 1; }")
        assert result.returned == 13

    def test_division_floors(self):
        assert run("fn main() { return 7 / 2; }").returned == 3

    def test_division_by_zero_raises(self):
        with pytest.raises(VMError, match="division by zero"):
            run("fn main() { return 1 / input_len(); }")

    def test_comparisons_return_01(self):
        result = run("fn main() { output(3 < 5); output(5 < 3); return 0; }")
        assert result.outputs == [1, 0]

    def test_bitwise_and_shifts(self):
        result = run("fn main() { return (5 & 3) | (1 << 4) ^ 2; }")
        assert result.returned == (5 & 3) | (1 << 4) ^ 2

    def test_unary_ops(self):
        result = run("fn main() { output(-5); output(!0); output(~7); return 0; }")
        assert result.outputs == [-5, 1, ~7]

    def test_short_circuit_skips_side_effects(self):
        result = run("""
        global hits = 0;
        fn touch() { hits = hits + 1; return 1; }
        fn main() {
          var a = 0 && touch();
          var b = 1 || touch();
          return hits;
        }
        """)
        assert result.returned == 0

    def test_short_circuit_evaluates_when_needed(self):
        result = run("""
        global hits = 0;
        fn touch() { hits = hits + 1; return 1; }
        fn main() {
          var a = 1 && touch();
          var b = 0 || touch();
          return hits;
        }
        """)
        assert result.returned == 2

    def test_globals_and_arrays(self):
        result = run("""
        arr a[4];
        global g = 10;
        fn main() {
          a[0] = g;
          a[1] = a[0] * 2;
          g = a[1] + 1;
          return g;
        }
        """)
        assert result.returned == 21

    def test_recursion(self):
        result = run("""
        fn fib(n) {
          if (n < 2) { return n; }
          return fib(n - 1) + fib(n - 2);
        }
        fn main() { return fib(12); }
        """)
        assert result.returned == 144

    def test_while_with_break_continue(self):
        result = run("""
        fn main() {
          var i = 0;
          var sum = 0;
          while (1) {
            i = i + 1;
            if (i > 10) { break; }
            if (i % 2) { continue; }
            sum = sum + i;
          }
          return sum;
        }
        """)
        assert result.returned == 2 + 4 + 6 + 8 + 10

    def test_switch_dispatch_and_default(self):
        source = """
        fn pick(x) {
          switch (x) {
            case 0: return 10;
            case 1: return 11;
            case 2: return 12;
            case 3: return 13;
            default: return 99;
          }
        }
        fn main() {
          output(pick(0)); output(pick(2)); output(pick(3));
          output(pick(42)); output(pick(-1));
          return 0;
        }
        """
        assert run(source).outputs == [10, 12, 13, 99, 99]

    def test_inputs_and_outputs(self):
        result = run(
            "fn main() { output(input(0) + input(1)); return input_len(); }",
            [4, 5],
        )
        assert result.outputs == [9]
        assert result.returned == 2

    def test_float_arithmetic(self):
        result = run("fn main() { var x = 1.5; var y = x * 2.0; output(y); return 0; }")
        assert result.outputs == [3.0]


class TestErrors:
    def test_array_bounds_checked(self):
        with pytest.raises(VMError, match="out of bounds"):
            run("arr a[2]; fn main() { return a[5]; }")

    def test_input_bounds_checked(self):
        with pytest.raises(VMError, match="input index"):
            run("fn main() { return input(0); }")

    def test_runaway_guard(self):
        module = compile_source("fn main() { while (1) { } return 0; }")
        with pytest.raises(VMError, match="exceeded"):
            execute(module, max_blocks=1000)

    def test_call_depth_guard(self):
        module = compile_source("""
        fn spin(n) { return spin(n + 1); }
        fn main() { return spin(0); }
        """)
        with pytest.raises(VMError, match="call depth"):
            execute(module, max_call_depth=50)


class TestFloatIndexes:
    """A float where an integer index is needed is a VMError, never a raw
    TypeError."""

    def test_float_array_index(self):
        with pytest.raises(VMError, match=r"^array index 1.5 is not an integer for 'a'\[4\]$"):
            run("arr a[4]; fn main() { return a[3 / 2.0]; }")

    def test_float_input_index(self):
        with pytest.raises(VMError, match=r"^input index 1.5 is not an integer$"):
            run("fn main() { return input(3 / 2.0); }", [1, 2, 3])

    def test_float_jump_table_selector(self):
        source = """
        fn main() {
          switch (3 / 2.0) {
            case 0: return 10;
            case 1: return 11;
            case 2: return 12;
            default: return 99;
          }
        }
        """
        with pytest.raises(VMError, match=r"^switch selector 1.5 is not an integer$"):
            run(source)


class TestErrorParity:
    """Limits and messages the compiled VM must keep exactly."""

    LOOP = "fn main() { var i = 0; while (i < 10) { i = i + 1; } return i; }"

    def test_runaway_at_exactly_max_blocks_plus_one(self):
        module = compile_source(self.LOOP)
        blocks = execute(module).blocks_executed
        assert execute(module, max_blocks=blocks).blocks_executed == blocks
        with pytest.raises(
            VMRunawayError, match=rf"^execution exceeded {blocks - 1} blocks$"
        ):
            execute(module, max_blocks=blocks - 1)

    def test_runaway_through_the_fault_plan(self):
        module = compile_source(self.LOOP)
        blocks = execute(module).blocks_executed
        with inject_faults(vm_max_blocks=blocks):
            assert execute(module).blocks_executed == blocks
        with inject_faults(vm_max_blocks=blocks - 1):
            with pytest.raises(
                VMRunawayError, match=rf"^execution exceeded {blocks - 1} blocks$"
            ):
                execute(module)

    def test_call_depth_501_exceeds_the_default_cap(self):
        module = compile_source("""
        fn down(n) { if (n == 0) { return 0; } return down(n - 1) + 1; }
        fn main() { return down(input(0)); }
        """)
        assert execute(module, [499]).returned == 499  # deepest call: 500
        with pytest.raises(VMRunawayError, match=r"^call depth exceeded \(500\)$"):
            execute(module, [500])

    @pytest.mark.parametrize("source,inputs,message", [
        ("fn main() { return 1 / input_len(); }", [], "division by zero"),
        ("fn main() { return 1.5 / input_len(); }", [], "division by zero"),
        ("fn main() { return 1 % input_len(); }", [], "modulo by zero"),
        ("arr a[2]; fn main() { return a[5]; }", [], "array index 5 out of bounds for 'a'[2]"),
        ("arr a[2]; fn main() { a[0 - 1] = 3; return 0; }", [],
         "array index -1 out of bounds for 'a'[2]"),
        ("fn main() { return input(2); }", [7, 8], "input index 2 out of bounds"),
        ("fn main() { return 1.5 << 1; }", [],
         "invalid operand types for '<<': "
         "unsupported operand type(s) for <<: 'float' and 'int'"),
        ("fn main() { return ~1.5; }", [],
         "invalid operand type for '~': bad operand type for unary ~: 'float'"),
    ])
    def test_messages(self, source, inputs, message):
        with pytest.raises(VMError) as info:
            run(source, inputs)
        assert str(info.value) == message

    def test_inf_float_literal(self):
        huge = "1" + "0" * 400 + ".0"
        result = run(f"fn main() {{ output({huge}); output(0.0 - {huge}); return 0; }}")
        assert result.outputs == [float("inf"), float("-inf")]

    def test_source_names_never_reach_generated_code(self):
        """Program names that collide with the generated code's own are
        renamed, not spliced."""
        result = run("""
        global app = 2;
        global T = 3;
        arr I[2];
        fn bind(D, b) { I[1] = D * b; return I[1] + app + T; }
        fn main() { return bind(4, 5); }
        """)
        assert result.returned == 25


class TestInstrumentation:
    def test_code_is_generated_on_first_run_not_at_compile(self):
        module = compile_source("fn main() { return 1; }")
        assert module.instrumented is None
        execute(module)
        generated = module.instrumented
        assert generated is not None
        execute(module)
        assert module.instrumented is generated


class TestTracing:
    def test_counters_populated(self, mini_module, mini_run):
        result, profile = mini_run
        assert result.blocks_executed > 0
        assert result.instructions_executed > result.blocks_executed

    def test_edge_counts_match_cfg(self, mini_module, mini_profile):
        mini_profile.check_against(mini_module.program)

    def test_flow_conservation_inner_blocks(self, mini_module, mini_profile):
        """In-flow == out-flow for every non-entry, non-exit block."""
        for proc in mini_module.program:
            edge_profile = mini_profile.procedures.get(proc.name)
            if edge_profile is None:
                continue
            cfg = proc.cfg
            for block in cfg:
                if block.block_id == cfg.entry or not block.successors:
                    continue
                inflow = edge_profile.block_entry_count(block.block_id)
                outflow = edge_profile.block_exit_count(block.block_id)
                assert inflow == outflow, (proc.name, block.block_id)

    def test_call_counts_recorded(self, mini_module, mini_profile):
        assert mini_profile.call_counts["main"] == 1
        assert mini_profile.call_counts["bucket"] > 0

    def test_back_to_back_returns_resume_the_caller(self):
        """``g(g(x))`` in a return block: both calls return with no block
        in between, and then ``f`` returns too; every edge still lands in
        the right activation."""
        result = run("""
        fn g(x) { return x + 1; }
        fn f(x) { return g(g(x)); }
        fn main() {
          var s = 0;
          var i = 0;
          while (i < 5) { s = s + f(i) * f(i + 1); i = i + 1; }
          return s;
        }
        """)
        trace = result.trace
        assert result.returned == 110
        assert result.blocks_executed == 43
        assert trace.activation_counts == {"main": 1, "f": 10, "g": 20}
        assert trace.call_pair_counts == {("main", "f"): 10, ("f", "g"): 20}
        assert trace.edge_counts == {
            "main": {(0, 1): 1, (1, 2): 5, (2, 1): 5, (1, 3): 1},
            "f": {},
            "g": {},
        }

    def test_recursive_main(self):
        result = run("""
        global k = 0;
        fn main() { k = k + 1; if (k < 4) { main(); } return k; }
        """)
        trace = result.trace
        assert result.returned == 4
        assert trace.activation_counts == {"main": 4}
        assert trace.call_pair_counts == {("main", "main"): 3}
        assert trace.edge_counts == {"main": {(0, 1): 3, (0, 2): 1, (1, 2): 3}}

    def test_trace_interleaves_procedures(self, mini_run):
        result, _ = mini_run
        procs = result.trace.trace.procedures()
        assert {"main", "bucket"} <= procs

    def test_transition_log_optional(self):
        module = compile_source("""
        fn main() {
          var i = 0;
          while (i < 5) { i = i + 1; }
          return i;
        }
        """)
        # Default runs don't keep transition logs.
        result = execute(module)
        assert result.trace.transition_log == {}
