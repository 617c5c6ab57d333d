"""Unit tests for the ISA interpreter."""

import pytest

from repro.errors import Fault, PageFault
from repro.isa import Asm, Instr, INSTR_SIZE, LabelRef, Op, SymRef, resolve
from repro.isa.interp import _FUSED_SPECIAL, GoroutineExit
from repro.isa.opcodes import FUSED_PAIRS

from tests.harness import DATA_BASE, MiniMachine, TEXT_BASE


def program(*ops):
    """Build [PUSH 0; HALT]-terminated instruction lists tersely."""
    return [Instr(op, imm1, imm2) for op, imm1, imm2 in
            ((o + (0,) * (3 - len(o))) for o in ops)]


def run_expr(instrs_body):
    """Run a body that leaves one value on the operand stack; return it."""
    mm = MiniMachine()
    instrs = list(instrs_body)
    # Store the result to DATA_BASE, then exit 0.
    instrs = ([Instr(Op.PUSH, DATA_BASE)] + instrs
              + [Instr(Op.STORE), Instr(Op.PUSH, 0), Instr(Op.HALT)])
    mm.load(instrs)
    assert mm.run() == 0
    return mm.peek_word(DATA_BASE)


class TestAluAndStack:
    @pytest.mark.parametrize("op,a,b,expected", [
        (Op.ADD, 2, 3, 5),
        (Op.SUB, 2, 3, -1),
        (Op.MUL, -4, 6, -24),
        (Op.DIV, 7, 2, 3),
        (Op.DIV, -7, 2, -3),       # truncation toward zero
        (Op.MOD, 7, 2, 1),
        (Op.MOD, -7, 2, -1),       # sign follows dividend
        (Op.AND, 0b1100, 0b1010, 0b1000),
        (Op.OR, 0b1100, 0b1010, 0b1110),
        (Op.XOR, 0b1100, 0b1010, 0b0110),
        (Op.SHL, 1, 10, 1024),
        (Op.SHR, 1024, 3, 128),
        (Op.EQ, 5, 5, 1),
        (Op.NE, 5, 5, 0),
        (Op.LT, -1, 0, 1),
        (Op.LE, 0, 0, 1),
        (Op.GT, 1, 2, 0),
        (Op.GE, 2, 2, 1),
    ])
    def test_binary_ops(self, op, a, b, expected):
        result = run_expr([Instr(Op.PUSH, a), Instr(Op.PUSH, b), Instr(op)])
        assert result == expected

    def test_overflow_wraps(self):
        big = (1 << 63) - 1
        assert run_expr([Instr(Op.PUSH, big), Instr(Op.PUSH, 1),
                         Instr(Op.ADD)]) == -(1 << 63)

    def test_neg_not(self):
        assert run_expr([Instr(Op.PUSH, 5), Instr(Op.NEG)]) == -5
        assert run_expr([Instr(Op.PUSH, 0), Instr(Op.NOT)]) == 1
        assert run_expr([Instr(Op.PUSH, 7), Instr(Op.NOT)]) == 0

    def test_dup_swap_drop(self):
        assert run_expr([Instr(Op.PUSH, 3), Instr(Op.DUP),
                         Instr(Op.MUL)]) == 9
        assert run_expr([Instr(Op.PUSH, 1), Instr(Op.PUSH, 2),
                         Instr(Op.SWAP), Instr(Op.SUB)]) == 1
        assert run_expr([Instr(Op.PUSH, 8), Instr(Op.PUSH, 9),
                         Instr(Op.DROP)]) == 8

    def test_div_by_zero_faults(self):
        mm = MiniMachine()
        mm.load(program((Op.PUSH, 1), (Op.PUSH, 0), (Op.DIV,)))
        with pytest.raises(Fault):
            mm.run()


class TestMemoryOps:
    def test_load_store(self):
        mm = MiniMachine()
        mm.poke_word(DATA_BASE + 64, 4242)
        mm.load(program(
            (Op.PUSH, DATA_BASE),           # dst addr
            (Op.PUSH, DATA_BASE + 64),
            (Op.LOAD,),
            (Op.STORE,),
            (Op.PUSH, 0), (Op.HALT,),
        ))
        mm.run()
        assert mm.peek_word(DATA_BASE) == 4242

    def test_byte_ops(self):
        mm = MiniMachine()
        mm.load(program(
            (Op.PUSH, DATA_BASE), (Op.PUSH, 0xAB), (Op.STORE1,),
            (Op.PUSH, DATA_BASE + 8), (Op.PUSH, DATA_BASE), (Op.LOAD1,),
            (Op.STORE,),
            (Op.PUSH, 0), (Op.HALT,),
        ))
        mm.run()
        assert mm.peek_word(DATA_BASE + 8) == 0xAB

    def test_memcpy(self):
        mm = MiniMachine()
        mm.poke_bytes(DATA_BASE, b"0123456789")
        mm.load(program(
            (Op.PUSH, DATA_BASE + 100), (Op.PUSH, DATA_BASE), (Op.PUSH, 10),
            (Op.MEMCPY,),
            (Op.PUSH, 0), (Op.HALT,),
        ))
        mm.run()
        assert mm.peek_bytes(DATA_BASE + 100, 10) == b"0123456789"

    def test_store_to_unmapped_faults(self):
        mm = MiniMachine()
        mm.load(program((Op.PUSH, 0x9999_0000), (Op.PUSH, 1), (Op.STORE,)))
        with pytest.raises(PageFault):
            mm.run()

    def test_exec_of_data_page_faults(self):
        mm = MiniMachine()
        mm.load(program((Op.JMP, DATA_BASE),))
        with pytest.raises(PageFault) as ei:
            mm.run()
        assert ei.value.kind == "x"


class TestControlFlow:
    def test_jmp_skips(self):
        base = TEXT_BASE
        mm = MiniMachine()
        mm.load(program(
            (Op.PUSH, DATA_BASE),
            (Op.JMP, base + 4 * INSTR_SIZE),
            (Op.PUSH, 111), (Op.HALT,),       # skipped
            (Op.PUSH, 7), (Op.STORE,),
            (Op.PUSH, 0), (Op.HALT,),
        ))
        assert mm.run() == 0
        assert mm.peek_word(DATA_BASE) == 7

    def test_conditional_branches(self):
        # while i < 10: i++  -> result 10
        asm = Asm()
        loop = asm.new_label()
        done = asm.new_label()
        asm.emit(Op.PUSH, 0)                  # i on operand stack
        asm.place(loop)
        asm.emit(Op.DUP)
        asm.emit(Op.PUSH, 10)
        asm.emit(Op.LT)
        asm.branch(Op.JZ, done)
        asm.emit(Op.PUSH, 1)
        asm.emit(Op.ADD)
        asm.branch(Op.JMP, loop)
        asm.place(done)
        body = resolve(asm.finish(), TEXT_BASE + INSTR_SIZE, {})
        # The body is resolved relative to its position after the first
        # instruction (PUSH DATA_BASE) of the wrapper below.
        result = run_expr(body)
        assert result == 10

    def test_call_enter_ret(self):
        """main calls square(6), stores the result."""
        mm = MiniMachine()
        main_addr = TEXT_BASE
        square_addr = TEXT_BASE + 7 * INSTR_SIZE
        mm.load(program(
            # main
            (Op.PUSH, DATA_BASE),
            (Op.PUSH, 6),
            (Op.CALL, square_addr),
            (Op.STORE,),
            (Op.PUSH, 0), (Op.HALT,),
            (Op.NOP,),
            # square(x): x * x
            (Op.ENTER, 1, 1),
            (Op.LOADL, 0), (Op.LOADL, 0), (Op.MUL,),
            (Op.RET,),
        ))
        assert mm.run(main_addr) == 0
        assert mm.peek_word(DATA_BASE) == 36

    def test_recursion(self):
        """fact(10) via recursion exercises frame save/restore."""
        mm = MiniMachine()
        fact = TEXT_BASE + 6 * INSTR_SIZE
        mm.load(program(
            (Op.PUSH, DATA_BASE),
            (Op.PUSH, 10),
            (Op.CALL, fact),
            (Op.STORE,),
            (Op.PUSH, 0), (Op.HALT,),
            # fact(n): n <= 1 ? 1 : n * fact(n-1)
            (Op.ENTER, 1, 1),
            (Op.LOADL, 0), (Op.PUSH, 1), (Op.LE,),
            (Op.JZ, fact + 7 * INSTR_SIZE),
            (Op.PUSH, 1), (Op.RET,),
            (Op.LOADL, 0),
            (Op.LOADL, 0), (Op.PUSH, 1), (Op.SUB,),
            (Op.CALL, fact),
            (Op.MUL,),
            (Op.RET,),
        ))
        assert mm.run() == 0
        assert mm.peek_word(DATA_BASE) == 3628800

    def test_top_level_ret_exits_goroutine(self):
        mm = MiniMachine()
        mm.load(program((Op.RET,)))
        mm.cpu.pc = TEXT_BASE
        with pytest.raises(GoroutineExit):
            mm.interp.run_slice(mm.cpu, 1)


class TestDispatchTable:
    def test_every_specialized_pair_is_fused(self):
        """A hand-inlined handler keyed by a pair the peephole never
        forms would be silently dead."""
        assert set(_FUSED_SPECIAL) <= set(FUSED_PAIRS)


class TestStackDiscipline:
    def test_stack_overflow_detected(self):
        """Unbounded recursion hits the stack segment limit."""
        mm = MiniMachine()
        f = TEXT_BASE
        mm.load(program(
            (Op.ENTER, 0, 64),
            (Op.CALL, f),
            (Op.RET,),
        ))
        from repro.errors import ConfigError
        with pytest.raises(ConfigError, match="stack overflow"):
            mm.run()

    def test_locals_are_in_memory(self):
        """A local store is observable at the frame's memory address."""
        mm = MiniMachine()
        mm.load(program(
            (Op.ENTER, 0, 2),
            (Op.PUSH, 99), (Op.STOREL, 0),
            (Op.PUSH, 0), (Op.HALT,),
        ))
        mm.run()
        # Entry frame: fp = stack base; locals at fp+16.
        assert mm.peek_word(mm.cpu.stack.base + 16) == 99


class TestSyscallInstruction:
    def test_getuid_via_syscall(self):
        from repro.os import syscalls as sc
        mm = MiniMachine()
        mm.load(program(
            (Op.PUSH, DATA_BASE),
            (Op.PUSH, sc.SYS_GETUID),
            (Op.SYSCALL, 0),
            (Op.STORE,),
            (Op.PUSH, 0), (Op.HALT,),
        ))
        mm.run()
        assert mm.peek_word(DATA_BASE) == 1000

    def test_write_to_stdout(self):
        from repro.os import syscalls as sc
        mm = MiniMachine()
        mm.poke_bytes(DATA_BASE, b"hi")
        mm.load(program(
            (Op.PUSH, 1), (Op.PUSH, DATA_BASE), (Op.PUSH, 2),
            (Op.PUSH, sc.SYS_WRITE),
            (Op.SYSCALL, 3),
            (Op.DROP,),
            (Op.PUSH, 0), (Op.HALT,),
        ))
        mm.run()
        assert bytes(mm.kernel.stdout) == b"hi"


class TestPkruInstructions:
    def test_wrpkru_rdpkru(self):
        mm = MiniMachine()
        mm.load(program(
            # Keep key 0 readable/writable (low bits clear) so the
            # store below still passes the PKRU check.
            (Op.PUSH, 0x50), (Op.WRPKRU,),
            (Op.PUSH, DATA_BASE), (Op.RDPKRU,), (Op.STORE,),
            (Op.PUSH, 0), (Op.HALT,),
        ))
        mm.run()
        assert mm.peek_word(DATA_BASE) == 0x50

    def test_wrpkru_charges_time(self):
        from repro.hw.clock import COSTS
        mm = MiniMachine()
        mm.load(program((Op.PUSH, 0), (Op.WRPKRU,), (Op.PUSH, 0), (Op.HALT,)))
        before = mm.clock.now_ns
        mm.run()
        assert mm.clock.now_ns - before >= COSTS.WRPKRU


class TestEncoding:
    def test_roundtrip(self):
        for instr in [Instr(Op.PUSH, -5), Instr(Op.ENTER, 3, 9),
                      Instr(Op.CALL, 0x123450), Instr(Op.RET)]:
            assert Instr.decode(instr.encode()) == instr

    def test_symbolic_encode_rejected(self):
        from repro.errors import LinkError
        with pytest.raises(LinkError):
            Instr(Op.CALL, SymRef("main.main")).encode()

    def test_resolve_symbols_and_labels(self):
        instrs = [Instr(Op.CALL, SymRef("foo", 8)),
                  Instr(Op.JMP, LabelRef(0))]
        out = resolve(instrs, 0x1000, {"foo": 0x2000})
        assert out[0].imm1 == 0x2008
        assert out[1].imm1 == 0x1000

    def test_resolve_undefined_symbol(self):
        from repro.errors import LinkError
        with pytest.raises(LinkError):
            resolve([Instr(Op.CALL, SymRef("nope"))], 0, {})
