"""Edge-case tests for the interpreter, kernel, and runtime services."""

import pytest

from repro.errors import Fault, MachineHalt
from repro.isa import Instr, Op
from repro.runtime.runtime import RT

from tests.harness import DATA_BASE, MiniMachine, TEXT_BASE


def program(*ops):
    return [Instr(op, imm1, imm2) for op, imm1, imm2 in
            ((o + (0,) * (3 - len(o))) for o in ops)]


class TestInterpreterEdges:
    def test_halt_with_code(self):
        mm = MiniMachine()
        mm.load(program((Op.PUSH, 7), (Op.HALT,)))
        assert mm.run() == 7
        assert mm.cpu.halted and mm.cpu.exit_code == 7

    def test_negative_memcpy_faults(self):
        mm = MiniMachine()
        mm.load(program(
            (Op.PUSH, DATA_BASE), (Op.PUSH, DATA_BASE), (Op.PUSH, -4),
            (Op.MEMCPY,)))
        with pytest.raises(Fault, match="negative"):
            mm.run()

    def test_unknown_rtcall_faults(self):
        mm = MiniMachine()
        mm.cpu.rtcall_handler = lambda cpu, s, a: (_ for _ in ()).throw(
            Fault("exec", f"unknown runtime service {s}"))
        mm.load(program((Op.RTCALL, 999, 0),))
        with pytest.raises(Fault, match="999"):
            mm.run()

    def test_missing_lbcall_handler(self):
        mm = MiniMachine()
        mm.load(program((Op.LBCALL, 0, 0),))
        with pytest.raises(Fault, match="LitterBox"):
            mm.run()

    def test_shift_counts_masked(self):
        """Shift counts wrap at 64 like x86."""
        mm = MiniMachine()
        mm.load(program(
            (Op.PUSH, DATA_BASE),
            (Op.PUSH, 1), (Op.PUSH, 65), (Op.SHL,),
            (Op.STORE,), (Op.PUSH, 0), (Op.HALT,),
        ))
        mm.run()
        assert mm.peek_word(DATA_BASE) == 2  # 1 << (65 & 63)

    def test_step_after_halt_state(self):
        mm = MiniMachine()
        mm.load(program((Op.PUSH, 0), (Op.HALT,)))
        mm.cpu.pc = TEXT_BASE
        mm.cpu.operands.clear()
        with pytest.raises(MachineHalt):
            mm.interp.run_slice(mm.cpu, 1)
            mm.interp.run_slice(mm.cpu, 1)

    def test_fetch_decodes_from_memory(self):
        """Wipe the decode cache: instructions decode from raw bytes."""
        mm = MiniMachine()
        mm.load(program((Op.PUSH, 11), (Op.PUSH, 31), (Op.ADD,),
                        (Op.PUSH, DATA_BASE), (Op.SWAP,), (Op.STORE,),
                        (Op.PUSH, 0), (Op.HALT,)))
        mm.interp.code.clear()
        assert mm.run() == 0
        assert mm.peek_word(DATA_BASE) == 42


class TestKernelEdges:
    def test_rename_and_mkdir_via_syscall(self):
        from repro.os import syscalls as sc
        mm = MiniMachine()
        mm.kernel.fs.add_file("/old", b"data")
        mm.poke_bytes(DATA_BASE, b"/old")
        mm.poke_bytes(DATA_BASE + 16, b"/new")
        result = mm.kernel.syscall(
            sc.SYS_RENAME, (DATA_BASE, 4, DATA_BASE + 16, 4),
            mm.cpu.ctx, 0)
        assert result == 0
        assert mm.kernel.fs.read_file("/new") == b"data"

    def test_stat(self):
        from repro.os import syscalls as sc
        mm = MiniMachine()
        mm.kernel.fs.add_file("/f", b"12345")
        mm.poke_bytes(DATA_BASE, b"/f")
        assert mm.kernel.syscall(sc.SYS_STAT, (DATA_BASE, 2),
                                 mm.cpu.ctx, 0) == 5

    def test_shutdown_closes_stream(self):
        from repro.os import syscalls as sc
        from repro.os.net import ip_of
        mm = MiniMachine()
        k = mm.kernel
        server = k.syscall(sc.SYS_SOCKET, (2, 1, 0), mm.cpu.ctx, 0)
        k.syscall(sc.SYS_BIND, (server, 9100), mm.cpu.ctx, 0)
        k.syscall(sc.SYS_LISTEN, (server, 4), mm.cpu.ctx, 0)
        client = k.syscall(sc.SYS_SOCKET, (2, 1, 0), mm.cpu.ctx, 0)
        k.syscall(sc.SYS_CONNECT, (client, ip_of("127.0.0.1"), 9100),
                  mm.cpu.ctx, 0)
        conn = k.syscall(sc.SYS_ACCEPT, (server,), mm.cpu.ctx, 0)
        assert k.syscall(sc.SYS_SHUTDOWN, (conn, 2), mm.cpu.ctx, 0) == 0
        mm.poke_bytes(DATA_BASE, b"x")
        assert k.syscall(sc.SYS_SENDTO, (client, DATA_BASE, 1),
                         mm.cpu.ctx, 0) < 0

    def test_clock_gettime_reflects_simulated_time(self):
        from repro.os import syscalls as sc
        mm = MiniMachine()
        t1 = mm.kernel.syscall(sc.SYS_CLOCK_GETTIME, (), mm.cpu.ctx, 0)
        mm.clock.charge(5_000)
        t2 = mm.kernel.syscall(sc.SYS_CLOCK_GETTIME, (), mm.cpu.ctx, 0)
        assert t2 - t1 >= 5_000


class TestRuntimeServiceEdges:
    def _machine(self):
        from tests.fig1 import build_image
        from repro.machine import Machine
        return Machine(build_image(), "baseline")

    def test_atoi_garbage_returns_zero(self):
        machine = self._machine()
        ctx = machine.litterbox.trusted_ctx
        addr = machine.runtime.new_string(ctx, "main", b"not-a-number")
        result = machine.runtime.dispatch(machine.cpu, RT.ATOI, (addr,))
        assert result == 0

    def test_str_cmp_ordering(self):
        machine = self._machine()
        ctx = machine.litterbox.trusted_ctx
        a = machine.runtime.new_string(ctx, "main", b"apple")
        b = machine.runtime.new_string(ctx, "main", b"banana")
        assert machine.runtime.dispatch(machine.cpu, RT.STR_CMP, (a, b)) == -1
        assert machine.runtime.dispatch(machine.cpu, RT.STR_CMP, (b, a)) == 1
        assert machine.runtime.dispatch(machine.cpu, RT.STR_CMP, (a, a)) == 0

    def test_substring_bounds_fault(self):
        machine = self._machine()
        ctx = machine.litterbox.trusted_ctx
        s = machine.runtime.new_string(ctx, "main", b"abc")
        with pytest.raises(Fault, match="bounds"):
            machine.runtime.dispatch(machine.cpu, RT.STR_SUB,
                                     (0, s, 2, 9))

    def test_slice_elem_size_validated(self):
        machine = self._machine()
        with pytest.raises(Fault, match="element size"):
            machine.runtime.dispatch(machine.cpu, RT.SLICE_NEW,
                                     (0, 3, 4, 4))

    def test_corrupt_string_header_detected(self):
        machine = self._machine()
        ctx = machine.litterbox.trusted_ctx
        addr = machine.allocator.alloc("main", 16)
        machine.mmu.write_word(ctx, addr, -5, charge=False)
        with pytest.raises(Fault, match="corrupt"):
            machine.runtime.dispatch(machine.cpu, RT.STR_EQ, (addr, addr))
