"""Tests for the micro-op model."""

import copy
import pickle

import pytest

from repro.cpu.isa import NUM_ARCH_REGS, MicroOp, OpClass
from repro.errors import ConfigurationError


class TestMicroOp:
    def test_alu_op(self):
        uop = MicroOp(OpClass.ALU, pc=0x100, dest=1, srcs=(2, 3))
        assert uop.dest == 1

    def test_load_requires_address(self):
        with pytest.raises(ConfigurationError):
            MicroOp(OpClass.LOAD, pc=0, dest=1)

    def test_store_requires_address(self):
        with pytest.raises(ConfigurationError):
            MicroOp(OpClass.STORE, pc=0, srcs=(1,))

    def test_branch_requires_target(self):
        with pytest.raises(ConfigurationError):
            MicroOp(OpClass.BRANCH, pc=0, taken=True)

    def test_register_bounds(self):
        with pytest.raises(ConfigurationError):
            MicroOp(OpClass.ALU, pc=0, dest=NUM_ARCH_REGS)
        with pytest.raises(ConfigurationError):
            MicroOp(OpClass.ALU, pc=0, srcs=(NUM_ARCH_REGS,))

    def test_negative_pc_rejected(self):
        with pytest.raises(ConfigurationError):
            MicroOp(OpClass.ALU, pc=-4)

    def test_immutable(self):
        uop = MicroOp(OpClass.ALU, pc=0)
        with pytest.raises(AttributeError):
            uop.pc = 4


class TestMicroOpApi:
    """The record's value semantics, pinned on the dataclass it replaced."""

    def test_fields_in_order_with_defaults(self):
        uop = MicroOp(OpClass.LOAD, 8, 1, (2,), 64)
        assert (uop.opclass, uop.pc, uop.dest, uop.srcs, uop.address,
                uop.taken, uop.target) == (OpClass.LOAD, 8, 1, (2,), 64, False, None)
        nop = MicroOp(OpClass.NOP, 0)
        assert (nop.dest, nop.srcs, nop.address, nop.taken, nop.target) == (
            None, (), None, False, None
        )

    def test_equal_fields_equal_and_hash_alike(self):
        a = MicroOp(OpClass.BRANCH, pc=4, srcs=(1,), taken=True, target=8)
        b = MicroOp(OpClass.BRANCH, pc=4, srcs=(1,), taken=True, target=8)
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_any_differing_field_breaks_equality(self):
        base = dict(opclass=OpClass.LOAD, pc=4, dest=1, srcs=(1,), address=64)
        uop = MicroOp(**base)
        for name, value in (
            ("opclass", OpClass.STORE), ("pc", 8), ("dest", 2),
            ("srcs", (2,)), ("address", 128),
        ):
            assert uop != MicroOp(**{**base, name: value}), name
        assert uop != (OpClass.LOAD, 4, 1, (1,), 64, False, None)

    def test_repr_shows_every_field(self):
        uop = MicroOp(OpClass.ALU, pc=0x100, dest=1, srcs=(2, 3))
        assert repr(uop) == (
            "MicroOp(opclass=<OpClass.ALU: 'alu'>, pc=256, dest=1, "
            "srcs=(2, 3), address=None, taken=False, target=None)"
        )

    def test_fields_cannot_be_deleted_or_added(self):
        uop = MicroOp(OpClass.ALU, pc=0)
        with pytest.raises(AttributeError):
            del uop.pc
        with pytest.raises(AttributeError):
            uop.extra = 1
        assert uop.pc == 0

    def test_pickle_and_copy_round_trip(self):
        uop = MicroOp(OpClass.STORE, pc=12, srcs=(3,), address=256)
        assert pickle.loads(pickle.dumps(uop)) == uop
        assert copy.copy(uop) == uop
        assert copy.deepcopy(uop) == uop

    @pytest.mark.parametrize(
        ("kwargs", "message"),
        [
            (dict(opclass=OpClass.ALU, pc=-4), "pc must be non-negative"),
            (dict(opclass=OpClass.ALU, pc=0, srcs=(1, NUM_ARCH_REGS)),
             f"source register {NUM_ARCH_REGS} out of range"),
            (dict(opclass=OpClass.ALU, pc=0, srcs=(-1,)),
             "source register -1 out of range"),
            (dict(opclass=OpClass.ALU, pc=0, dest=NUM_ARCH_REGS),
             f"dest register {NUM_ARCH_REGS} out of range"),
            (dict(opclass=OpClass.LOAD, pc=0, dest=1), "load requires an address"),
            (dict(opclass=OpClass.STORE, pc=0), "store requires an address"),
            (dict(opclass=OpClass.BRANCH, pc=0, taken=True),
             "branch requires a target"),
        ],
    )
    def test_check_messages(self, kwargs, message):
        with pytest.raises(ConfigurationError) as info:
            MicroOp(**kwargs)
        assert str(info.value) == message
