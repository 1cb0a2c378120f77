"""Tests for the (S)NI gadget checker."""

import numpy as np
import pytest

from repro.errors import MaskingError
from repro.leakage.sni import (
    GadgetSpec,
    SniChecker,
    _dependence,
    dom_and_gadget,
    unprotected_and_gadget,
)
from repro.masking.dom import dom_and
from repro.masking.randomness import MaskBus
from repro.netlist.builder import CircuitBuilder


class TestDomAnd:
    def test_dom_and_is_1_sni_on_stable_values(self):
        """The property De Meyer et al. proved by hand -- and it holds."""
        result = SniChecker(dom_and_gadget(), robust=False).check(order=1)
        assert result.is_ni
        assert result.is_sni
        assert not result.ni_violations

    def test_dom_and_robust_sni_fails_at_outputs(self):
        """Glitch-extended output probes see both product registers: the
        classic reason DOM-indep needs output registers for composition --
        and the kind of gap between hand proofs on stable values and
        extended probing models that the paper is about."""
        result = SniChecker(dom_and_gadget(), robust=True).check(order=1)
        assert result.is_ni  # single robust probes still leak nothing
        assert not result.is_sni
        violating = {v.probe_names[0] for v in result.sni_violations}
        assert any("z" in name for name in violating)

    def test_unregistered_variant_still_standard_sni(self):
        result = SniChecker(
            dom_and_gadget(register_inner=False), robust=False
        ).check(order=1)
        assert result.is_sni


class TestBrokenGadget:
    def test_unprotected_and_fails_ni(self):
        result = SniChecker(unprotected_and_gadget(), robust=False).check(1)
        assert not result.is_ni
        assert not result.is_sni
        names = {v.probe_names[0] for v in result.ni_violations}
        assert "x_clear" in names or "product" in names

    def test_summary_format(self):
        result = SniChecker(unprotected_and_gadget(), robust=False).check(1)
        text = result.summary()
        assert "NI=NO" in text
        assert "standard" in text


class TestDirectComposition:
    def build_pair(self, shared_mask: bool) -> GadgetSpec:
        """Two DOM-ANDs sharing a mask, multiplied directly in layer 2.

        The second layer multiplies the two same-masked results without
        re-blinding first, so the reuse is visible even to *standard*
        single probes -- the strongest form of the failure mode.
        """
        builder = CircuitBuilder("pair")
        x = [builder.input("x0"), builder.input("x1")]
        y = [builder.input("y0"), builder.input("y1")]
        u = [builder.input("u0"), builder.input("u1")]
        v = [builder.input("v0"), builder.input("v1")]
        bus = MaskBus(builder)
        r1 = bus.fresh("r1")
        r3 = r1 if shared_mask else bus.fresh("r3")
        z1 = dom_and(builder, x, y, {(0, 1): r1}, "g1")
        z2 = dom_and(builder, u, v, {(0, 1): r3}, "g3")
        r5 = bus.fresh("r5")
        w = dom_and(builder, z1, z2, {(0, 1): r5}, "g5")
        outs = [builder.output(net, f"w{i}") for i, net in enumerate(w)]
        netlist = builder.build()
        return GadgetSpec(
            netlist=netlist,
            input_shares=[x, y, u, v],
            mask_nets=bus.fresh_input_nets,
            output_shares=outs,
            settle_cycles=5,
        )

    def test_fresh_masks_compose_at_order_one(self):
        gadget = self.build_pair(shared_mask=False)
        result = SniChecker(gadget, robust=True).check(order=1)
        assert result.is_ni

    def test_shared_mask_breaks_even_standard_ni(self):
        """g5's inner product computes (a xor r)(b xor r): the reuse is
        already visible in the stable value of a single wire."""
        gadget = self.build_pair(shared_mask=True)
        result = SniChecker(gadget, robust=False).check(order=1)
        assert not result.is_ni
        names = {v.probe_names[0] for v in result.ni_violations}
        assert any(name.startswith("g5.") for name in names)


class TestKroneckerSliceComposition:
    """The paper's actual topology in miniature.

    Layer 1: G1 and G3, optionally with r1 = r3.  Layer 2: G5 and G6
    re-blind their results with fresh masks before G7 multiplies them.
    Classic stable-value NI is clean either way (the re-blinding hides the
    reuse from single wire values -- this is why the pen-and-paper proof
    passed), while glitch-extended probes on G7's products observe the
    layer-2 registers jointly and catch the reuse (Eq. (8)).
    """

    @staticmethod
    def build(shared_mask: bool) -> GadgetSpec:
        builder = CircuitBuilder("slice")
        x = [builder.input("x0"), builder.input("x1")]
        y = [builder.input("y0"), builder.input("y1")]
        u = [builder.input("u0"), builder.input("u1")]
        v = [builder.input("v0"), builder.input("v1")]
        s = [builder.input("s0"), builder.input("s1")]
        t = [builder.input("t0"), builder.input("t1")]
        bus = MaskBus(builder)
        r1 = bus.fresh("r1")
        r3 = r1 if shared_mask else bus.fresh("r3")
        r5 = bus.fresh("r5")
        r6 = bus.fresh("r6")
        r7 = bus.fresh("r7")
        z1 = dom_and(builder, x, y, {(0, 1): r1}, "g1")
        z3 = dom_and(builder, u, v, {(0, 1): r3}, "g3")
        w5 = dom_and(builder, z1, s, {(0, 1): r5}, "g5")
        w6 = dom_and(builder, z3, t, {(0, 1): r6}, "g6")
        out = dom_and(builder, w5, w6, {(0, 1): r7}, "g7")
        outs = [builder.output(net, f"o{i}") for i, net in enumerate(out)]
        netlist = builder.build()
        return GadgetSpec(
            netlist=netlist,
            input_shares=[x, y, u, v, s, t],
            mask_nets=bus.fresh_input_nets,
            output_shares=outs,
            settle_cycles=6,
        )

    def test_standard_ni_clean_despite_reuse(self):
        gadget = self.build(shared_mask=True)
        result = SniChecker(gadget, robust=False).check(order=1)
        assert result.is_ni

    def test_robust_probes_catch_the_reuse(self):
        gadget = self.build(shared_mask=True)
        result = SniChecker(gadget, robust=True).check(order=1)
        assert not result.is_ni
        names = {v.probe_names[0] for v in result.ni_violations}
        assert any(name.startswith("g7.") for name in names)

    def test_fresh_masks_pass_robust_ni(self):
        gadget = self.build(shared_mask=False)
        result = SniChecker(gadget, robust=True).check(order=1)
        assert result.is_ni


class TestLimits:
    def test_enumeration_budget_enforced(self):
        builder = CircuitBuilder("big")
        shares = [
            [builder.input(f"i{k}_{i}") for i in range(2)] for k in range(12)
        ]
        acc = shares[0][0]
        for group in shares:
            for net in group:
                acc = builder.xor(acc, net)
        builder.output(acc, "o")
        gadget = GadgetSpec(
            netlist=builder.build(),
            input_shares=shares,
            mask_nets=[],
            output_shares=[builder.netlist.net("o")],
        )
        with pytest.raises(MaskingError):
            SniChecker(gadget)


class TestDependenceMask:
    """``dependence & ~S == 0`` against the index projection it replaces."""

    @staticmethod
    def _projection_simulatable(digest, selected_bits):
        indices = np.arange(digest.size, dtype=np.uint64)
        projected = indices & np.uint64(selected_bits)
        return bool(np.all(digest == digest[projected.astype(np.int64)]))

    @pytest.mark.parametrize("n_bits", [0, 1, 3, 6])
    def test_matches_projection_on_every_subset(self, n_bits):
        rng = np.random.default_rng(n_bits)
        size = 1 << n_bits
        indices = np.arange(size)
        digests = [np.zeros(size, dtype=np.uint64)]
        for _ in range(30):
            # A random function of a random bit subset, with few values so
            # that some bits of the subset do not matter after all.
            support = int(rng.integers(0, size))
            values = rng.integers(0, 3, size=size).astype(np.uint64)
            digests.append(values[indices & support])
            digests.append(rng.integers(0, 2, size=size).astype(np.uint64))
        for digest in digests:
            dependence = _dependence(digest)
            for selected in range(size):
                assert (dependence & ~selected == 0) == (
                    self._projection_simulatable(digest, selected)
                )
