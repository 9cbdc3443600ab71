"""Unit tests for the layer-shape substrate (Table I semantics)."""

import pickle

import pytest

from repro.nn.layer import LayerShape, LayerType, conv_layer, fc_layer, pool_layer


class TestConstruction:
    def test_conv_constructor(self):
        layer = conv_layer("c", H=15, R=3, E=13, C=4, M=8)
        assert layer.layer_type is LayerType.CONV
        assert layer.U == 1 and layer.N == 1

    def test_fc_constructor_sets_degenerate_shape(self):
        layer = fc_layer("f", C=16, M=32, R=6)
        assert layer.H == layer.R == 6
        assert layer.E == 1 and layer.U == 1
        assert layer.is_fc

    def test_pool_constructor(self):
        layer = pool_layer("p", H=55, R=3, E=27, C=96, U=2)
        assert layer.layer_type is LayerType.POOL

    def test_inconsistent_e_rejected(self):
        with pytest.raises(ValueError, match="expected E"):
            LayerShape(name="bad", H=15, R=3, E=12, C=4, M=8)

    def test_filter_larger_than_ifmap_rejected(self):
        with pytest.raises(ValueError, match="exceeds ifmap"):
            LayerShape(name="bad", H=3, R=5, E=1, C=1, M=1)

    @pytest.mark.parametrize("field", ["H", "R", "E", "C", "M", "U", "N"])
    def test_nonpositive_parameter_rejected(self, field):
        kwargs = dict(name="bad", H=15, R=3, E=13, C=4, M=8, U=1, N=1)
        kwargs[field] = 0
        with pytest.raises(ValueError, match="positive integer"):
            LayerShape(**kwargs)

    def test_non_integer_parameter_rejected(self):
        with pytest.raises(ValueError, match="positive integer"):
            LayerShape(name="bad", H=15.0, R=3, E=13, C=4, M=8)

    def test_fc_shape_constraints_enforced(self):
        with pytest.raises(ValueError, match="FC layers require"):
            LayerShape(name="bad", H=15, R=3, E=13, C=4, M=8,
                       layer_type=LayerType.FC)

    def test_stride_consistency(self):
        layer = conv_layer("s", H=227, R=11, E=55, C=3, M=96, U=4)
        assert (layer.H - layer.R + layer.U) // layer.U == layer.E


class TestDerivedCounts:
    def test_macs(self):
        layer = conv_layer("c", H=15, R=3, E=13, C=4, M=8, N=2)
        assert layer.macs == 2 * 8 * 4 * 13 * 13 * 3 * 3

    def test_data_volumes(self):
        layer = conv_layer("c", H=15, R=3, E=13, C=4, M=8, N=2)
        assert layer.ifmap_words == 2 * 4 * 15 * 15
        assert layer.filter_words == 8 * 4 * 3 * 3
        assert layer.ofmap_words == 2 * 8 * 13 * 13

    def test_filter_reuse_is_n_e_squared(self):
        layer = conv_layer("c", H=15, R=3, E=13, C=4, M=8, N=2)
        assert layer.filter_reuse == 2 * 13 * 13

    def test_psum_accumulations_is_c_r_squared(self):
        layer = conv_layer("c", H=15, R=3, E=13, C=4, M=8)
        assert layer.psum_accumulations == 4 * 9

    def test_ifmap_reuse_consistency(self):
        """ifmap_reuse * ifmap_words == total MACs (exact identity)."""
        layer = conv_layer("c", H=31, R=5, E=27, C=48, M=256, N=16)
        assert layer.ifmap_reuse * layer.ifmap_words == pytest.approx(layer.macs)

    def test_fc_reuse_degenerates(self):
        layer = fc_layer("f", C=16, M=32, R=6, N=4)
        assert layer.filter_reuse == 4            # N * E^2 with E = 1
        assert layer.ifmap_reuse == pytest.approx(32)  # M filters
        assert layer.psum_accumulations == 16 * 36

    def test_with_batch_returns_new_shape(self):
        layer = conv_layer("c", H=15, R=3, E=13, C=4, M=8)
        batched = layer.with_batch(64)
        assert batched.N == 64 and layer.N == 1
        assert batched.macs == 64 * layer.macs

    def test_describe_mentions_name_and_macs(self):
        layer = conv_layer("c", H=15, R=3, E=13, C=4, M=8)
        text = layer.describe()
        assert "c" in text and "CONV" in text

    def test_shapes_are_hashable_and_frozen(self):
        layer = conv_layer("c", H=15, R=3, E=13, C=4, M=8)
        assert hash(layer)
        with pytest.raises(AttributeError):
            layer.N = 3


class TestGroupsAndDilation:
    """The modern-workload extensions: grouped and dilated convolution."""

    def test_defaults_are_dense(self):
        layer = conv_layer("c", H=15, R=3, E=13, C=4, M=8)
        assert layer.groups == 1 and layer.dilation == 1
        assert not layer.is_depthwise

    def test_grouped_fields_and_derived_counts(self):
        layer = conv_layer("g", H=15, R=3, E=13, C=8, M=16, groups=4)
        assert layer.channels_per_group == 2
        assert layer.filters_per_group == 4
        # MACs, weights and psum depth all shrink by 1/G vs dense.
        dense = conv_layer("d", H=15, R=3, E=13, C=8, M=16)
        assert layer.macs * 4 == dense.macs
        assert layer.filter_words * 4 == dense.filter_words
        assert layer.psum_accumulations * 4 == dense.psum_accumulations

    def test_depthwise_detection(self):
        dw = conv_layer("dw", H=15, R=3, E=13, C=8, M=8, groups=8)
        assert dw.is_depthwise
        assert dw.channels_per_group == 1 and dw.filters_per_group == 1

    def test_per_group_sub_shape(self):
        layer = conv_layer("g", H=15, R=3, E=13, C=8, M=16, N=2, groups=4)
        sub = layer.per_group()
        assert (sub.C, sub.M, sub.groups) == (2, 4, 1)
        assert (sub.H, sub.R, sub.E, sub.U, sub.N) == (15, 3, 13, 1, 2)
        assert sub.macs * 4 == layer.macs
        # Dense layers return themselves (no copy churn).
        dense = conv_layer("d", H=15, R=3, E=13, C=8, M=16)
        assert dense.per_group() is dense

    def test_effective_filter_size(self):
        layer = conv_layer("dil", H=19, R=3, E=15, C=4, M=8, dilation=2)
        assert layer.R_eff == 5
        assert (layer.H - layer.R_eff + layer.U) // layer.U == layer.E
        # Tap-based counts are unchanged by dilation.
        assert layer.macs == 8 * 4 * 15 * 15 * 9

    def test_groups_must_divide_channels_and_filters(self):
        with pytest.raises(ValueError, match="groups"):
            conv_layer("bad", H=15, R=3, E=13, C=6, M=8, groups=4)
        with pytest.raises(ValueError, match="groups"):
            conv_layer("bad", H=15, R=3, E=13, C=8, M=6, groups=4)

    def test_dilated_filter_past_ifmap_rejected(self):
        # R_eff = 4*(3-1)+1 = 9 > H = 7: both the raw constructor and
        # the convenience builder must refuse identically.
        with pytest.raises(ValueError, match="exceeds ifmap"):
            LayerShape(name="bad", H=7, R=3, E=5, C=1, M=1, dilation=4)
        with pytest.raises(ValueError, match="exceeds ifmap"):
            conv_layer("bad", H=7, R=3, E=5, C=1, M=1, dilation=4)

    def test_dilation_changes_expected_e(self):
        with pytest.raises(ValueError, match="expected E"):
            conv_layer("bad", H=19, R=3, E=17, C=4, M=8, dilation=2)

    def test_groups_dilation_rejected_on_fc(self):
        with pytest.raises(ValueError, match="CONV"):
            LayerShape(name="bad", H=6, R=6, E=1, C=16, M=32,
                       layer_type=LayerType.FC, groups=2)
        with pytest.raises(ValueError, match="CONV"):
            LayerShape(name="bad", H=6, R=6, E=1, C=16, M=32,
                       layer_type=LayerType.FC, dilation=2)

    @pytest.mark.parametrize("field", ["groups", "dilation"])
    def test_nonpositive_extension_rejected(self, field):
        kwargs = dict(name="bad", H=15, R=3, E=13, C=4, M=8)
        kwargs[field] = 0
        with pytest.raises(ValueError, match="positive integer"):
            LayerShape(**kwargs)

    def test_with_batch_preserves_extensions(self):
        layer = conv_layer("g", H=19, R=3, E=15, C=8, M=8, groups=4,
                           dilation=2)
        batched = layer.with_batch(16)
        assert batched.groups == 4 and batched.dilation == 2
        assert batched.N == 16

    def test_describe_mentions_extensions(self):
        layer = conv_layer("g", H=19, R=3, E=15, C=8, M=8, groups=4,
                           dilation=2)
        text = layer.describe()
        assert "G=4" in text and "D=2" in text
        dense = conv_layer("d", H=15, R=3, E=13, C=4, M=8)
        plain = dense.describe()
        assert "G=" not in plain and "D=" not in plain

    def test_legacy_state_without_extensions_reads_dense(self):
        """An instance whose ``__dict__`` lacks groups/dilation reads the
        dense defaults (the dataclass's class-level field defaults), and
        genuinely unknown names still raise."""
        modern = conv_layer("c", H=15, R=3, E=13, C=4, M=8)
        legacy = object.__new__(LayerShape)
        for key, value in modern.__dict__.items():
            if key not in ("groups", "dilation"):
                object.__setattr__(legacy, key, value)
        assert legacy.groups == 1 and legacy.dilation == 1
        assert legacy.R_eff == legacy.R
        assert legacy.per_group() is legacy
        with pytest.raises(AttributeError):
            legacy.no_such_attribute

    def test_grouped_dilated_shape_pickles_round_trip(self):
        """Pool IPC ships shapes by pickle: a grouped, dilated shape
        loads equal to, and hashing like, the shape that was sent."""
        grouped = conv_layer("g", H=19, R=3, E=15, C=8, M=8, groups=4,
                             dilation=2)
        loaded = pickle.loads(pickle.dumps(grouped))
        assert loaded == grouped and hash(loaded) == hash(grouped)
        assert vars(loaded) == vars(grouped)
