"""Tests for the model zoo builders."""

import numpy as np
import pytest

from repro.nn.models import (
    ModelSpec,
    build_cnn,
    build_lenet5,
    build_mlp,
    build_mobilenet_tiny,
    build_model,
    build_model_zoo,
    cifar_like_zoo_specs,
    mnist_like_zoo_specs,
)


@pytest.fixture()
def rng():
    return np.random.default_rng(11)


class TestBuilders:
    def test_mlp_output_shape(self, rng):
        net = build_mlp(rng, in_channels=1, image_size=8, num_classes=10, hidden=16)
        out = net.forward(rng.standard_normal((3, 1, 8, 8)))
        assert out.shape == (3, 10)

    def test_cnn_output_shape(self, rng):
        net = build_cnn(rng, in_channels=3, image_size=8, channels=(8, 16))
        out = net.forward(rng.standard_normal((2, 3, 8, 8)))
        assert out.shape == (2, 10)

    def test_cnn_rejects_bad_image_size(self, rng):
        with pytest.raises(ValueError):
            build_cnn(rng, image_size=6)

    def test_lenet5_output_shape(self, rng):
        net = build_lenet5(rng, in_channels=1, image_size=8)
        out = net.forward(rng.standard_normal((2, 1, 8, 8)))
        assert out.shape == (2, 10)

    def test_lenet5_width_scale_shrinks(self, rng):
        full = build_lenet5(rng, width_scale=1.0)
        slim = build_lenet5(rng, width_scale=0.5)
        assert slim.num_params() < full.num_params()

    def test_mobilenet_output_shape(self, rng):
        net = build_mobilenet_tiny(rng, in_channels=3, image_size=8, width=8)
        out = net.forward(rng.standard_normal((2, 3, 8, 8)))
        assert out.shape == (2, 10)

    def test_mobilenet_width_scales_params(self, rng):
        small = build_mobilenet_tiny(rng, width=8)
        large = build_mobilenet_tiny(rng, width=16)
        assert large.num_params() > small.num_params()


class TestSpecs:
    def test_mnist_zoo_has_six_models(self):
        specs = mnist_like_zoo_specs()
        assert len(specs) == 6
        assert len({s.name for s in specs}) == 6
        assert all(s.in_channels == 1 for s in specs)

    def test_cifar_zoo_has_six_models(self):
        specs = cifar_like_zoo_specs()
        assert len(specs) == 6
        assert all(s.in_channels == 3 for s in specs)
        assert any(s.family == "mobilenet" for s in specs)

    def test_three_families_two_variants_each(self):
        for specs in (mnist_like_zoo_specs(), cifar_like_zoo_specs()):
            families = sorted(s.family for s in specs)
            assert len(set(families)) == 3
            for family in set(families):
                assert families.count(family) == 2

    def test_build_model_dispatch(self, rng):
        spec = ModelSpec("m", "mlp", kwargs={"hidden": 8})
        net = build_model(spec, rng)
        assert net.name == "m"

    def test_build_model_unknown_family(self, rng):
        with pytest.raises(ValueError, match="unknown model family"):
            build_model(ModelSpec("m", "transformer"), rng)

    def test_build_model_zoo(self, rng):
        nets = build_model_zoo(mnist_like_zoo_specs(), rng)
        assert len(nets) == 6
        sizes = [n.size_bytes() for n in nets]
        assert len(set(sizes)) > 1  # genuinely different models


def test_batched_forward_matches_per_sample():
    """One batched forward agrees with stacked per-sample forwards.

    Agreement is numerical, not bitwise: BLAS blocks a (64, d) matmul
    differently from 64 (1, d) matvecs.  This is why the vectorized
    simulator keeps its forward-pass shapes identical to the scalar
    kernel's (per-slot batches) instead of fusing whole blocks: the golden
    digests require bit equality, which batching across the existing call
    boundaries would break.
    """
    batch = np.random.default_rng(0).random((64, 1, 8, 8))
    net = build_mlp(np.random.default_rng(5), hidden=64)
    together = net.predict_proba(batch)
    apart = np.vstack([net.predict_proba(batch[i : i + 1]) for i in range(64)])
    np.testing.assert_allclose(together, apart, rtol=1e-12, atol=1e-15)
