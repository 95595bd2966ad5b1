"""Tests for the latent semantic projection and its regularization loss."""
import numpy as np
import pytest

from kgdialog import autodiff as ad
from kgdialog.autodiff import Tensor
from kgdialog.composer import EmbeddingTable, Vocabulary
from kgdialog.regularizer import (LatentQuerySet, SemanticProjectionParams,
                                  encode_ground_truth, project_semantic,
                                  regularization_loss)

from helpers import (build_composite_grad_cases, make_attention,
                     make_encoder_block, make_mlp, max_rel_error, sum_all)

D = 4
N_P = 3


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def latent(rng):
    return LatentQuerySet(Tensor(rng.normal(size=(N_P, D)),
                                 requires_grad=True))


@pytest.fixture
def proj(rng):
    return SemanticProjectionParams(make_attention(rng, D),
                                    make_mlp(rng, D, 6))


class TestProjectSemantic:
    def test_output_shape_fixed_whatever_input_length(self, rng, latent, proj):
        for n in (1, 2, 9):
            T = Tensor(rng.normal(size=(n, D)))
            assert project_semantic(latent, T, proj).shape == (N_P, D)

    def test_empty_input_raises(self, latent, proj):
        with pytest.raises(ValueError):
            project_semantic(latent, Tensor(np.zeros((0, D))), proj)

    def test_is_attention_plus_mlp_residual(self, rng, latent, proj):
        T = Tensor(rng.normal(size=(5, D)))
        got = project_semantic(latent, T, proj).data
        t_bar, _ = ad.cross_attention(latent.P_g, T, proj.attn.w_q,
                                      proj.attn.w_k, proj.attn.w_v)
        residual = ad.mlp(t_bar, proj.mlp.w1, proj.mlp.b1,
                          proj.mlp.w2, proj.mlp.b2)
        np.testing.assert_allclose(got, t_bar.data + residual.data,
                                   atol=1e-12)

    def test_gradient_reaches_latent_queries(self, rng, latent, proj):
        """The latent queries are trainable: the loss must move them."""
        T = Tensor(rng.normal(size=(4, D)))
        out = project_semantic(latent, T, proj)
        sum_all(out).backward()
        assert latent.P_g.grad is not None
        assert np.abs(latent.P_g.grad).max() > 0

    def test_gradient_reaches_input_representation(self, rng, latent, proj):
        T = Tensor(rng.normal(size=(4, D)), requires_grad=True)
        sum_all(project_semantic(latent, T, proj)).backward()
        assert T.grad is not None and np.abs(T.grad).max() > 0


class TestEncodeGroundTruth:
    def test_matches_encoder_on_embedded_response(self, rng):
        vocab = Vocabulary(["a", "b", "c"])
        table = EmbeddingTable(
            token=Tensor(rng.normal(size=(7, D))),
            position=Tensor(rng.normal(size=(10, D))))
        block = make_encoder_block(rng, D, 6)
        got = encode_ground_truth(vocab.encode(["a", "c", "b"]), table,
                                  (block,))
        assert got.shape == (3, D)

    def test_empty_response_raises(self, rng):
        table = EmbeddingTable(token=Tensor(rng.normal(size=(5, D))),
                               position=Tensor(rng.normal(size=(10, D))))
        with pytest.raises(ValueError):
            encode_ground_truth([], table, ())


class TestRegularizationLoss:
    def test_zero_iff_identical(self, rng):
        a = Tensor(rng.normal(size=(N_P, D)))
        same = Tensor(a.data.copy())
        assert regularization_loss(a, same).item() == 0.0
        b = Tensor(a.data + 0.1)
        assert regularization_loss(a, b).item() > 0.0

    def test_equals_squared_frobenius_distance(self, rng):
        a = Tensor(rng.normal(size=(N_P, D)))
        b = Tensor(rng.normal(size=(N_P, D)))
        expect = float(np.sum((a.data - b.data) ** 2))
        assert regularization_loss(a, b).item() == pytest.approx(expect,
                                                                 rel=1e-12)

    def test_symmetric(self, rng):
        a = Tensor(rng.normal(size=(N_P, D)))
        b = Tensor(rng.normal(size=(N_P, D)))
        assert (regularization_loss(a, b).item()
                == pytest.approx(regularization_loss(b, a).item(), rel=1e-12))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            regularization_loss(Tensor(np.zeros((2, D))),
                                Tensor(np.zeros((3, D))))

    def test_gradient_flows_to_both_sides(self, rng):
        """No stop-gradient: both projections feel the pull."""
        a = Tensor(rng.normal(size=(N_P, D)), requires_grad=True)
        b = Tensor(rng.normal(size=(N_P, D)), requires_grad=True)
        regularization_loss(a, b).backward()
        np.testing.assert_allclose(a.grad, 2 * (a.data - b.data), atol=1e-12)
        np.testing.assert_allclose(b.grad, -a.grad, atol=1e-12)


REG_GRAD_CASES = [c for c in build_composite_grad_cases()
                  if c[0].startswith("project_semantic")]


@pytest.mark.parametrize("label,loss_fn,params", REG_GRAD_CASES,
                         ids=[c[0] for c in REG_GRAD_CASES])
def test_gradients(label, loss_fn, params):
    assert max_rel_error(loss_fn, params, eps=3e-5) < 1e-4
