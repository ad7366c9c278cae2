"""Tests for the pluggable compute-backend registry (``repro.backends``).

Covers the registry semantics, per-backend equivalence of every kernel
primitive call site against the ``numpy`` reference, fused-dispatch
switching through the registry (grad mode included), and the backend
plumbing through the serving engine, the workspace, the calibration hook and
the CLI.
"""

import copy

import numpy as np
import pytest

from repro.backends import (
    ComputeBackend,
    NumpyBackend,
    active_backend,
    active_backend_name,
    backend_status,
    get_backend,
    list_backends,
    register_backend,
    set_active_backend,
    unregister_backend,
    use_backend,
)
from repro.cli.main import main as cli_main
from repro.data.dataset import collate
from repro.data.synthetic_modelnet import make_synthetic_modelnet
from repro.graph import (
    FUSED_MESSAGE_TYPES,
    build_messages,
    fused_edgeconv,
    knn_graph,
    scatter,
)
from repro.hardware.calibration import PAPER_TARGETS, calibrate_backend_target, calibrate_coefficients
from repro.models.edgeconv import EdgeConv
from repro.nas import Architecture, DerivedModel, FunctionSet, OperationType, Supernet, SupernetConfig
from repro.nas.presets import device_fast_architecture
from repro.nn import MLP, Tensor, default_dtype, no_grad
from repro.nn.functional import embedding_lookup, matmul
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.serving.engine import EngineConfig, InferenceEngine
from repro.workspace import Workspace

#: Every shipped backend other than the ``numpy`` reference.
EQUIVALENCE_BACKENDS = ["materialized"]


@pytest.fixture(autouse=True)
def _restore_active_backend():
    """No test may leak a non-default active backend into the next one."""
    before = active_backend_name()
    yield
    set_active_backend(before)


class TestRegistry:
    def test_shipped_backends_registered(self):
        assert {"numpy", "materialized"} <= set(list_backends())
        assert active_backend_name() == "numpy"

    def test_get_backend_canonicalizes_and_reports_unknown(self):
        assert get_backend("NumPy").name == "numpy"
        assert get_backend("  Materialized ").name == "materialized"
        with pytest.raises(KeyError, match="registered"):
            get_backend("cuda")

    def test_duplicate_registration_requires_replace(self):
        class Dummy(NumpyBackend):
            name = "dummy-test-backend"

        try:
            register_backend(Dummy())
            with pytest.raises(ValueError, match="already registered"):
                register_backend(Dummy())
            register_backend(Dummy(), replace=True)
        finally:
            unregister_backend("dummy-test-backend")
        assert "dummy-test-backend" not in list_backends()

    def test_reference_backend_cannot_be_removed(self):
        with pytest.raises(ValueError):
            unregister_backend("numpy")

    def test_unregistering_active_backend_resets_to_reference(self):
        class Doomed(NumpyBackend):
            name = "doomed-test-backend"

        register_backend(Doomed())
        set_active_backend("doomed-test-backend")
        unregister_backend("doomed-test-backend")
        assert active_backend_name() == "numpy"

    def test_use_backend_nests_and_restores_on_error(self):
        ambient = active_backend_name()
        with use_backend("materialized") as outer:
            assert outer.name == "materialized"
            assert active_backend_name() == "materialized"
            with use_backend("numpy"):
                assert active_backend_name() == "numpy"
            assert active_backend_name() == "materialized"
        assert active_backend_name() == ambient
        with pytest.raises(RuntimeError, match="boom"):
            with use_backend("materialized"):
                raise RuntimeError("boom")
        assert active_backend_name() == ambient

    def test_backend_status_lists_optional_backends(self):
        rows = {row["name"]: row for row in backend_status()}
        assert list(rows) == list_backends()
        assert rows[active_backend_name()]["active"]
        assert rows["materialized"]["fused_dispatch"] is False

    def test_abstract_backend_has_no_kernels(self):
        base = ComputeBackend()
        with pytest.raises(NotImplementedError):
            base.matmul(np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(NotImplementedError):
            base.gather(np.ones((2, 2)), np.array([0]))

    def test_metric_name_is_dot_segment_safe(self):
        class Dashed(NumpyBackend):
            name = "numpy-dashed"

        assert Dashed().metric_name == "numpy_dashed"
        assert NumpyBackend().metric_name == "numpy"


class TestPrimitiveEquivalence:
    """Each shipped backend matches the numpy reference primitive-by-primitive."""

    @pytest.mark.parametrize("backend_name", EQUIVALENCE_BACKENDS)
    def test_matmul(self, backend_name, rng):
        reference = get_backend("numpy")
        backend = get_backend(backend_name)
        a = rng.normal(size=(17, 300)).astype(np.float32)
        b = rng.normal(size=(300, 23)).astype(np.float32)
        np.testing.assert_allclose(backend.matmul(a, b), reference.matmul(a, b), rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("backend_name", EQUIVALENCE_BACKENDS)
    @pytest.mark.parametrize("aggregator", ["sum", "mean", "max", "min"])
    def test_segment_reduce(self, backend_name, aggregator, rng):
        reference = get_backend("numpy")
        backend = get_backend(backend_name)
        counts = np.array([3, 1, 7, 2, 5], dtype=np.int64)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        values = rng.normal(size=(int(counts.sum()), 50)).astype(np.float32)
        got = backend.segment_reduce(values, starts, counts, aggregator)
        want = reference.segment_reduce(values, starts, counts, aggregator)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("backend_name", EQUIVALENCE_BACKENDS)
    def test_uniform_degree_segment_reduce(self, backend_name, rng):
        reference = get_backend("numpy")
        backend = get_backend(backend_name)
        counts = np.full(6, 4, dtype=np.int64)
        starts = np.arange(6, dtype=np.int64) * 4
        values = rng.normal(size=(24, 40)).astype(np.float32)
        for aggregator in ("sum", "mean", "max", "min"):
            got = backend.segment_reduce(values, starts, counts, aggregator)
            want = reference.segment_reduce(values, starts, counts, aggregator)
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("backend_name", EQUIVALENCE_BACKENDS)
    def test_scatter_primitives(self, backend_name, rng):
        reference = get_backend("numpy")
        backend = get_backend(backend_name)
        index = rng.integers(0, 5, size=40)
        values = rng.normal(size=(40, 7)).astype(np.float32)
        out_got = np.zeros((5, 7), dtype=np.float32)
        out_want = np.zeros((5, 7), dtype=np.float32)
        backend.scatter_add(out_got, index, values)
        reference.scatter_add(out_want, index, values)
        np.testing.assert_allclose(out_got, out_want, rtol=1e-6, atol=1e-6)
        for mode, fill in (("max", -np.inf), ("min", np.inf)):
            ext_got = np.full((5, 7), fill, dtype=np.float32)
            ext_want = np.full((5, 7), fill, dtype=np.float32)
            backend.scatter_extreme(ext_got, index, values, mode)
            reference.scatter_extreme(ext_want, index, values, mode)
            np.testing.assert_array_equal(ext_got, ext_want)
        np.testing.assert_array_equal(backend.gather(values, index), reference.gather(values, index))

    def test_scatter_extreme_rejects_unknown_mode(self):
        backend = get_backend("numpy")
        with pytest.raises(ValueError):
            backend.scatter_extreme(np.zeros((2, 2)), np.array([0, 1]), np.ones((2, 2)), "median")


class TestKernelEquivalence:
    """Full ops produce equivalent results and gradients under every backend."""

    def _reference_forward_backward(self, points, edge_index, mlp, message_type, aggregator, dtype):
        with default_dtype(dtype), use_backend("numpy"):
            x = Tensor(points.copy(), requires_grad=True)
            out = fused_edgeconv(x, edge_index, mlp, message_type=message_type, aggregator=aggregator)
            out.sum().backward()
            grads = {name: p.grad.copy() for name, p in mlp.named_parameters()}
            mlp.zero_grad()
        return out.data.copy(), x.grad.copy(), grads

    @pytest.mark.parametrize("backend_name", EQUIVALENCE_BACKENDS)
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("message_type", FUSED_MESSAGE_TYPES)
    def test_fused_edgeconv_matches_reference(self, backend_name, dtype, message_type, rng):
        from repro.graph import message_dim

        points = rng.normal(size=(40, 3))
        edge_index = knn_graph(points, 5)
        tol = dict(rtol=1e-4, atol=1e-5) if dtype == "float32" else dict(rtol=1e-9, atol=1e-11)
        for aggregator in ("sum", "max"):
            with default_dtype(dtype):
                width = message_dim(message_type, 3)
                mlp = MLP([width, 40, 8], activation="leaky_relu", final_activation=True,
                          rng=np.random.default_rng(3))
            expected, x_grad, w_grads = self._reference_forward_backward(
                points, edge_index, mlp, message_type, aggregator, dtype
            )
            with default_dtype(dtype), use_backend(backend_name):
                x = Tensor(points.copy(), requires_grad=True)
                out = fused_edgeconv(
                    x, edge_index, mlp, message_type=message_type, aggregator=aggregator
                )
                out.sum().backward()
            assert out.shape == expected.shape
            np.testing.assert_allclose(out.data, expected, **tol)
            assert x.grad.shape == points.shape
            np.testing.assert_allclose(x.grad, x_grad, **tol)
            for name, param in mlp.named_parameters():
                assert param.grad.shape == param.data.shape
                np.testing.assert_allclose(param.grad, w_grads[name], **tol)
            mlp.zero_grad()

    @pytest.mark.parametrize("backend_name", EQUIVALENCE_BACKENDS)
    def test_ragged_and_unsorted_graphs(self, backend_name, rng):
        sources = np.array([1, 2, 3, 0, 0, 4, 4, 4, 4])
        targets = np.array([1, 1, 1, 2, 4, 4, 4, 4, 4])
        ragged = np.stack([sources, targets])
        points = rng.normal(size=(6, 3)).astype(np.float32)
        shuffled = ragged[:, rng.permutation(ragged.shape[1])]
        for edge_index in (ragged, shuffled):
            for aggregator in ("sum", "mean", "max", "min"):
                with use_backend("numpy"):
                    want = fused_edgeconv(Tensor(points), edge_index, message_type="rel_pos", aggregator=aggregator)
                with use_backend(backend_name):
                    got = fused_edgeconv(Tensor(points), edge_index, message_type="rel_pos", aggregator=aggregator)
                np.testing.assert_allclose(got.data, want.data, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("backend_name", EQUIVALENCE_BACKENDS)
    def test_empty_graph(self, backend_name):
        with use_backend(backend_name):
            x = Tensor(np.ones((4, 3), dtype=np.float32), requires_grad=True)
            out = fused_edgeconv(x, np.zeros((2, 0), dtype=np.int64), message_type="rel_pos", aggregator="sum")
            out.sum().backward()
        assert out.shape == (4, 3)
        np.testing.assert_array_equal(out.data, 0.0)
        np.testing.assert_array_equal(x.grad, 0.0)

    @pytest.mark.parametrize("backend_name", EQUIVALENCE_BACKENDS)
    def test_materialized_scatter_path(self, backend_name, rng):
        points = rng.normal(size=(20, 3)).astype(np.float32)
        edge_index = knn_graph(points, 4)
        for aggregator in ("sum", "mean", "max", "min"):
            with use_backend("numpy"):
                x_ref = Tensor(points.copy(), requires_grad=True)
                messages = build_messages(x_ref, edge_index, "rel_pos")
                want = scatter(messages, edge_index[1], 20, aggregator)
                want.sum().backward()
            with use_backend(backend_name):
                x = Tensor(points.copy(), requires_grad=True)
                messages = build_messages(x, edge_index, "rel_pos")
                got = scatter(messages, edge_index[1], 20, aggregator)
                got.sum().backward()
            np.testing.assert_allclose(got.data, want.data, rtol=1e-5, atol=1e-6)
            np.testing.assert_allclose(x.grad, x_ref.grad, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("backend_name", EQUIVALENCE_BACKENDS)
    def test_functional_matmul_and_embedding(self, backend_name, rng):
        x2 = Tensor(rng.normal(size=(9, 200)).astype(np.float32), requires_grad=True)
        x3 = Tensor(rng.normal(size=(2, 5, 200)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(200, 6)).astype(np.float32), requires_grad=True)
        with use_backend("numpy"):
            want2 = matmul(x2, w)
            want3 = matmul(x3, w)
        with use_backend(backend_name):
            got2 = matmul(x2, w)
            got3 = matmul(x3, w)
            got2.sum().backward()
        np.testing.assert_allclose(got2.data, want2.data, rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(got3.data, want3.data, rtol=1e-4, atol=1e-5)
        assert x2.grad.shape == x2.shape and w.grad.shape == w.shape

        table = Tensor(rng.normal(size=(7, 4)).astype(np.float32), requires_grad=True)
        indices = np.array([0, 3, 3, 6])
        with use_backend(backend_name):
            looked_up = embedding_lookup(table, indices)
            looked_up.sum().backward()
        np.testing.assert_array_equal(looked_up.data, table.data[indices])
        assert table.grad.shape == table.shape

    def test_numpy_backend_is_bit_identical_default(self, rng):
        """use_backend('numpy') must not change a single bit vs the ambient default."""
        points = rng.normal(size=(30, 3)).astype(np.float32)
        edge_index = knn_graph(points, 5)
        baseline = fused_edgeconv(Tensor(points), edge_index, message_type="target_rel", aggregator="mean")
        with use_backend("numpy"):
            pinned = fused_edgeconv(Tensor(points), edge_index, message_type="target_rel", aggregator="mean")
        np.testing.assert_array_equal(baseline.data, pinned.data)


class TestFusedToggleShims:
    """Fused dispatch is switched by selecting a backend in the registry."""

    def test_set_active_backend_switches_fused_dispatch(self):
        assert active_backend().fused_dispatch
        set_active_backend("materialized")
        try:
            assert active_backend_name() == "materialized"
            assert not active_backend().fused_dispatch
        finally:
            set_active_backend("numpy")
        assert active_backend_name() == "numpy"
        assert active_backend().fused_dispatch

    def test_use_backend_nested_toggle(self):
        """The A/B benchmark pattern: off, on inside, off inside that."""
        with use_backend("materialized"):
            assert not active_backend().fused_dispatch
            with use_backend("numpy"):
                assert active_backend().fused_dispatch
                with use_backend("materialized"):
                    assert not active_backend().fused_dispatch
                assert active_backend().fused_dispatch
            assert not active_backend().fused_dispatch
        assert active_backend().fused_dispatch

    def test_materialized_backend_disables_model_dispatch(self, rng):
        conv = EdgeConv(3, 8, aggregator="max", message_type="target_rel",
                        rng=np.random.default_rng(2)).eval()
        points = rng.normal(size=(30, 3)).astype(np.float32)
        edge_index = knn_graph(points, 5)
        with no_grad():
            fused = conv(Tensor(points), edge_index)
            with use_backend("materialized"):
                materialized = conv(Tensor(points), edge_index)
        np.testing.assert_allclose(fused.data, materialized.data, rtol=1e-5, atol=1e-6)

    def test_enable_inside_non_fused_backend_falls_back_to_reference(self):
        with use_backend("materialized"):
            with use_backend("numpy"):
                assert active_backend_name() == "numpy"
            assert active_backend_name() == "materialized"


class TestGradModeDispatch:
    """Grad-mode forwards take the fused kernels and match the materialized reference."""

    @staticmethod
    def _forward_backward(model, run, backend_name):
        with use_metrics(MetricsRegistry()) as metrics, use_backend(backend_name):
            out = run(model)
            out.sum().backward()
        grads = {name: param.grad for name, param in model.named_parameters()}
        return out.data, grads, metrics

    def _assert_fused_matches_materialized(self, model, run):
        # Same weights and generator states for the reference run.
        reference = copy.deepcopy(model)
        out, grads, metrics = self._forward_backward(model, run, "numpy")
        assert metrics.counter("graph.fused.dispatch").value > 0
        assert "graph.materialized.dispatch" not in metrics
        want, want_grads, ref_metrics = self._forward_backward(reference, run, "materialized")
        assert ref_metrics.counter("graph.materialized.dispatch").value > 0
        assert "graph.fused.dispatch" not in ref_metrics
        np.testing.assert_allclose(out, want, rtol=1e-4, atol=1e-5)
        assert grads.keys() == want_grads.keys()
        for name, grad in grads.items():
            if want_grads[name] is None:
                assert grad is None, name
            else:
                np.testing.assert_allclose(grad, want_grads[name], rtol=1e-4, atol=1e-5, err_msg=name)

    @pytest.fixture(scope="class")
    def batch(self):
        train, _ = make_synthetic_modelnet(num_classes=4, samples_per_class=2, num_points=32, seed=0)
        return collate([train[i] for i in range(4)])

    def test_edgeconv(self, rng):
        conv = EdgeConv(3, 8, hidden_dims=(16,), aggregator="max", message_type="target_rel",
                        rng=np.random.default_rng(2))
        points = rng.normal(size=(40, 3)).astype(np.float32)
        edge_index = knn_graph(points, 6)
        self._assert_fused_matches_materialized(conv, lambda model: model(Tensor(points), edge_index))

    def test_derived_model(self, batch):
        model = DerivedModel(device_fast_architecture("jetson-tx2"), num_classes=4, k=6, embed_dim=16, seed=0)
        self._assert_fused_matches_materialized(model, lambda m: m(batch))

    def test_supernet(self, batch):
        ops = OperationType
        path = Architecture(
            operations=(ops.SAMPLE, ops.AGGREGATE, ops.COMBINE, ops.AGGREGATE, ops.CONNECT, ops.AGGREGATE),
            upper_functions=FunctionSet(aggregator="max", message_type="target_rel", combine_dim=16),
            lower_functions=FunctionSet(aggregator="mean", message_type="rel_pos", combine_dim=16),
        )
        supernet = Supernet(SupernetConfig(num_positions=6, hidden_dim=12, k=4, num_classes=4))
        self._assert_fused_matches_materialized(supernet, lambda model: model(batch, path))


class TestBackendPlumbing:
    def _clouds(self, rng, n=6):
        return [rng.standard_normal((24, 3)) for _ in range(n)]

    def _workspace_with_model(self, backend=None):
        from repro.nas.presets import device_fast_architecture

        workspace = Workspace(device="jetson-tx2", backend=backend)
        architecture = device_fast_architecture(workspace.device.name)
        deployed = workspace.deploy(architecture, num_classes=4, name="m", k=4)
        return workspace, deployed

    def test_engine_config_validates_backend(self):
        with pytest.raises(KeyError):
            EngineConfig(backend="not-a-backend")
        assert EngineConfig(backend="materialized").backend == "materialized"

    def test_engine_results_equivalent_across_backends(self, rng):
        workspace, deployed = self._workspace_with_model()
        clouds = self._clouds(rng)
        reference = InferenceEngine(workspace.registry, EngineConfig(max_batch_size=4))
        materialized = InferenceEngine(
            workspace.registry, EngineConfig(max_batch_size=4, backend="materialized")
        )
        want = reference.submit_many(deployed.name, clouds)
        got = materialized.submit_many(deployed.name, clouds)
        for a, b in zip(got, want):
            assert a.label == b.label
            np.testing.assert_allclose(a.logits, b.logits, rtol=1e-4, atol=1e-5)

    def test_workspace_threads_backend_into_engine(self, rng):
        workspace, deployed = self._workspace_with_model(backend="materialized")
        assert workspace.backend == "materialized"
        report = workspace.serve(self._clouds(rng, 4), name=deployed.name)
        assert len(report.results) == 4
        assert workspace.engine().config.backend == "materialized"

    def test_workspace_rejects_unknown_backend(self):
        with pytest.raises(KeyError):
            Workspace(device="jetson-tx2", backend="not-a-backend")

    def test_workspace_records_backend_in_spans(self, rng):
        from repro.obs import get_tracer, reset_observability

        reset_observability()
        workspace, deployed = self._workspace_with_model(backend="materialized")
        workspace.serve(self._clouds(rng, 2), name=deployed.name)
        spans = {span.name: span for span in get_tracer().spans}
        assert spans["workspace.serve"].attributes["backend"] == "materialized"
        assert spans["workspace.deploy"].attributes["backend"] == "materialized"
        reset_observability()

    def test_calibrate_backend_target(self):
        target = calibrate_backend_target("numpy", repeats=1, num_points=64, k=4)
        assert target.backend == "numpy"
        assert target.name == "numpy-host"
        assert abs(sum(target.breakdown.values()) - 1.0) < 1e-9
        assert target.dgcnn_peak_memory_mb > target.base_memory_mb
        coefficients = calibrate_coefficients(target)
        assert all(value > 0 for value in coefficients.values())

    def test_calibrating_materialized_times_the_materialized_path(self):
        with use_metrics(MetricsRegistry()) as metrics:
            calibrate_backend_target("materialized", repeats=1, num_points=64, k=4)
        assert metrics.counter("graph.materialized.dispatch").value > 0
        assert "graph.fused.dispatch" not in metrics

    def test_paper_targets_are_analytic(self):
        assert all(target.backend == "analytic" for target in PAPER_TARGETS.values())

    def test_cli_backends_subcommand(self, capsys):
        assert cli_main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "numpy" in out
        assert "materialized" in out

    def test_cli_serve_with_backend(self, capsys):
        code = cli_main(
            ["serve", "--requests", "4", "--num-points", "16", "--backend", "materialized"]
        )
        assert code == 0
        assert cli_main(["serve", "--requests", "1", "--backend", "bogus"]) == 2
