"""Unit tests for the edge-server substrate (GPUs, allocations, placement...)."""

import pytest

from repro.cluster import (
    CELLULAR_4G,
    CELLULAR_4G_X2,
    SATELLITE,
    AllocationVector,
    EdgeServer,
    EdgeServerSpec,
    GPU,
    GPUFleet,
    NetworkLink,
    Placement,
    inference_job_id,
    place_jobs,
    quantize_allocations,
    retraining_job_id,
    training_data_megabits,
)
from repro.exceptions import AllocationError, ConfigurationError, PlacementError, SchedulingError


class TestGPU:
    def test_reserve_and_release(self):
        gpu = GPU(gpu_id=0)
        gpu.reserve("job-a", 0.5)
        assert gpu.allocated == pytest.approx(0.5)
        assert gpu.free == pytest.approx(0.5)
        gpu.release_all()
        assert gpu.allocated == 0.0

    def test_over_allocation_rejected(self):
        gpu = GPU(gpu_id=0)
        gpu.reserve("job-a", 0.7)
        with pytest.raises(AllocationError):
            gpu.reserve("job-b", 0.5)

    def test_re_reserving_replaces_previous(self):
        gpu = GPU(gpu_id=0)
        gpu.reserve("job-a", 0.7)
        gpu.reserve("job-a", 0.3)
        assert gpu.allocated == pytest.approx(0.3)

    def test_zero_reservation_removes_entry(self):
        gpu = GPU(gpu_id=0)
        gpu.reserve("job-a", 0.5)
        gpu.reserve("job-a", 0.0)
        assert "job-a" not in gpu.reservations

    def test_utilization(self):
        gpu = GPU(gpu_id=0)
        gpu.reserve("job-a", 0.25)
        assert gpu.utilization() == pytest.approx(0.25)

    def test_negative_reservation_rejected(self):
        with pytest.raises(AllocationError):
            GPU(gpu_id=0).reserve("job-a", -0.1)

    def test_invalid_gpu(self):
        with pytest.raises(AllocationError):
            GPU(gpu_id=-1)
        with pytest.raises(AllocationError):
            GPU(gpu_id=0, capacity=0.0)


class TestGPUFleet:
    def test_capacity_accounting(self):
        fleet = GPUFleet(3)
        assert fleet.total_capacity == pytest.approx(3.0)
        fleet.gpu(0).reserve("a", 0.5)
        assert fleet.total_allocated == pytest.approx(0.5)

    def test_release_all(self):
        fleet = GPUFleet(2)
        fleet.gpu(0).reserve("a", 0.5)
        fleet.release_all()
        assert fleet.total_allocated == 0.0

    def test_missing_gpu_raises(self):
        with pytest.raises(AllocationError):
            GPUFleet(1).gpu(5)

    def test_needs_at_least_one_gpu(self):
        with pytest.raises(AllocationError):
            GPUFleet(0)


class TestAllocationVector:
    def test_fair_allocation(self):
        vector = AllocationVector.fair(["a", "b", "c", "d"], 2.0)
        assert vector.get("a") == pytest.approx(0.5)
        assert vector.total_allocated == pytest.approx(2.0)

    def test_steal_moves_resources(self):
        vector = AllocationVector.fair(["a", "b"], 1.0)
        assert vector.steal("a", "b", 0.2)
        assert vector.get("a") == pytest.approx(0.7)
        assert vector.get("b") == pytest.approx(0.3)

    def test_steal_fails_when_victim_exhausted(self):
        vector = AllocationVector.fair(["a", "b"], 1.0)
        assert not vector.steal("a", "b", 0.6)
        # Unchanged on failure.
        assert vector.get("b") == pytest.approx(0.5)

    def test_steal_from_self_rejected(self):
        vector = AllocationVector.fair(["a", "b"], 1.0)
        with pytest.raises(AllocationError):
            vector.steal("a", "a", 0.1)

    def test_set_respects_capacity(self):
        vector = AllocationVector.fair(["a", "b"], 1.0)
        with pytest.raises(AllocationError):
            vector.set("a", 0.8)

    def test_copy_is_independent(self):
        vector = AllocationVector.fair(["a", "b"], 1.0)
        copy = vector.copy()
        copy.steal("a", "b", 0.2)
        assert vector.get("a") == pytest.approx(0.5)

    def test_total_never_exceeds_capacity_after_steals(self):
        vector = AllocationVector.fair(["a", "b", "c"], 2.0)
        vector.steal("a", "b", 0.3)
        vector.steal("c", "a", 0.1)
        vector.validate()
        assert vector.total_allocated <= 2.0 + 1e-9

    def test_invalid_construction(self):
        with pytest.raises(AllocationError):
            AllocationVector(total_gpus=0.0)
        with pytest.raises(AllocationError):
            AllocationVector.fair([], 1.0)


class TestAllocationLattice:
    """The integer-quantum internals behind the float API."""

    def test_entries_are_exact_unit_multiples(self):
        vector = AllocationVector(
            total_gpus=2.0, quantum=0.1, allocations={"a": 0.7, "b": 0.3}
        )
        assert vector.units("a") == 7
        assert vector.units("b") == 3
        assert vector.get("a") == 7 * 0.1

    def test_steal_walks_are_drift_free(self):
        vector = AllocationVector.fair(["a", "b"], 1.0, quantum=0.1)
        for _ in range(4):
            assert vector.steal("a", "b", 0.1)
        for _ in range(4):
            assert vector.steal("b", "a", 0.1)
        # Back to the exact starting point — no float residue.
        assert vector.get("a") == 0.5
        assert vector.get("b") == 0.5
        assert vector.units_key() == (("a", 5), ("b", 5))

    def test_steal_units_undo_is_exact(self):
        vector = AllocationVector.fair(["a", "b", "c"], 2.0, quantum=0.25)
        before = vector.units_key()
        assert vector.steal_units("a", "b", 2)
        assert vector.steal_units("b", "a", 2)
        assert vector.units_key() == before

    def test_steal_units_rejects_overdraft_without_mutation(self):
        vector = AllocationVector.fair(["a", "b"], 1.0, quantum=0.1)
        before = vector.units_key()
        assert not vector.steal_units("a", "b", 6)
        assert vector.units_key() == before

    def test_fair_remainder_priority_orders_the_leftover_quanta(self):
        vector = AllocationVector.fair(
            ["a", "b", "c"],
            0.5,
            quantum=0.1,
            remainder_priority=["c", "a", "b"],
        )
        # 5 units over 3 jobs: one each, remainder goes to "c" then "a".
        assert vector.units("c") == 2
        assert vector.units("a") == 2
        assert vector.units("b") == 1

    def test_fair_under_contention_leaves_some_jobs_empty(self):
        vector = AllocationVector.fair(["a", "b", "c", "d"], 0.2, quantum=0.1)
        assert vector.allocated_units == 2
        assert vector.units("a") == 1 and vector.units("b") == 1
        assert vector.units("c") == 0 and vector.units("d") == 0

    def test_quantisation_happens_only_at_the_api_boundary(self):
        vector = AllocationVector(
            total_gpus=1.0, quantum=0.1, allocations={"a": 0.333}
        )
        # 0.333 is not on the lattice; it rounds down to a whole quantum.
        assert vector.units("a") == 3
        assert vector.get("a") == pytest.approx(0.3)

    def test_quantisation_never_rounds_above_capacity(self):
        # Per-entry *nearest* rounding would turn each 0.5 into 2 quanta of
        # 0.3 (1.2 total > 1 GPU) and reject an allocation whose float total
        # is exactly the capacity; rounding down keeps it valid.
        vector = AllocationVector(
            total_gpus=1.0, quantum=0.3, allocations={"a": 0.5, "b": 0.5}
        )
        assert vector.units("a") == 1
        assert vector.units("b") == 1
        assert vector.total_allocated <= 1.0


class TestJobs:
    def test_job_ids(self):
        assert inference_job_id("cam") == "cam/inference"
        assert retraining_job_id("cam") == "cam/retraining"


class TestQuantizationAndPlacement:
    def test_quantize_allocations(self):
        quantized = quantize_allocations({"a": 0.6, "b": 1.3, "c": 0.0})
        # Fractional parts round down to a single inverse power of two.
        assert quantized["a"] == pytest.approx(0.5)
        assert quantized["b"] == pytest.approx(1.25)
        assert quantized["c"] == 0.0

    def test_quantize_never_exceeds_request(self):
        requested = {"a": 0.6, "b": 1.3, "c": 0.9, "d": 0.05}
        quantized = quantize_allocations(requested)
        for job, fraction in requested.items():
            assert quantized[job] <= fraction + 1e-9

    def test_quantize_rejects_negative(self):
        with pytest.raises(PlacementError):
            quantize_allocations({"a": -0.1})

    def test_place_jobs_within_capacity(self):
        fleet = GPUFleet(2)
        placement = place_jobs({"a": 0.9, "b": 0.6, "c": 0.4}, fleet)
        assert isinstance(placement, Placement)
        for gpu in fleet.gpus:
            assert gpu.allocated <= gpu.capacity + 1e-9

    def test_fractional_piece_not_split_across_gpus(self):
        fleet = GPUFleet(2)
        placement = place_jobs({"a": 0.5, "b": 0.5, "c": 0.5, "d": 0.5}, fleet)
        for job, pieces in placement.assignments.items():
            assert len(pieces) == 1

    def test_multi_gpu_job_split_into_whole_pieces(self):
        fleet = GPUFleet(3)
        placement = place_jobs({"big": 2.5}, fleet)
        pieces = placement.gpu_for("big")
        assert sorted(fraction for _, fraction in pieces) == [0.5, 1.0, 1.0]

    def test_over_capacity_raises(self):
        fleet = GPUFleet(1)
        with pytest.raises(PlacementError):
            place_jobs({"a": 0.5, "b": 0.5, "c": 0.5}, fleet)

    def test_heavy_rounding_still_fits_capacity(self):
        # 0.9 + 0.9 quantises down to 0.5 + 0.5 and therefore fits one GPU.
        fleet = GPUFleet(1)
        placement = place_jobs({"a": 0.9, "b": 0.9}, fleet)
        assert placement.total_for("a") == pytest.approx(0.5)
        assert fleet.total_allocated <= 1.0 + 1e-9

    def test_allocation_loss_reported(self):
        fleet = GPUFleet(1)
        placement = place_jobs({"a": 0.6}, fleet)
        assert placement.allocation_loss() == pytest.approx(0.1)

    def test_apply_false_leaves_fleet_untouched(self):
        fleet = GPUFleet(1)
        place_jobs({"a": 0.5}, fleet, apply=False)
        assert fleet.total_allocated == 0.0


class TestNetworkLinks:
    def test_upload_download_times(self):
        link = NetworkLink(name="test", uplink_mbps=10.0, downlink_mbps=20.0, rtt_seconds=0.0)
        assert link.upload_seconds(100.0) == pytest.approx(10.0)
        assert link.download_seconds(100.0) == pytest.approx(5.0)

    def test_paper_bandwidths(self):
        assert CELLULAR_4G.uplink_mbps == pytest.approx(5.1)
        assert SATELLITE.downlink_mbps == pytest.approx(15.0)
        assert CELLULAR_4G_X2.uplink_mbps == pytest.approx(10.2)

    def test_scaled_link(self):
        scaled = CELLULAR_4G.scaled(uplink_factor=2.0)
        assert scaled.uplink_mbps == pytest.approx(10.2)
        assert scaled.downlink_mbps == pytest.approx(CELLULAR_4G.downlink_mbps)

    def test_training_data_megabits_paper_example(self):
        # 4 Mbps stream, 400 s window, 10 % sampling -> 160 Mb (paper §6.5).
        assert training_data_megabits(
            stream_bitrate_mbps=4.0, window_seconds=400.0, sample_fraction=0.1
        ) == pytest.approx(160.0)

    def test_invalid_link(self):
        with pytest.raises(ConfigurationError):
            NetworkLink(name="bad", uplink_mbps=0.0, downlink_mbps=1.0)

    def test_invalid_transfer_sizes(self):
        with pytest.raises(ConfigurationError):
            CELLULAR_4G.upload_seconds(-1.0)
        with pytest.raises(ConfigurationError):
            training_data_megabits(sample_fraction=0.0)


class TestEdgeServer:
    def test_invalid_spec(self):
        with pytest.raises(SchedulingError):
            EdgeServerSpec(num_gpus=0)
        with pytest.raises(SchedulingError):
            EdgeServerSpec(num_gpus=1, delta=0.0)
        with pytest.raises(SchedulingError):
            EdgeServerSpec(num_gpus=1, min_inference_accuracy=1.0)

    def test_server_streams_and_jobs(self, small_server):
        assert small_server.num_streams == 2

    def test_server_rejects_duplicate_streams(self, cityscapes_pair):
        spec = EdgeServerSpec(num_gpus=1)
        with pytest.raises(SchedulingError):
            EdgeServer(spec, [cityscapes_pair[0], cityscapes_pair[0]])

    def test_server_stream_lookup(self, small_server, cityscapes_pair):
        assert small_server.stream(cityscapes_pair[0].name) is cityscapes_pair[0]
        with pytest.raises(SchedulingError):
            small_server.stream("missing")

    def test_server_requires_streams(self):
        with pytest.raises(SchedulingError):
            EdgeServer(EdgeServerSpec(num_gpus=1), [])
