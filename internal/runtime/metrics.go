package runtime

import "overlap/internal/obs"

// Runtime-side instrumentation handles, resolved once against the
// process-wide registry. The per-device goroutines update them
// concurrently from the execution hot path, which is exactly the
// workload the registry's atomic handles are built for: no locks, no
// allocation, safe under -race.
var (
	rtInstructions = obs.Default().Counter("overlap_runtime_instructions_total",
		"Instructions executed across all runtime devices (loop bodies counted per iteration).")
	rtComputeSpans = obs.Default().Histogram("overlap_runtime_compute_span_seconds",
		"Wall-clock duration of local-instruction evaluations on runtime devices.", obs.TimeBuckets())
	rtStallSpans = obs.Default().Histogram("overlap_runtime_stall_span_seconds",
		"Replayed waits of a device's done for its asynchronous transfer to arrive.", obs.TimeBuckets())
	rtCollectiveSpans = obs.Default().Histogram("overlap_runtime_collective_span_seconds",
		"Replayed waits of a blocking collective's members for its result.", obs.TimeBuckets())
	rtTransfers = obs.Default().Counter("overlap_runtime_transfers_total",
		"Asynchronous transfers posted to a destination mailbox.")
	rtTransferBytes = obs.Default().Counter("overlap_runtime_transfer_bytes_total",
		"Payload bytes posted to a destination mailbox.")
)

// Process-transport instrumentation: the serialization boundary the
// socket fabric adds over the in-process one, plus the worker fleet.
var (
	rtSerializeSpans = obs.Default().Histogram("overlap_runtime_serialize_span_seconds",
		"Wall-clock duration of tensor-frame encodes onto worker sockets.", obs.TimeBuckets())
	rtDeserializeSpans = obs.Default().Histogram("overlap_runtime_deserialize_span_seconds",
		"Wall-clock duration of tensor-frame decodes off worker sockets.", obs.TimeBuckets())
	rtWireFrames = obs.Default().Counter("overlap_runtime_wire_frames_total",
		"Tensor frames written to process-transport sockets by the parent.")
	rtWireFrameBytes = obs.Default().Counter("overlap_runtime_wire_frame_bytes_total",
		"Tensor payload bytes written to process-transport sockets by the parent.")
	rtTransportWorkers = obs.Default().Counter("overlap_runtime_transport_workers_total",
		"Worker processes spawned by the process transport.")
)

// Fault-injection and abort-path telemetry: how often injected faults
// fired (by kind), how often runs aborted (and why), and how fast the
// abort path wound the goroutine fleet down once the first error hit.
var (
	rtFaultInjections = obs.Default().Counter("overlap_runtime_fault_injections_total",
		"Injected faults that fired during runtime executions (all kinds).")
	rtFaultDrops = obs.Default().Counter("overlap_runtime_fault_drops_total",
		"Injected transfer deliveries dropped on the wire.")
	rtFaultDuplicates = obs.Default().Counter("overlap_runtime_fault_duplicates_total",
		"Injected duplicate transfer deliveries.")
	rtFaultDelays = obs.Default().Counter("overlap_runtime_fault_delays_total",
		"Injected extra wire delays applied to transfer deliveries.")
	rtFaultCrashes = obs.Default().Counter("overlap_runtime_fault_crashes_total",
		"Injected device crashes.")
	rtAborts = obs.Default().Counter("overlap_runtime_abort_total",
		"Runtime executions that aborted with an error.")
	rtAbortDeadlines = obs.Default().Counter("overlap_runtime_abort_deadline_total",
		"Runtime executions aborted by a context deadline or cancellation.")
	rtAbortJoin = obs.Default().Histogram("overlap_runtime_abort_join_seconds",
		"Wall-clock from the first failure to every device goroutine and the transport joined.", obs.TimeBuckets())
)
