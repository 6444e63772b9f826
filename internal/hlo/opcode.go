// Package hlo implements a small XLA-HLO-like intermediate representation:
// a dataflow graph of tensor-producing instructions held in a scheduled
// sequence. It carries exactly the operations the ASPLOS'23 overlap paper
// manipulates — einsums, the MPI-style collectives of intra-layer model
// parallelism, slice/update bookkeeping ops, and the asynchronous
// CollectivePermuteStart/Done pair introduced by the scheduling pass.
//
// A Computation's instruction list doubles as its schedule: instructions
// execute in list order on every participating device (SPMD), and the
// scheduling passes in internal/core reorder the list without changing the
// dataflow edges.
package hlo

// OpCode identifies the operation an Instruction performs.
type OpCode int

// The supported operation set. It deliberately mirrors the subset of XLA
// HLO that the paper's compiler passes touch.
const (
	OpInvalid OpCode = iota

	// Data sources.
	OpParameter // computation input
	OpConstant  // literal tensor
	OpZero      // zero-filled tensor of a declared shape (no literal storage)

	// Dense compute.
	OpEinsum // general two-operand Einstein summation
	OpAdd    // element-wise addition
	OpMax    // element-wise maximum

	// Data movement / bookkeeping.
	OpCopy               // explicit buffer copy (models loop-carried aliasing copies)
	OpReshape            // row-major reinterpretation
	OpTranspose          // dimension permutation
	OpConcat             // concatenation along one axis
	OpPad                // low/high padding with a fill value
	OpSlice              // static slice
	OpDynamicSlice       // slice at a partition-dependent offset
	OpDynamicUpdateSlice // scatter a slice at a partition-dependent offset

	// Collectives (blocking).
	OpAllGather         // concatenate shards across a device group
	OpReduceScatter     // sum across a group, keep own shard
	OpAllReduce         // sum across a group, keep full result
	OpAllToAll          // transpose shards across a group
	OpCollectivePermute // point-to-point transfers along source→target pairs

	// Asynchronous collective pair produced by the scheduling pass.
	OpCollectivePermuteStart
	OpCollectivePermuteDone

	// Fusion of several element-wise/bookkeeping ops (and at most one
	// einsum) into a single kernel.
	OpFusion

	// Tuple groups several values as the computation result so
	// dead-code elimination keeps every output subgraph alive; it has a
	// rank-0 placeholder shape and no cost.
	OpTuple

	// Loop is a counted (while-style) loop with loop-carried buffers:
	// the operands are the initial values, the Body's parameters receive
	// the carried values each iteration, the Body's root must be a Tuple
	// naming the next values, and the Loop's own result is the carried
	// buffer selected by ResultIndex after TripCount iterations. The
	// rolled form of the Looped CollectiveEinsum (§5.1) is emitted this
	// way; the expanded form unrolls it into the parent sequence.
	OpLoop
)

var opNames = map[OpCode]string{
	OpInvalid:                "invalid",
	OpParameter:              "parameter",
	OpConstant:               "constant",
	OpZero:                   "zero",
	OpEinsum:                 "einsum",
	OpAdd:                    "add",
	OpMax:                    "max",
	OpCopy:                   "copy",
	OpReshape:                "reshape",
	OpTranspose:              "transpose",
	OpConcat:                 "concatenate",
	OpPad:                    "pad",
	OpSlice:                  "slice",
	OpDynamicSlice:           "dynamic-slice",
	OpDynamicUpdateSlice:     "dynamic-update-slice",
	OpAllGather:              "all-gather",
	OpReduceScatter:          "reduce-scatter",
	OpAllReduce:              "all-reduce",
	OpAllToAll:               "all-to-all",
	OpCollectivePermute:      "collective-permute",
	OpCollectivePermuteStart: "collective-permute-start",
	OpCollectivePermuteDone:  "collective-permute-done",
	OpFusion:                 "fusion",
	OpTuple:                  "tuple",
	OpLoop:                   "loop",
}

// String returns the HLO-style lowercase name of the opcode.
func (op OpCode) String() string {
	if s, ok := opNames[op]; ok {
		return s
	}
	return "unknown"
}
