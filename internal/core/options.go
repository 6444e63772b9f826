package core

import (
	"encoding/json"

	"overlap/internal/machine"
)

// SchedulerKind selects the asynchronous-collective scheduling approach
// from §5.2.
type SchedulerKind int

const (
	// SchedulerBottomUp is the reverse list scheduler of Algorithm 2,
	// the paper's default (slightly better, more general).
	SchedulerBottomUp SchedulerKind = iota
	// SchedulerTopDown is the start-early/done-late forward scheduler.
	// It is kept as Figure 16's comparison and as an autotune candidate,
	// never as a default.
	SchedulerTopDown
	// SchedulerNone leaves start/done pairs adjacent — communication is
	// decomposed but not overlapped; useful for ablations.
	SchedulerNone
)

func (s SchedulerKind) String() string {
	switch s {
	case SchedulerBottomUp:
		return "bottom-up"
	case SchedulerTopDown:
		return "top-down"
	default:
		return "none"
	}
}

// MarshalText writes the scheduler's name — the form Knobs, and so every
// plan file, serializes it in.
func (s SchedulerKind) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText reads a scheduler name. An unknown name degrades to
// SchedulerNone, the conservative choice for artifacts written by a
// future version.
func (s *SchedulerKind) UnmarshalText(name []byte) error {
	switch string(name) {
	case SchedulerBottomUp.String():
		*s = SchedulerBottomUp
	case SchedulerTopDown.String():
		*s = SchedulerTopDown
	default:
		*s = SchedulerNone
	}
	return nil
}

// Options configures the overlap pipeline: the machine model it prices
// decisions on, and the knobs that choose what it emits.
type Options struct {
	// Spec is the machine model used by the cost model and schedulers.
	Spec machine.Spec

	Knobs
}

// Knobs is the pipeline's knob set, declared once: every setting that
// chooses what Apply emits. It is also a decision's serialized identity,
// with JSON tags pinned by golden tests. The machine spec is deliberately
// not in it — persisted artifacts key on the spec fingerprint and
// re-attach a live Spec on decode — so one encoding serves the compiled
// Plan artifact, its store, and the serving daemon. To add a knob, see
// pipeline.go.
type Knobs struct {
	// Scheduler selects the §5.2 scheduling approach.
	Scheduler SchedulerKind `json:"scheduler"`

	// Unroll enables the degree-2 loop unrolling of §5.4.1: it removes
	// the loop-carried Copy instructions and, for Einsum-ReduceScatter,
	// splits the accumulation into two interleaved chains (plus an
	// alignment epilogue) so CollectivePermuteDones can overlap the
	// other chain's einsum.
	Unroll bool `json:"unroll,omitempty"`

	// Bidirectional enables the §5.4.2 optimization: each step moves
	// two shards in opposite ring directions, halving the ring's
	// serialized transfer time and doubling per-step computation.
	// Requires an even ring size; odd rings fall back to unidirectional.
	Bidirectional bool `json:"bidirectional,omitempty"`

	// Rolled emits the Looped CollectiveEinsum as an actual counted
	// loop (hlo.OpLoop) instead of the expanded sequence. The rolled
	// form is semantically identical but cannot be software-pipelined
	// (start/done pairs cannot straddle the back-edge) and carries the
	// per-iteration aliasing Copy, so it serves as a fidelity/ablation
	// mode; Unroll and Bidirectional are ignored when set.
	Rolled bool `json:"rolled,omitempty"`

	// UseCostModel gates each site on the §5.5 benefit estimate; when
	// false every matched site is decomposed. A searched decision has it
	// off — the search replaces the per-site gate — so no plan prints it.
	UseCostModel bool `json:"use_cost_model,omitempty"`

	// FuseAddIntoEinsum enables the fusion pass that merges result
	// accumulation with its producing einsum (with, under
	// OverlapFriendlyFusion, the §5.4.3 heuristic of preferring the
	// einsum that already depends on an asynchronous
	// CollectivePermuteDone).
	FuseAddIntoEinsum bool `json:"fuse_add_into_einsum,omitempty"`

	// OverlapFriendlyFusion applies the §5.4.3 operand-choice heuristic;
	// when false, fusion picks the first einsum operand (the "bad"
	// default of Fig 11a), exposing the regression the paper describes.
	//
	// From an untransformed input it changes nothing: the heuristic
	// looks for a CollectivePermuteDone, and only the async stage, which
	// runs after fusion, makes one. It acts only on an input that already
	// carries async pairs (the core goldens); the fuse stage's key drops
	// it everywhere else (Stage.On).
	OverlapFriendlyFusion bool `json:"overlap_friendly_fusion,omitempty"`

	// RematerializeGathers duplicates multi-consumer AllGathers so each
	// consuming einsum owns its gather, restoring the single-consumer
	// pattern the decomposition matches. It trades extra wire time for
	// lower memory pressure and more overlap sites, which pays off in
	// autodiff-produced backward passes (the weight gradient shares the
	// forward gather) but not where sharing was already cheap — so it
	// is opt-in.
	RematerializeGathers bool `json:"rematerialize_gathers,omitempty"`

	// SplitAllReduce canonicalizes each AllReduce into ReduceScatter +
	// AllGather before pattern matching (§2.1's identity), exposing both
	// halves as decomposition targets — a natural extension the paper's
	// future-work discussion implies.
	SplitAllReduce bool `json:"split_all_reduce,omitempty"`

	// ConcatToPadMax rewrites Concat(a,b) on einsum local operands into
	// Max(PadLow, PadHigh) form (§5.4.3) so the pre-processing can fuse
	// with the einsum.
	ConcatToPadMax bool `json:"concat_to_pad_max,omitempty"`

	// GradBucketBytes, when positive, runs the DDP-style gradient
	// bucketing pass before everything else: ring AllReduces (the
	// backward pass's per-weight gradient reductions) are grouped into
	// buckets of at most this many bytes and lowered directly to an
	// asynchronous ring all-reduce, so early buckets communicate while
	// later layers' backward einsums still compute. Zero disables the
	// pass. The value is a searchable autotuner knob: small buckets
	// start communicating earlier, large buckets amortize per-step
	// latency better.
	GradBucketBytes int64 `json:"grad_bucket_bytes,omitempty"`

	// KernelSplitK is stamped on every einsum Apply emits
	// (hlo.Instruction.SplitK, printed as splitk=N). When >= 2 the
	// kernel engine executes skinny GEMMs (the decomposed loop's partial
	// einsums: few output rows, large contraction) by partitioning the
	// contraction into this many ranges reduced with a fixed-shape
	// binary tree. For a fixed factor
	// results are byte-identical across worker counts, but different
	// factors reassociate the contraction and round differently — so
	// the factor is a planned, fingerprinted decision the autotuner
	// searches per program, never a machine-derived heuristic. 0 (and
	// 1) keep every kernel on the reference accumulation order.
	KernelSplitK int `json:"kernel_split_k,omitempty"`
}

// UnmarshalJSON decodes a serialized decision. A missing scheduler reads
// as SchedulerNone, as an unknown name does: the zero Knobs means
// bottom-up, but an artifact that names no scheduler gets the
// conservative one.
func (k *Knobs) UnmarshalJSON(data []byte) error {
	type fields Knobs // Knobs without this method, so decoding it does not recurse
	f := fields{Scheduler: SchedulerNone}
	if err := json.Unmarshal(data, &f); err != nil {
		return err
	}
	*k = Knobs(f)
	return nil
}

// DefaultOptions returns the configuration the paper deploys: all
// optimizations on, bottom-up scheduling, cost model enabled. It panics
// on an invalid machine spec (see machine.Spec.Validate) — the
// alternative is NaN/Inf silently leaking into every cost-model and
// simulator time derived from the returned options.
func DefaultOptions(spec machine.Spec) Options {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	return Options{Spec: spec, Knobs: Knobs{
		Scheduler:             SchedulerBottomUp,
		Unroll:                true,
		Bidirectional:         true,
		UseCostModel:          true,
		FuseAddIntoEinsum:     true,
		OverlapFriendlyFusion: true,
	}}
}

// Report summarizes what the pipeline did to a computation.
type Report struct {
	// SitesFound counts matched collective/einsum pairs.
	SitesFound int
	// SitesDecomposed counts sites actually rewritten.
	SitesDecomposed int
	// SitesRejected counts sites the cost model declined.
	SitesRejected int
	// Decisions records the per-site cost-model evaluation.
	Decisions []Decision
	// FusionsFormed counts fusion nodes created.
	FusionsFormed int
	// Buckets describes the gradient buckets formed when
	// GradBucketBytes is set.
	Buckets []BucketInfo
}
