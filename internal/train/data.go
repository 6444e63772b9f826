package train

import (
	"fmt"
	"math"
	"math/rand"

	"overlap/internal/tensor"
)

// The training fixtures are dyadic rationals: every entry is k/2^4 with
// |k| ≤ 8, and the learning rate is a power of two. All the float64
// arithmetic a training step performs on such values — products, sums
// in any order, the SGD update — is then exact (the significand budget
// is bounded far below 53 bits for the miniature shapes), so the same
// gradients come out bit-identical no matter how a decomposition
// reorders the collective's additions. That is what lets the
// cross-config digest comparison demand equality instead of tolerance.
const (
	quantBits  = 4
	quantRange = 8
)

// drawShards draws a [rows, cols] tensor of dyadic rationals k·unit, k
// uniform in [-quantRange, quantRange], straight into n pooled row
// blocks: block d holds rows [d·rows/n, (d+1)·rows/n), device d's shard
// of a tensor sharded on dim 0 (n = 1 is the whole tensor, replicated).
// The blocks are filled in device order, so the draws come in the
// global row-major order of the unsharded tensor.
func drawShards(rng *rand.Rand, n, rows, cols int, unit float64) []*tensor.Tensor {
	out := make([]*tensor.Tensor, n)
	for d := range out {
		t := tensor.NewPooled(rows/n, cols)
		data := t.Data()
		for i := range data {
			data[i] = float64(rng.Intn(2*quantRange+1)-quantRange) * unit
		}
		out[d] = t
	}
	return out
}

// CheckLR rejects learning rates that are not powers of two in
// [2^-12, 1]: anything else breaks the dyadic-exactness contract above.
func CheckLR(lr float64) error {
	frac, exp := math.Frexp(lr)
	if frac != 0.5 || exp > 1 || exp < -11 {
		return fmt.Errorf("train: learning rate %g must be a power of two in [2^-12, 1] to keep the update arithmetic exact", lr)
	}
	return nil
}

// Args builds the deterministic training inputs for prog: token-sharded
// activations and negated targets, weights sharded or replicated per
// the strategy, the scalar cotangent seed (1) and negated learning
// rate. The layout follows the Param* constants; runtime and
// interpreter replicate single-entry lists, so replicated parameters
// carry one tensor. Every shard is drawn where it lives, in a tensor
// from the arena's free lists (tensor.NewPooled); a caller that is done
// with the arguments may hand them back with runtime.ReleaseArgs.
func Args(prog *Program, seed int64, lr float64) ([][]*tensor.Tensor, error) {
	if err := CheckLR(lr); err != nil {
		return nil, err
	}
	cfg := prog.Config
	rng := rand.New(rand.NewSource(seed))
	n := cfg.Devices
	unit := math.Ldexp(1, -quantBits)

	args := make([][]*tensor.Tensor, ParamWeight0+cfg.NumWeights())
	args[ParamX] = drawShards(rng, n, cfg.Tokens, cfg.Model, unit)
	args[ParamNegY] = drawShards(rng, n, cfg.Tokens, cfg.Model, -unit) // k·(−unit) is −(k·unit), bit for bit
	args[ParamSeed] = []*tensor.Tensor{tensor.Scalar(1)}
	args[ParamNegLR] = []*tensor.Tensor{tensor.Scalar(-lr)}
	for i := 0; i < cfg.NumWeights(); i++ {
		shape := prog.WeightGlobal[i]
		// Scale by 2^-s with 2^s >= sqrt(fan_in): the usual
		// 1/sqrt(fan_in) initialization rounded to a power of two, so
		// activations stay O(1) through the layer chain without
		// spending any dyadic-exactness budget (the scale only shifts
		// exponents).
		wunit := math.Ldexp(unit, -weightShift(shape[0]))
		shards := 1
		if cfg.Strategy == StrategyMegatron {
			shards = n // row-sharded on the ring
		}
		args[ParamWeight0+i] = drawShards(rng, shards, shape[0], shape[1], wunit)
	}
	return args, nil
}

// weightShift returns the smallest s with 2^s >= sqrt(fanIn).
func weightShift(fanIn int) int {
	s := 0
	for 1<<(2*s) < fanIn {
		s++
	}
	return s
}
