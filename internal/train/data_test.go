package train_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"overlap/internal/partition"
	"overlap/internal/tensor"
	"overlap/internal/topology"
	"overlap/internal/train"
)

// quantRand is the materialising reference Args replaced: a whole
// tensor of dyadic rationals k/2^4, k uniform in [-8, 8], in row-major
// order.
func quantRand(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	data := t.Data()
	scale := math.Ldexp(1, -4)
	for i := range data {
		data[i] = float64(rng.Intn(17)-8) * scale
	}
	return t
}

// shardedReference builds prog's arguments the way Args did before it
// drew shards in place: every full tensor first, in the same draw
// order, negated and scaled elementwise, then cut into per-device
// shards with partition.ShardTensor.
func shardedReference(prog *train.Program, seed int64, lr float64) [][]*tensor.Tensor {
	cfg := prog.Config
	rng := rand.New(rand.NewSource(seed))
	mesh := topology.NewTorus2D(1, cfg.Devices)
	rows := partition.OnDim(2, 0, 1)

	x := quantRand(rng, cfg.Tokens, cfg.Model)
	y := quantRand(rng, cfg.Tokens, cfg.Model)
	negy := tensor.New(y.Shape()...)
	for i, v := range y.Data() {
		negy.Data()[i] = -v
	}
	args := make([][]*tensor.Tensor, train.ParamWeight0+cfg.NumWeights())
	args[train.ParamX] = partition.ShardTensor(x, rows, mesh)
	args[train.ParamNegY] = partition.ShardTensor(negy, rows, mesh)
	args[train.ParamSeed] = []*tensor.Tensor{tensor.Scalar(1)}
	args[train.ParamNegLR] = []*tensor.Tensor{tensor.Scalar(-lr)}
	for i := 0; i < cfg.NumWeights(); i++ {
		w := quantRand(rng, prog.WeightGlobal[i]...)
		shift := 0
		for 1<<(2*shift) < prog.WeightGlobal[i][0] {
			shift++
		}
		scale := math.Ldexp(1, -shift)
		for j, v := range w.Data() {
			w.Data()[j] = v * scale
		}
		if cfg.Strategy == train.StrategyMegatron {
			args[train.ParamWeight0+i] = partition.ShardTensor(w, rows, mesh)
		} else {
			args[train.ParamWeight0+i] = []*tensor.Tensor{w}
		}
	}
	return args
}

// TestArgsMatchShardedReference: Args draws each shard where it lives,
// and the result is bit for bit what materialising every tensor and
// slicing it gave — same shapes, same float bits (a negated zero
// included), parameter by parameter and device by device — for both
// strategies at 2, 4 and 8 devices. Every tensor but the two scalars
// comes from the free lists.
func TestArgsMatchShardedReference(t *testing.T) {
	for _, s := range []train.Strategy{train.StrategyMegatron, train.StrategyDDP} {
		for _, n := range []int{2, 4, 8} {
			name := fmt.Sprintf("%s/%d", s, n)
			prog, err := train.Build(train.Config{Devices: n, Layers: 2, Model: 16, Hidden: 32, Tokens: 24, Strategy: s})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			const seed, lr = 3, 1.0 / 64
			got, err := train.Args(prog, seed, lr)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := shardedReference(prog, seed, lr)
			if len(got) != len(want) {
				t.Fatalf("%s: %d parameters, want %d", name, len(got), len(want))
			}
			for p := range want {
				if len(got[p]) != len(want[p]) {
					t.Fatalf("%s: parameter %d has %d shards, want %d", name, p, len(got[p]), len(want[p]))
				}
				for d, w := range want[p] {
					g := got[p][d]
					if !g.SameShape(w) {
						t.Fatalf("%s: parameter %d device %d has shape %v, want %v", name, p, d, g.Shape(), w.Shape())
					}
					for i, v := range w.Data() {
						if math.Float64bits(g.Data()[i]) != math.Float64bits(v) {
							t.Fatalf("%s: parameter %d device %d element %d is %v, want %v", name, p, d, i, g.Data()[i], v)
						}
					}
					if pooled := p != train.ParamSeed && p != train.ParamNegLR; g.Pooled() != pooled {
						t.Fatalf("%s: parameter %d device %d pooled %v, want %v", name, p, d, g.Pooled(), pooled)
					}
				}
			}
		}
	}
}
