package vmem_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/memcentric/mcdla/internal/accel"
	"github.com/memcentric/mcdla/internal/core"
	"github.com/memcentric/mcdla/internal/dnn"
	"github.com/memcentric/mcdla/internal/train"
	"github.com/memcentric/mcdla/internal/vmem"
)

// randomGraph builds a structurally random but valid network: a CNN-style
// trunk with random branches and merges, a recurrent chain, or a transformer
// stack, chosen by the seed. The generator only goes through the public
// Builder, so every graph it can produce is one the planner must handle.
func randomGraph(rng *rand.Rand) *dnn.Graph {
	switch rng.Intn(3) {
	case 0:
		return randomCNN(rng)
	case 1:
		return randomRNN(rng)
	default:
		return randomTransformer(rng)
	}
}

func randomCNN(rng *rand.Rand) *dnn.Graph {
	batch := 1 + rng.Intn(16)
	b := dnn.NewBuilder("rand-cnn", batch)
	x := b.Input(3, 64, 64)
	channels := 3
	for i := 0; i < 3+rng.Intn(6); i++ {
		switch rng.Intn(6) {
		case 0, 1:
			channels = 8 * (1 + rng.Intn(8))
			x = b.Conv(fmt.Sprintf("conv%d", i), x, channels, 3, 1, 1)
		case 2:
			x = b.ReLU(fmt.Sprintf("relu%d", i), x)
		case 3:
			x = b.BatchNorm(fmt.Sprintf("bn%d", i), x)
		case 4:
			// Residual pair: two branches off x merged with Add.
			a := b.Conv(fmt.Sprintf("branchA%d", i), x, channels, 3, 1, 1)
			c := b.Conv(fmt.Sprintf("branchB%d", i), x, channels, 3, 1, 1)
			x = b.Add(fmt.Sprintf("add%d", i), a, c)
		default:
			x = b.Dropout(fmt.Sprintf("drop%d", i), x)
		}
	}
	x = b.GlobalPool("gpool", x)
	x = b.FC("fc", x, 8*(1+rng.Intn(16)))
	b.Softmax("prob", x)
	return b.Finish()
}

func randomRNN(rng *rand.Rand) *dnn.Graph {
	batch := 1 + rng.Intn(16)
	hidden := 16 * (1 + rng.Intn(16))
	steps := 1 + rng.Intn(12)
	b := dnn.NewBuilder("rand-rnn", batch)
	x := b.InputVec(hidden)
	for t := 1; t <= steps; t++ {
		switch rng.Intn(3) {
		case 0:
			x = b.RNNCell(fmt.Sprintf("t%d", t), x, hidden, "rand-rnn/w")
		case 1:
			x = b.LSTMCell(fmt.Sprintf("t%d", t), x, hidden, "rand-rnn/w-lstm")
		default:
			x = b.GRUCell(fmt.Sprintf("t%d", t), x, hidden, "rand-rnn/w-gru")
		}
	}
	return b.FinishRecurrent(steps)
}

func randomTransformer(rng *rand.Rand) *dnn.Graph {
	heads := 1 + rng.Intn(4)
	cfg := dnn.TransformerConfig{
		Name:   "rand-xf",
		Layers: 1 + rng.Intn(3),
		DModel: heads * 8 * (1 + rng.Intn(4)),
		Heads:  heads,
		FFN:    16 * (1 + rng.Intn(8)),
		SeqLen: 8 * (1 + rng.Intn(8)),
	}
	return dnn.Transformer(cfg, 1+rng.Intn(8))
}

// TestPlanProperties drives the planner over a randomized graph grid and
// checks the §IV policy invariants the engines rely on:
//
//  1. every Stash tensor appears in the prefetch queue exactly once, at or
//     before (in backward order) its first backward use;
//  2. Recompute only ever selects cheap (!Expensive) non-input producers;
//  3. Stash only ever selects expensive or input producers (unless recompute
//     is disabled);
//  4. the queue's total bytes equal OffloadBytes — prefetch traffic is
//     symmetric with offload traffic.
func TestPlanProperties(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng)
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: generator produced invalid graph: %v", seed, err)
		}
		opt := vmem.Options{DisableRecompute: seed%5 == 4}
		p := vmem.Analyze(g, opt)
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d (%s): plan invalid: %v", seed, g.Name, err)
		}

		queue := p.PrefetchSchedule().Items
		seen := make(map[int]int)
		var queueBytes int64
		prevLayer := len(g.Layers)
		for _, it := range queue {
			if it.Layer > prevLayer {
				t.Fatalf("seed %d (%s): queue not in backward order: layer %d after %d", seed, g.Name, it.Layer, prevLayer)
			}
			prevLayer = it.Layer
			queueBytes += it.Bytes
			if it.Tensor < 0 {
				continue
			}
			seen[it.Tensor]++
			if first := p.FirstBackwardUse(it.Tensor); it.Layer < first {
				t.Fatalf("seed %d (%s): tensor %d queued at layer %d after its first backward use %d",
					seed, g.Name, it.Tensor, it.Layer, first)
			}
		}
		for id, tp := range p.Tensors {
			producer := g.Layer(id)
			switch tp.Action {
			case vmem.Stash:
				if n := seen[id]; n != 1 {
					t.Fatalf("seed %d (%s): stash tensor %d prefetched %d times, want exactly 1", seed, g.Name, id, n)
				}
				if !opt.DisableRecompute && producer.Kind != dnn.Input && !producer.Kind.Expensive() {
					t.Fatalf("seed %d (%s): cheap tensor %d (%v) stashed with recompute enabled", seed, g.Name, id, producer.Kind)
				}
			case vmem.Recompute:
				if producer.Kind == dnn.Input || producer.Kind.Expensive() {
					t.Fatalf("seed %d (%s): recompute selected %v layer %d", seed, g.Name, producer.Kind, id)
				}
				if seen[id] != 0 {
					t.Fatalf("seed %d (%s): recompute tensor %d appears in the prefetch queue", seed, g.Name, id)
				}
			}
		}
		if queueBytes != p.OffloadBytes() {
			t.Fatalf("seed %d (%s): prefetch queue carries %d bytes, offload %d — not symmetric",
				seed, g.Name, queueBytes, p.OffloadBytes())
		}
		if p.TrafficBytes() != 2*p.OffloadBytes() {
			t.Fatalf("seed %d (%s): traffic %d != 2x offload %d", seed, g.Name, p.TrafficBytes(), p.OffloadBytes())
		}
	}
}

// TestPlanTrafficMatchesEngine ties the planner to the engine: on a
// randomized graph grid, the backing-store traffic core.Simulate charges is
// exactly the plan's offload bytes out plus the same bytes back. A drift in
// either direction means the engine is inventing or dropping DMAs the plan
// never scheduled.
func TestPlanTrafficMatchesEngine(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		g := randomGraph(rng)
		s, err := train.BuildGraph(g, g.Batch, 1, train.DataParallel, train.FP16)
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, g.Name, err)
		}
		plan := vmem.Analyze(g, vmem.Options{})
		for _, d := range []core.Design{core.NewDCDLA(accel.Default(), 1), core.NewMCDLAB(accel.Default(), 1)} {
			r, err := core.Simulate(d, s)
			if err != nil {
				t.Fatalf("seed %d (%s) × %s: %v", seed, g.Name, d.Name, err)
			}
			if got, want := int64(r.VirtTraffic), plan.TrafficBytes(); got != want {
				t.Fatalf("seed %d (%s) × %s: engine charged %d bytes, plan schedules %d",
					seed, g.Name, d.Name, got, want)
			}
		}
	}
}

// TestOracleHasNoPlan pins the oracle mode: no tensors, no queue, no traffic.
func TestOracleHasNoPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := vmem.Analyze(randomGraph(rng), vmem.Options{Oracle: true})
	if p.Planned() != 0 || len(p.PrefetchSchedule().Items) != 0 || p.TrafficBytes() != 0 {
		t.Fatalf("oracle plan moves data: %d tensors, %d queued, %d bytes",
			p.Planned(), len(p.PrefetchSchedule().Items), p.TrafficBytes())
	}
}

// TestPreparedOffloadsMatchOffloadsAfter is the differential test for
// Prepare's counting-pass offload table: on every Table III network plus the
// transformers, under both strategies, with recompute on and off and in
// oracle mode, each layer's list equals what OffloadsAfter derives for that
// layer alone (slices.Equal treats nil and empty as equal). The oracle-mode
// plan offloads nothing, so its table answers empty for every layer.
func TestPreparedOffloadsMatchOffloadsAfter(t *testing.T) {
	names := append(dnn.BenchmarkNames(), dnn.TransformerNames()...)
	for _, name := range names {
		for _, strategy := range []train.Strategy{train.DataParallel, train.ModelParallel} {
			s, err := train.BuildSeq(name, 64, 8, strategy, 0, train.FP16)
			if err != nil {
				t.Fatalf("%s %v: %v", name, strategy, err)
			}
			for _, opt := range []vmem.Options{{}, {DisableRecompute: true}, {Oracle: true}} {
				pr, err := vmem.Prepare(s.Graph, opt)
				if err != nil {
					t.Fatalf("%s %v %+v: %v", name, strategy, opt, err)
				}
				for id := range s.Graph.Layers {
					want, _ := pr.Plan.OffloadsAfter(id)
					if opt.Oracle && want != nil {
						t.Fatalf("%s %v: oracle plan offloads %v after layer %d", name, strategy, want, id)
					}
					if got := pr.Offloads(id); !slices.Equal(got, want) {
						t.Errorf("%s %v %+v layer %d: Offloads = %v, OffloadsAfter = %v", name, strategy, opt, id, got, want)
					}
				}
			}
		}
	}
}
