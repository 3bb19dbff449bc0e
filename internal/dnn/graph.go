package dnn

import "fmt"

// Graph is a network's data-dependency DAG in topological order (builders
// append layers only after their producers, so slice order is a valid
// forward schedule — the same compile-time DAG the DL framework hands to the
// memory-overlaying runtime in §II-B).
type Graph struct {
	Name   string
	Batch  int
	Layers []*Layer

	// Timesteps is nonzero for recurrent benchmarks (Table III lists
	// timesteps instead of layer count for the four RNNs).
	Timesteps int

	// SeqLen is nonzero for transformer benchmarks: the token count whose
	// square scales the attention score tensors.
	SeqLen int
}

// Layer returns the layer with the given ID.
func (g *Graph) Layer(id int) *Layer {
	if id < 0 || id >= len(g.Layers) {
		panic(fmt.Sprintf("dnn: graph %q has no layer %d", g.Name, id))
	}
	return g.Layers[id]
}

// Consumers returns, for every layer ID, the IDs of layers that consume its
// output, in topological order.
func (g *Graph) Consumers() [][]int {
	cons := make([][]int, len(g.Layers))
	for _, l := range g.Layers {
		for _, in := range l.Inputs {
			cons[in] = append(cons[in], l.ID)
		}
	}
	return cons
}

// LastForwardUse returns, for every layer ID, the topological index of the
// last layer that reads its output during forward propagation (its own index
// if unconsumed). This is the reuse-distance fact the virtual-memory runtime
// schedules offloads around.
func (g *Graph) LastForwardUse() []int {
	last := make([]int, len(g.Layers))
	for i := range last {
		last[i] = i
	}
	for _, l := range g.Layers {
		for _, in := range l.Inputs {
			if l.ID > last[in] {
				last[in] = l.ID
			}
		}
	}
	return last
}

// MajorLayers reports the count of Table III-style layers (conv, fc) for
// feed-forward networks. Recurrent graphs report per-timestep cells; use
// Timesteps for the paper's RNN accounting.
func (g *Graph) MajorLayers() int {
	n := 0
	for _, l := range g.Layers {
		if l.Kind.Major() {
			n++
		}
	}
	return n
}

// TotalWeightBytes reports the model's parameter footprint: each weight
// group counted once, at its lead layer, so shared recurrent weights count
// once.
func (g *Graph) TotalWeightBytes() int64 {
	var total int64
	for _, l := range g.Layers {
		if l.groupLead {
			total += l.WeightBytes()
		}
	}
	return total
}

// TotalFeatureMapBytes reports the sum of all layer output footprints — the
// O(N) training working set the paper's capacity argument is about.
func (g *Graph) TotalFeatureMapBytes() int64 {
	var total int64
	for _, l := range g.Layers {
		total += l.OutBytes()
	}
	return total
}

// StashBytes reports the total bytes the memory-overlaying policy stashes to
// the backing store per iteration: the inputs of every expensive layer plus
// their extra backward state, counting each producer tensor once.
func (g *Graph) StashBytes() int64 {
	stashed := make([]bool, len(g.Layers))
	var total int64
	for _, l := range g.Layers {
		if !l.Kind.Expensive() {
			continue
		}
		for _, in := range l.Inputs {
			if !stashed[in] {
				stashed[in] = true
				total += g.Layers[in].OutBytes()
			}
		}
		total += l.StashExtraBytes
	}
	return total
}

// TotalMACs reports the forward-pass multiply-accumulate count.
func (g *Graph) TotalMACs() int64 {
	var total int64
	for _, l := range g.Layers {
		total += l.MACs()
	}
	return total
}

// Validate checks structural invariants: IDs are dense and topologically
// ordered (which makes the graph acyclic by construction), inputs exist and
// precede consumers, there is exactly one data source, shapes and GEMM
// dimensions are positive, and every non-input layer has at least one
// producer. It is the post-condition of every Build and the oracle the dnn
// fuzz target holds the builders to.
func (g *Graph) Validate() error {
	if g.Batch <= 0 {
		return fmt.Errorf("dnn: graph %q: batch %d must be positive", g.Name, g.Batch)
	}
	if len(g.Layers) == 0 {
		return fmt.Errorf("dnn: graph %q has no layers", g.Name)
	}
	inputs := 0
	for i, l := range g.Layers {
		if l.ID != i {
			return fmt.Errorf("dnn: graph %q: layer %q has ID %d at index %d", g.Name, l.Name, l.ID, i)
		}
		if !l.Out.Valid() {
			return fmt.Errorf("dnn: graph %q: layer %q has invalid shape %v", g.Name, l.Name, l.Out)
		}
		if l.Out.N != g.Batch {
			return fmt.Errorf("dnn: graph %q: layer %q batch %d != graph batch %d", g.Name, l.Name, l.Out.N, g.Batch)
		}
		if l.Kind == Input {
			inputs++
			if len(l.Inputs) != 0 {
				return fmt.Errorf("dnn: graph %q: input layer %q has producers", g.Name, l.Name)
			}
		}
		if l.Kind != Input && len(l.Inputs) == 0 {
			return fmt.Errorf("dnn: graph %q: layer %q has no producers", g.Name, l.Name)
		}
		for _, in := range l.Inputs {
			if in < 0 || in >= i {
				return fmt.Errorf("dnn: graph %q: layer %q input %d not topologically earlier", g.Name, l.Name, in)
			}
		}
		for _, gm := range l.GEMMs {
			if gm.M <= 0 || gm.N <= 0 || gm.K <= 0 {
				return fmt.Errorf("dnn: graph %q: layer %q has nonpositive GEMM %+v", g.Name, l.Name, gm)
			}
		}
		if l.WeightElems < 0 || l.StashExtraBytes < 0 || l.EwOps < 0 {
			return fmt.Errorf("dnn: graph %q: layer %q has negative work counts", g.Name, l.Name)
		}
		if l.Kind.Stateful() && l.WeightGroup == "" {
			return fmt.Errorf("dnn: graph %q: stateful layer %q has no weight group", g.Name, l.Name)
		}
	}
	if inputs != 1 {
		return fmt.Errorf("dnn: graph %q has %d input layers, want exactly 1", g.Name, inputs)
	}
	return nil
}

// Summary is a one-line description used by the CLI's `networks` subcommand.
func (g *Graph) Summary() string {
	return fmt.Sprintf("%-12s layers=%-3d batch=%-4d weights=%6.1f MB  fmaps=%8.1f MB  stash=%8.1f MB  MACs=%7.1f G",
		g.Name, g.MajorLayers(), g.Batch,
		float64(g.TotalWeightBytes())/1e6,
		float64(g.TotalFeatureMapBytes())/1e6,
		float64(g.StashBytes())/1e6,
		float64(g.TotalMACs())/1e9)
}
