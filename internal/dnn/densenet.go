package dnn

import "fmt"

// DenseNet121 builds the densely connected network of Huang et al. (CVPR'17)
// — the paper's reference [22] for the "larger and deeper algorithms" that
// motivate the memory capacity wall. Dense connectivity makes every layer's
// output live until the end of its block, so reuse distances stretch across
// entire stages: the adversarial case for the reuse-distance analysis and
// the workload class whose training footprint most outgrows device memory.
//
// DenseNet-121: growth rate 32, blocks of 6/12/24/16 dense layers with
// bottlenecks, transition layers with ×0.5 compression. Not part of the
// Table III suite; exposed for capacity studies and analyzer stress tests.
func DenseNet121(batch int) *Graph {
	const growth = 32
	b := NewBuilder("DenseNet-121", batch)
	x := b.Input(3, 224, 224)
	x = b.Conv("conv0", x, 2*growth, 7, 2, 3)
	x = b.BatchNorm("bn0", x)
	x = b.ReLU("relu0", x)
	x = b.Pool("pool0", x, 3, 2, 1)

	denseLayer := func(name string, in int) int {
		n := b.BatchNorm(name+"/bn1", in)
		n = b.ReLU(name+"/relu1", n)
		n = b.Conv(name+"/conv1x1", n, 4*growth, 1, 1, 0)
		n = b.BatchNorm(name+"/bn2", n)
		n = b.ReLU(name+"/relu2", n)
		return b.Conv(name+"/conv3x3", n, growth, 3, 1, 1)
	}
	denseBlock := func(stage, layers, in int) int {
		features := in
		for i := 1; i <= layers; i++ {
			out := denseLayer(fmt.Sprintf("dense%d_%d", stage, i), features)
			// Dense connectivity: concatenate the new features onto
			// everything produced so far; the concat output feeds the next
			// layer AND survives as input to every later concat.
			features = b.Concat(fmt.Sprintf("dense%d_%d/concat", stage, i), features, out)
		}
		return features
	}
	transition := func(stage, in int) int {
		n := b.BatchNorm(fmt.Sprintf("trans%d/bn", stage), in)
		n = b.ReLU(fmt.Sprintf("trans%d/relu", stage), n)
		c := b.shape(n).C / 2
		n = b.Conv(fmt.Sprintf("trans%d/conv", stage), n, c, 1, 1, 0)
		return b.Pool(fmt.Sprintf("trans%d/pool", stage), n, 2, 2, 0)
	}

	for stage, layers := range []int{6, 12, 24, 16} {
		x = denseBlock(stage+1, layers, x)
		if stage < 3 {
			x = transition(stage+1, x)
		}
	}
	x = b.BatchNorm("bn_final", x)
	x = b.ReLU("relu_final", x)
	x = b.GlobalPool("gpool", x)
	x = b.FC("fc", x, 1000)
	b.Softmax("prob", x)
	return b.Finish()
}

func init() {
	// Registered as an extended (non-Table III) workload: usable with
	// train.BuildSeq and the CLI, excluded from the paper-figure sweeps.
	benchmarks["DenseNet-121"] = DenseNet121
}
