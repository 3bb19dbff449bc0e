package dnn

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// BuilderFunc constructs one of the benchmark networks at a batch size.
type BuilderFunc func(batch int) *Graph

// benchmarks is the Table III registry, in the paper's presentation order.
var benchmarkOrder = []string{
	"AlexNet", "GoogLeNet", "VGG-E", "ResNet",
	"RNN-GEMV", "RNN-LSTM-1", "RNN-LSTM-2", "RNN-GRU",
}

var benchmarks = map[string]BuilderFunc{
	"AlexNet":    AlexNet,
	"GoogLeNet":  GoogLeNet,
	"VGG-E":      VGGE,
	"ResNet":     ResNet34,
	"RNN-GEMV":   RNNGEMV,
	"RNN-LSTM-1": RNNLSTM1,
	"RNN-LSTM-2": RNNLSTM2,
	"RNN-GRU":    RNNGRU,
}

// seqBenchmarks holds the workloads with a sequence axis: recurrent networks
// (where the sequence is the timestep count) and transformers (where it is
// the token count). BuildSeq consults it for seqlen overrides.
var seqBenchmarks = map[string]func(batch, seqlen int) *Graph{}

// Input-size guards: builders multiply batch and sequence dimensions into
// int64 byte and MAC counts, so Build bounds them to keep every derived
// quantity far from overflow (the dnn fuzz target exercises the full range).
const (
	// MaxBatch is the largest accepted batch size.
	MaxBatch = 65536
	// MaxSeqLen is the largest accepted sequence length / timestep count.
	MaxSeqLen = 8192
)

// BenchmarkNames returns the Table III workload names in paper order.
func BenchmarkNames() []string { return append([]string(nil), benchmarkOrder...) }

// CNNNames returns the four convolutional workloads (used by Fig. 2, the
// cDMA sensitivity study, and the §V-D scalability experiment).
func CNNNames() []string { return []string{"AlexNet", "GoogLeNet", "VGG-E", "ResNet"} }

// TransformerNames returns the attention-era workloads (the post-Table III
// scenario axis: dense activations, quadratic score tensors).
func TransformerNames() []string { return []string{"BERT-Large", "GPT-2"} }

// Build constructs a benchmark network by name at its default sequence
// length. Unknown names and out-of-range batch sizes are errors, never
// panics — Build is the boundary the CLI and the fuzz harness drive with
// untrusted input.
func Build(name string, batch int) (*Graph, error) {
	return BuildSeq(name, batch, 0)
}

// builds counts the graphs BuildSeq has built. Build, MustBuild and every
// caller outside the package build registry graphs through BuildSeq, so the
// count sees them all.
var builds atomic.Int64

// Builds reports how many graphs BuildSeq has built in this process, so a
// test or benchmark can hold a request to one build per distinct input.
func Builds() int64 { return builds.Load() }

// BuildSeq is Build with a sequence-length override: seqlen 0 keeps the
// workload's default, a positive seqlen re-parameterizes sequence workloads
// (token count for transformers, timestep count for RNNs) and is an error
// for workloads without a sequence axis.
func BuildSeq(name string, batch, seqlen int) (*Graph, error) {
	if batch <= 0 || batch > MaxBatch {
		return nil, fmt.Errorf("dnn: batch %d outside [1, %d]", batch, MaxBatch)
	}
	if seqlen < 0 || seqlen > MaxSeqLen {
		return nil, fmt.Errorf("dnn: seqlen %d outside [0, %d]", seqlen, MaxSeqLen)
	}
	f, ok := benchmarks[name]
	if !ok {
		known := make([]string, 0, len(benchmarks))
		for k := range benchmarks {
			known = append(known, k)
		}
		sort.Strings(known)
		return nil, fmt.Errorf("dnn: unknown benchmark %q (have %v)", name, known)
	}
	if seqlen == 0 {
		builds.Add(1)
		return f(batch), nil
	}
	sf, ok := seqBenchmarks[name]
	if !ok {
		return nil, fmt.Errorf("dnn: benchmark %q has no sequence axis (seqlen %d)", name, seqlen)
	}
	builds.Add(1)
	return sf(batch, seqlen), nil
}

// MustBuild is Build for configuration-time call sites.
func MustBuild(name string, batch int) *Graph {
	g, err := Build(name, batch)
	if err != nil {
		panic(err)
	}
	return g
}

// AlexNet builds the 8-layer ImageNet CNN of Krizhevsky et al. (single-tower
// dimensions).
func AlexNet(batch int) *Graph {
	b := NewBuilder("AlexNet", batch)
	in := b.Input(3, 227, 227)
	c1 := b.Conv("conv1", in, 96, 11, 4, 0)
	r1 := b.ReLU("relu1", c1)
	n1 := b.LRN("norm1", r1)
	p1 := b.Pool("pool1", n1, 3, 2, 0)
	c2 := b.Conv("conv2", p1, 256, 5, 1, 2)
	r2 := b.ReLU("relu2", c2)
	n2 := b.LRN("norm2", r2)
	p2 := b.Pool("pool2", n2, 3, 2, 0)
	c3 := b.Conv("conv3", p2, 384, 3, 1, 1)
	r3 := b.ReLU("relu3", c3)
	c4 := b.Conv("conv4", r3, 384, 3, 1, 1)
	r4 := b.ReLU("relu4", c4)
	c5 := b.Conv("conv5", r4, 256, 3, 1, 1)
	r5 := b.ReLU("relu5", c5)
	p5 := b.Pool("pool5", r5, 3, 2, 0)
	f6 := b.FC("fc6", p5, 4096)
	r6 := b.ReLU("relu6", f6)
	d6 := b.Dropout("drop6", r6)
	f7 := b.FC("fc7", d6, 4096)
	r7 := b.ReLU("relu7", f7)
	d7 := b.Dropout("drop7", r7)
	f8 := b.FC("fc8", d7, 1000)
	b.Softmax("prob", f8)
	return b.Finish()
}

// VGGE builds VGG-E (VGG-19): 16 convolutional and 3 fully-connected layers.
func VGGE(batch int) *Graph {
	b := NewBuilder("VGG-E", batch)
	x := b.Input(3, 224, 224)
	block := func(stage, convs, outC int) {
		for i := 1; i <= convs; i++ {
			x = b.Conv(fmt.Sprintf("conv%d_%d", stage, i), x, outC, 3, 1, 1)
			x = b.ReLU(fmt.Sprintf("relu%d_%d", stage, i), x)
		}
		x = b.Pool(fmt.Sprintf("pool%d", stage), x, 2, 2, 0)
	}
	block(1, 2, 64)
	block(2, 2, 128)
	block(3, 4, 256)
	block(4, 4, 512)
	block(5, 4, 512)
	x = b.FC("fc6", x, 4096)
	x = b.ReLU("relu6", x)
	x = b.Dropout("drop6", x)
	x = b.FC("fc7", x, 4096)
	x = b.ReLU("relu7", x)
	x = b.Dropout("drop7", x)
	x = b.FC("fc8", x, 1000)
	b.Softmax("prob", x)
	return b.Finish()
}

// inceptionCfg holds one row of the GoogLeNet inception table.
type inceptionCfg struct {
	name                                 string
	c1x1, red3, c3x3, red5, c5x5, poolPj int
}

// GoogLeNet builds the 58-layer (3 stem convs + 9 modules × 6 convs + 1 fc)
// inception-v1 network.
func GoogLeNet(batch int) *Graph {
	b := NewBuilder("GoogLeNet", batch)
	x := b.Input(3, 224, 224)
	x = b.Conv("conv1", x, 64, 7, 2, 3)
	x = b.ReLU("relu1", x)
	x = b.Pool("pool1", x, 3, 2, 1)
	x = b.LRN("norm1", x)
	x = b.Conv("conv2_reduce", x, 64, 1, 1, 0)
	x = b.ReLU("relu2r", x)
	x = b.Conv("conv2", x, 192, 3, 1, 1)
	x = b.ReLU("relu2", x)
	x = b.LRN("norm2", x)
	x = b.Pool("pool2", x, 3, 2, 1)

	inception := func(in int, cfg inceptionCfg) int {
		p := cfg.name
		b1 := b.Conv(p+"/1x1", in, cfg.c1x1, 1, 1, 0)
		b1 = b.ReLU(p+"/relu_1x1", b1)
		b3r := b.Conv(p+"/3x3_reduce", in, cfg.red3, 1, 1, 0)
		b3r = b.ReLU(p+"/relu_3x3r", b3r)
		b3 := b.Conv(p+"/3x3", b3r, cfg.c3x3, 3, 1, 1)
		b3 = b.ReLU(p+"/relu_3x3", b3)
		b5r := b.Conv(p+"/5x5_reduce", in, cfg.red5, 1, 1, 0)
		b5r = b.ReLU(p+"/relu_5x5r", b5r)
		b5 := b.Conv(p+"/5x5", b5r, cfg.c5x5, 5, 1, 2)
		b5 = b.ReLU(p+"/relu_5x5", b5)
		bp := b.Pool(p+"/pool", in, 3, 1, 1)
		bp = b.Conv(p+"/pool_proj", bp, cfg.poolPj, 1, 1, 0)
		bp = b.ReLU(p+"/relu_pp", bp)
		return b.Concat(p+"/output", b1, b3, b5, bp)
	}

	stage3 := []inceptionCfg{
		{"inception_3a", 64, 96, 128, 16, 32, 32},
		{"inception_3b", 128, 128, 192, 32, 96, 64},
	}
	stage4 := []inceptionCfg{
		{"inception_4a", 192, 96, 208, 16, 48, 64},
		{"inception_4b", 160, 112, 224, 24, 64, 64},
		{"inception_4c", 128, 128, 256, 24, 64, 64},
		{"inception_4d", 112, 144, 288, 32, 64, 64},
		{"inception_4e", 256, 160, 320, 32, 128, 128},
	}
	stage5 := []inceptionCfg{
		{"inception_5a", 256, 160, 320, 32, 128, 128},
		{"inception_5b", 384, 192, 384, 48, 128, 128},
	}
	for _, cfg := range stage3 {
		x = inception(x, cfg)
	}
	x = b.Pool("pool3", x, 3, 2, 1)
	for _, cfg := range stage4 {
		x = inception(x, cfg)
	}
	x = b.Pool("pool4", x, 3, 2, 1)
	for _, cfg := range stage5 {
		x = inception(x, cfg)
	}
	x = b.GlobalPool("pool5", x)
	x = b.Dropout("drop", x)
	x = b.FC("fc", x, 1000)
	b.Softmax("prob", x)
	return b.Finish()
}

// ResNet34 builds the 34-layer residual network (33 main-path convolutions
// plus the classifier; projection shortcuts add three 1×1 convolutions that
// the canonical layer count excludes).
func ResNet34(batch int) *Graph {
	b := NewBuilder("ResNet", batch)
	x := b.Input(3, 224, 224)
	x = b.Conv("conv1", x, 64, 7, 2, 3)
	x = b.BatchNorm("bn1", x)
	x = b.ReLU("relu1", x)
	x = b.Pool("pool1", x, 3, 2, 1)

	block := func(name string, in, outC, stride int) int {
		c1 := b.Conv(name+"/conv1", in, outC, 3, stride, 1)
		n1 := b.BatchNorm(name+"/bn1", c1)
		r1 := b.ReLU(name+"/relu1", n1)
		c2 := b.Conv(name+"/conv2", r1, outC, 3, 1, 1)
		n2 := b.BatchNorm(name+"/bn2", c2)
		short := in
		if stride != 1 || b.shape(in).C != outC {
			sc := b.Conv(name+"/downsample", in, outC, 1, stride, 0)
			short = b.BatchNorm(name+"/downsample_bn", sc)
		}
		sum := b.Add(name+"/add", n2, short)
		return b.ReLU(name+"/relu2", sum)
	}
	stage := func(prefix string, blocks, outC, firstStride int) {
		for i := 1; i <= blocks; i++ {
			stride := 1
			if i == 1 {
				stride = firstStride
			}
			x = block(fmt.Sprintf("%s_%d", prefix, i), x, outC, stride)
		}
	}
	stage("layer1", 3, 64, 1)
	stage("layer2", 4, 128, 2)
	stage("layer3", 6, 256, 2)
	stage("layer4", 3, 512, 2)
	x = b.GlobalPool("avgpool", x)
	x = b.FC("fc", x, 1000)
	b.Softmax("prob", x)
	return b.Finish()
}

// recurrentNet chains timesteps of a cell kind with shared weights.
func recurrentNet(name string, batch, hidden, timesteps int,
	cell func(b *Builder, name string, in, hidden int, group string) int) *Graph {
	b := NewBuilder(name, batch)
	x := b.InputVec(hidden)
	group := name + "/recurrent"
	for t := 1; t <= timesteps; t++ {
		x = cell(b, fmt.Sprintf("t%d", t), x, hidden, group)
	}
	return b.FinishRecurrent(timesteps)
}

// rnnGeometry is the single source of truth for the recurrent workloads'
// dimensions (DeepBench-class, Table III): cell kind, hidden size, default
// timestep count. Both the default builders and the seqlen-override registry
// derive from it, so the two can never drift apart.
var rnnGeometry = map[string]struct {
	hidden, timesteps int
	cell              func(b *Builder, name string, in, hidden int, group string) int
}{
	"RNN-GEMV": {2560, 50, func(b *Builder, name string, in, hidden int, group string) int {
		return b.RNNCell(name, in, hidden, group)
	}},
	"RNN-LSTM-1": {1024, 25, func(b *Builder, name string, in, hidden int, group string) int {
		return b.LSTMCell(name, in, hidden, group)
	}},
	"RNN-LSTM-2": {8192, 25, func(b *Builder, name string, in, hidden int, group string) int {
		return b.LSTMCell(name, in, hidden, group)
	}},
	"RNN-GRU": {2816, 187, func(b *Builder, name string, in, hidden int, group string) int {
		return b.GRUCell(name, in, hidden, group)
	}},
}

func rnnNet(name string, batch, timesteps int) *Graph {
	geo := rnnGeometry[name]
	return recurrentNet(name, batch, geo.hidden, timesteps, geo.cell)
}

func rnnDefault(name string, batch int) *Graph {
	return rnnNet(name, batch, rnnGeometry[name].timesteps)
}

// RNNGEMV builds the vanilla-RNN speech-recognition workload
// (hidden 2560, 50 timesteps).
func RNNGEMV(batch int) *Graph { return rnnDefault("RNN-GEMV", batch) }

// RNNLSTM1 builds the machine-translation LSTM (hidden 1024, 25 timesteps).
func RNNLSTM1(batch int) *Graph { return rnnDefault("RNN-LSTM-1", batch) }

// RNNLSTM2 builds the language-modelling LSTM (hidden 8192, 25 timesteps).
func RNNLSTM2(batch int) *Graph { return rnnDefault("RNN-LSTM-2", batch) }

// RNNGRU builds the speech GRU (hidden 2816, 187 timesteps).
func RNNGRU(batch int) *Graph { return rnnDefault("RNN-GRU", batch) }

func init() {
	// The recurrent workloads expose their timestep count as the sequence
	// axis: BuildSeq("RNN-GRU", b, 400) unrolls 400 GRU timesteps.
	for name := range rnnGeometry {
		name := name
		seqBenchmarks[name] = func(batch, seqlen int) *Graph {
			return rnnNet(name, batch, seqlen)
		}
	}
}

// PaperLayerCount reports the Table III "# of layers" (or timesteps for the
// recurrent workloads) for a benchmark name.
func PaperLayerCount(name string) int {
	switch name {
	case "AlexNet":
		return 8
	case "GoogLeNet":
		return 58
	case "VGG-E":
		return 19
	case "ResNet":
		return 34
	case "RNN-GEMV":
		return 50
	case "RNN-LSTM-1", "RNN-LSTM-2":
		return 25
	case "RNN-GRU":
		return 187
	case "BERT-Large":
		return 24
	case "GPT-2":
		return 48
	}
	return 0
}
